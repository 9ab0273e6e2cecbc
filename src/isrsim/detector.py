"""Monte-Carlo model of the differential single-pulse acquisition chain.

Each probe pulse is detected on a signal photodiode, a reference pulse on
a twin diode, and the difference voltage is digitized per pulse. Photon
counts are large (~1e6), so counting statistics are Gaussian to relative
skewness ~1e-3: the signal arm is Normal with the Bernoulli-thinned
variance eta^2 var + eta (1-eta) mean, the reference arm has
Poisson-equivalent statistics, and electronic noise is additive. A sum of
independent Gaussians is one Gaussian, so voltage_statistics states the
whole chain as one mean and variance, and every sampler draws from it.

A burst of N such pulses has a mean and a ddof-1 variance that are
exactly Normal(mu, var/N) and var chi2(N-1)/(N-1), independent of each
other (Cochran's theorem). A scan therefore draws those two statistics
per cell, never the pulses; only the voltage histograms draw bursts.

Reproducibility is anchored in seed derivation, not execution order:
every scan row draws from one stream, row_generator(seed, row), and
the row's delay cells draw from it in delay order; in a series of
pumps (a fluence series), pump i's rows key under seed + [i]. Runs are
bit-identical for a fixed seed, and a row's draws do not depend on how
many rows or pumps the scan has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .probe import ProbeSpec, predict_trace, probe_mean
from .states import BathSpec, PumpSpec, thermal_state

# Photons per pulse per mW of average probe power; fixes the power scale
# so that 2.5 mW corresponds to 1e6 detected-polarization photons.
PHOTONS_PER_PULSE_PER_MW = 4.0e5
# Photonic part of the voltage variance that calibrated_gain targets (V^2).
PHOTONIC_VAR_V2 = 0.9


@dataclass(frozen=True)
class DetectorSpec:
    """Parameters of the differential detection chain.

    ref_mean_photons None balances the reference arm against the signal:
    a scan's unpumped baseline, a shot-noise power's own photons.
    """

    quantum_efficiency: float
    gain_v_per_photon: float
    electronic_var: float
    ref_mean_photons: float | None = None
    unbalance_v: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.quantum_efficiency <= 1.0):
            raise ValueError(
                f"quantum_efficiency must be in (0, 1], got {self.quantum_efficiency}"
            )
        if not (self.gain_v_per_photon > 0 and math.isfinite(self.gain_v_per_photon)):
            raise ValueError(f"gain_v_per_photon must be > 0, got {self.gain_v_per_photon}")
        if not (self.electronic_var >= 0 and math.isfinite(self.electronic_var)):
            raise ValueError(f"electronic_var must be >= 0, got {self.electronic_var}")
        ref = self.ref_mean_photons
        if ref is not None and not (ref >= 0 and math.isfinite(ref)):
            raise ValueError(f"ref_mean_photons must be >= 0, got {ref}")
        if not math.isfinite(self.unbalance_v):
            raise ValueError(f"unbalance_v must be finite, got {self.unbalance_v}")


def calibrated_gain(probe_photons: float, quantum_efficiency: float) -> float:
    """Gain making a balanced coherent probe's photonic variance PHOTONIC_VAR_V2.

    Both arms contribute eta * photons of shot variance, so the photonic
    part of the voltage variance is 2 eta photons gain^2.
    """
    return math.sqrt(PHOTONIC_VAR_V2 / (2.0 * quantum_efficiency * probe_photons))


@dataclass(frozen=True)
class ScanResult:
    """Per-delay statistics of a multi-scan experiment.

    dt_mean and dt_var are scan averages; per_scan_mean / per_scan_var
    keep the individual scans as (m_scans, n_delays) matrices.
    model_trace holds the noiseless predict_trace rows (delay, mean_ny,
    var_ny) the cells were drawn from, and ref_photons the reference
    arm's mean photon number. A series of pumps puts a leading pump axis
    on every array but delays.
    """

    delays: np.ndarray
    dt_mean: np.ndarray
    dt_var: np.ndarray
    per_scan_mean: np.ndarray = field(repr=False)
    per_scan_var: np.ndarray = field(repr=False)
    model_trace: np.ndarray = field(repr=False)
    ref_photons: float

    def __post_init__(self) -> None:
        if np.any(self.dt_var < 0):
            raise ValueError("dt_var must be non-negative")


def row_generator(seed, row: int) -> np.random.Generator:
    """Generator of the stream of scan row `row` under seed.

    seed may be an int or a sequence of ints (a stream prefix); the
    stream is SeedSequence(prefix + [row], spawn_key=(0,)), the same as
    SeedSequence(prefix + [row]).spawn(1)[0], built without the parent.
    SeedSequence ignores trailing zero words, so prefix + [0]
    keys the same streams as prefix alone: [s, 0] equals [s], and
    [s, i, 0] equals [s, i]. Distinct keys of one length never collide,
    so every command keys all of its rows under prefixes of one length.
    """
    prefix = [int(v) for v in seed] if isinstance(seed, (list, tuple)) else [int(seed)]
    return np.random.default_rng(
        np.random.SeedSequence(prefix + [row], spawn_key=(0,))
    )


def _reference_photons(det: DetectorSpec, balanced: float) -> float:
    """Reference-arm photons: pinned by det, else balanced, the signal's count."""
    return balanced if det.ref_mean_photons is None else det.ref_mean_photons


def _check_burst(n_pulses: int, var_ny) -> None:
    if n_pulses < 2:
        raise ValueError("n_pulses must be at least 2")
    if np.any(np.asarray(var_ny) < 0):
        raise ValueError("var_ny must be >= 0")


def voltage_statistics(
    mean_ny: float,
    var_ny: float,
    det: DetectorSpec,
    ref_photons: float,
) -> tuple[float, float]:
    """Exact mean and variance of a single differential voltage.

    mean_ny and var_ny may be arrays; the result takes their shape.
    """
    eta = det.quantum_efficiency
    g = det.gain_v_per_photon
    mu = g * eta * (mean_ny - ref_photons) + det.unbalance_v
    var = (
        g * g * (eta * eta * var_ny + eta * (1.0 - eta) * mean_ny)
        + g * g * eta * ref_photons
        + det.electronic_var
    )
    return mu, var


def sample_pulse_ensemble(
    mean_ny: float,
    var_ny: float,
    det: DetectorSpec,
    n_pulses: int,
    rng: np.random.Generator,
    ref_photons: float,
) -> np.ndarray:
    """Draw one burst of n_pulses differential voltages, mu + sd z.

    mu and sd**2 are voltage_statistics'; rng is the Generator the burst
    continues, and ref_photons the reference arm's mean photon number.
    """
    _check_burst(n_pulses, var_ny)
    mu, var = voltage_statistics(mean_ny, var_ny, det, ref_photons)
    return mu + math.sqrt(var) * rng.standard_normal(n_pulses)


def sample_scan_statistics(
    mean_ny,
    var_ny,
    det: DetectorSpec,
    n_pulses: int,
    rngs: Sequence,
    ref_photons: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (sample mean, sample variance) of bursts without the samples.

    For Gaussian pulses the burst mean and ddof-1 variance are exactly
    Normal(mu, var/N) and var * chi2(N-1)/(N-1), independent of each
    other, so drawing them directly is statistically identical to
    aggregating sample_pulse_ensemble, at two draws per burst.
    mean_ny and var_ny may be arrays, one burst per element (the delays
    of a scan). rngs holds one Generator per scan row; the result is a
    pair of (len(rngs),) + shape(mean_ny) arrays. rngs may also nest
    one such list per pump, indexing mean_ny's leading axis, and the
    rows' axis then follows it: (pumps, rows) + cells.
    The voltage statistics are computed once for all cells. Each row, in
    row order, draws all its means as mu + sd * standard_normal, the
    same draws and bits as Generator.normal(mu, sd), then all its
    variances from one chisquare call.
    """
    _check_burst(n_pulses, var_ny)
    mu, var = voltage_statistics(
        np.asarray(mean_ny, dtype=float),
        np.asarray(var_ny, dtype=float),
        det,
        ref_photons,
    )
    rows = np.asarray(rngs, dtype=object)
    mu, var = (np.expand_dims(v, rows.ndim - 1) for v in (mu, var))
    cells = mu.shape[rows.ndim :]
    mean_hat = np.empty(rows.shape + cells)
    var_hat = np.empty_like(mean_hat)
    for row, rng in np.ndenumerate(rows):
        mean_hat[row] = rng.standard_normal(cells)
        var_hat[row] = rng.chisquare(n_pulses - 1, size=cells)
    # In place, the same operations as mu + sd z and var chi2 / (N - 1).
    mean_hat *= np.sqrt(var / n_pulses)
    mean_hat += mu
    var_hat *= var
    var_hat /= n_pulses - 1
    return mean_hat, var_hat


def scan_experiment(
    pump: PumpSpec | Sequence[PumpSpec],
    bath: BathSpec,
    probe: ProbeSpec,
    det: DetectorSpec,
    delays: Sequence[float],
    n_pulses: int,
    m_scans: int,
    seed,
    thermal_n: float,
) -> ScanResult:
    """Simulate the full delay-scan acquisition, for one pump or a series.

    The model observables and their voltage statistics are computed once
    for all (pump, delay) cells; one sample_scan_statistics call then
    draws every cell's burst mean and variance, each scan row s in delay
    order from its own stream: row_generator(seed, s) for a single pump,
    row_generator(seed + [i], s) for pump i of a series, whose result
    arrays gain a leading pump axis. The reference arm is balanced
    against the unpumped baseline unless the detector pins
    ref_mean_photons. seed may be an int or a sequence of ints (a stream
    prefix).
    """
    if m_scans < 1:
        raise ValueError("m_scans must be at least 1")
    trace = predict_trace(pump, bath, probe, thermal_n, delays)
    ref_photons = _reference_photons(det, probe_mean(thermal_state(thermal_n), probe))
    series = trace.ndim == 3
    prefixes = [[*np.ravel(seed), i] for i in range(len(trace))] if series else [seed]
    rngs = [[row_generator(prefix, s) for s in range(m_scans)] for prefix in prefixes]
    per_scan_mean, per_scan_var = sample_scan_statistics(
        trace[..., 1], trace[..., 2], det, n_pulses, rngs if series else rngs[0], ref_photons
    )
    return ScanResult(
        delays=np.asarray(delays, dtype=float),
        dt_mean=per_scan_mean.mean(axis=-2),
        dt_var=per_scan_var.mean(axis=-2),
        per_scan_mean=per_scan_mean,
        per_scan_var=per_scan_var,
        model_trace=trace,
        ref_photons=ref_photons,
    )


def shot_noise_scan(
    powers_mw: Sequence[float],
    det: DetectorSpec,
    n_pulses: int,
    seed: int,
) -> np.ndarray:
    """Variance of the differential voltage versus probe power, pump off.

    Returns an array of rows (power_mw, variance_v2). Pure coherent
    statistics: photon-number variance equals the mean at every power,
    and the reference arm is balanced against it unless det pins it.
    Power i's ddof-1 variance of n_pulses Gaussian pulses is drawn
    directly as var chi2(N-1)/(N-1), one chisquare draw from
    row_generator(seed, i).
    """
    powers = np.asarray(powers_mw, dtype=float)
    if powers.ndim != 1 or powers.size == 0 or np.any(powers <= 0):
        raise ValueError("powers must be positive")
    photons = powers * PHOTONS_PER_PULSE_PER_MW
    _check_burst(n_pulses, photons)
    _, var = voltage_statistics(photons, photons, det, _reference_photons(det, photons))
    chi2 = [row_generator(seed, i).chisquare(n_pulses - 1) for i in range(powers.size)]
    return np.column_stack([powers, var * np.array(chi2) / (n_pulses - 1)])
