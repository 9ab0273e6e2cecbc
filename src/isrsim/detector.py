"""Monte-Carlo model of the differential single-pulse acquisition chain.

Each probe pulse is detected on a signal photodiode, a reference pulse on
a twin diode, and the difference voltage is digitized per pulse. Photon
counts are large (~1e6), so counting statistics are Gaussian to relative
skewness ~1e-3: the signal arm draws from a normal with the
Bernoulli-thinned variance eta^2 var + eta (1-eta) mean, the reference
arm from Poisson-equivalent statistics, and electronic noise is additive.

Reproducibility is anchored in seed derivation, not execution order:
every scan row keys two child streams (photon and electronic) of
SeedSequence(seed prefix + [scan index]), and the row's delay cells draw
from them in delay order. A per-pulse row draws from both; a
statistics-only row draws only its photon stream and never builds the
electronic one. Runs are bit-identical for a fixed seed whichever order
or thread computes the rows, and the electronic contribution can be
toggled without touching the photon draws.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
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
# Pulses a per-pulse scan row draws per block of bursts: fewer, larger
# numpy calls per delay cell, with 0.5 MB of photon buffer per row.
_BLOCK_PULSES = 32768


@dataclass(frozen=True)
class DetectorSpec:
    """Parameters of the differential detection chain.

    ref_mean_photons None balances the reference arm against the signal:
    a scan's unpumped baseline, a shot-noise power's own photons.
    drift_rms_v adds an optional per-pulse random-walk voltage (slow
    classical drift), default off.
    """

    quantum_efficiency: float
    gain_v_per_photon: float
    electronic_var: float
    ref_mean_photons: float | None = None
    unbalance_v: float = 0.0
    drift_rms_v: float = 0.0

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
        if not (self.drift_rms_v >= 0 and math.isfinite(self.drift_rms_v)):
            raise ValueError(f"drift_rms_v must be >= 0, got {self.drift_rms_v}")


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
    arm's mean photon number.
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


def row_generator(seed, row: int, child: int) -> np.random.Generator:
    """Generator of child stream `child` of scan row `row` under seed.

    Child 0 is the row's photon stream and child 1 its electronic stream.
    seed may be an int or a sequence of ints (a stream prefix); the child
    is SeedSequence(prefix + [row], spawn_key=(child,)), the same stream
    as SeedSequence(prefix + [row]).spawn(2)[child], built without the
    parent. SeedSequence ignores trailing zero words, so prefix + [0]
    keys the same streams as prefix alone: [s, 0] equals [s], and
    [s, i, 0] equals [s, i]. Distinct keys of one length never collide,
    so every command keys all of its rows under prefixes of one length.
    """
    prefix = [int(v) for v in seed] if isinstance(seed, (list, tuple)) else [int(seed)]
    return np.random.default_rng(
        np.random.SeedSequence(prefix + [row], spawn_key=(child,))
    )


def row_streams(seed, row: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Photon and electronic generators of scan row `row` under seed.

    The two streams a per-pulse row or burst draws from, as row_generator
    keys them.
    """
    return row_generator(seed, row, 0), row_generator(seed, row, 1)


def _reference_photons(det: DetectorSpec, balanced: float) -> float:
    """Reference-arm photons: pinned by det, else balanced, the signal's count."""
    return balanced if det.ref_mean_photons is None else det.ref_mean_photons


def _check_burst(n_pulses: int, var_ny) -> None:
    if n_pulses < 2:
        raise ValueError("n_pulses must be at least 2")
    if np.any(np.asarray(var_ny) < 0):
        raise ValueError("var_ny must be >= 0")


def _burst_buffers(
    k: int, n_pulses: int, det: DetectorSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Photon and electronic buffers for k bursts, as _write_bursts fills them.

    Each burst's electronic draws are its noise term, then its drift
    term, each present only when det switches it on.
    """
    terms = (det.electronic_var > 0) + (det.drift_rms_v > 0)
    return np.empty((k, 2, n_pulses)), np.empty((k, terms, n_pulses))


def _write_bursts(
    photon: np.ndarray,
    elec: np.ndarray,
    mean_ny: np.ndarray,
    var_ny: np.ndarray,
    det: DetectorSpec,
    ref_photons: float,
    streams: tuple[np.random.Generator, np.random.Generator],
) -> np.ndarray:
    """Draw consecutive bursts into the buffers; return their voltages.

    Burst i has photon mean mean_ny[i] and variance var_ny[i]. The
    buffers come from _burst_buffers and are overwritten; the (k,
    n_pulses) voltages are photon[:, 0]. The signal arm is eta mean +
    sd z0, the reference arm eta ref + ref_sd z1; their difference is
    scaled by the gain, offset by the unbalance, and then gets the
    electronic noise and the drift random walk, in that order. The draws
    fill the buffers burst by burst, so k bursts at once take from the
    streams, and give, exactly what k bursts one at a time would.
    """
    eta = det.quantum_efficiency
    rng_photon, rng_elec = streams
    rng_photon.standard_normal(out=photon)
    signal, reference = photon[:, 0], photon[:, 1]
    signal *= np.sqrt(eta * eta * var_ny + eta * (1.0 - eta) * mean_ny)[:, None]
    signal += (eta * mean_ny)[:, None]
    reference *= math.sqrt(eta * ref_photons)
    reference += eta * ref_photons
    signal -= reference
    signal *= det.gain_v_per_photon
    signal += det.unbalance_v
    rng_elec.standard_normal(out=elec)
    if det.electronic_var > 0:
        noise = elec[:, 0]
        noise *= math.sqrt(det.electronic_var)
        signal += noise
    if det.drift_rms_v > 0:
        walk = elec[:, -1]
        walk *= det.drift_rms_v
        np.cumsum(walk, axis=1, out=walk)
        signal += walk
    return signal


def sample_pulse_ensemble(
    mean_ny: float,
    var_ny: float,
    det: DetectorSpec,
    n_pulses: int,
    streams: tuple[np.random.Generator, np.random.Generator],
    ref_photons: float,
) -> np.ndarray:
    """Draw one burst of n_pulses differential voltages.

    streams is the (photon, electronic) pair of Generators the burst
    continues, as row_streams builds it; ref_photons is the reference
    arm's mean photon number.
    """
    _check_burst(n_pulses, var_ny)
    volts = _write_bursts(
        *_burst_buffers(1, n_pulses, det),
        np.array([mean_ny], dtype=float),
        np.array([var_ny], dtype=float),
        det,
        ref_photons,
        streams,
    )
    return volts[0]


def _pulse_row(
    means: np.ndarray,
    variances: np.ndarray,
    det: DetectorSpec,
    n_pulses: int,
    streams: tuple[np.random.Generator, np.random.Generator],
    ref_photons: float,
) -> np.ndarray:
    """(mean, ddof-1 variance) of one burst per delay, drawn in delay order.

    The row draws _BLOCK_PULSES pulses' worth of bursts at a time into one
    pair of reused buffers. The statistics are computed as np.mean and
    np.var(ddof=1) compute them: a pairwise sum divided by N, then the
    squared deviations from that mean summed and divided by N - 1, so a
    cell equals np.mean and np.var(ddof=1) of sample_pulse_ensemble's
    burst bit for bit.
    """
    k = max(1, _BLOCK_PULSES // n_pulses)
    photon, elec = _burst_buffers(min(k, means.size), n_pulses, det)
    cells = np.empty((2, means.size))
    for a in range(0, means.size, k):
        b = min(a + k, means.size)
        volts = _write_bursts(
            photon[: b - a],
            elec[: b - a],
            means[a:b],
            variances[a:b],
            det,
            ref_photons,
            streams,
        )
        mean = np.add.reduce(volts, axis=1) / n_pulses
        volts -= mean[:, None]
        volts *= volts
        cells[0, a:b] = mean
        cells[1, a:b] = np.add.reduce(volts, axis=1) / (n_pulses - 1)
    return cells


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


def sample_scan_statistics(
    mean_ny,
    var_ny,
    det: DetectorSpec,
    n_pulses: int,
    photon_rngs: Sequence[np.random.Generator],
    ref_photons: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (sample mean, sample variance) of bursts without the samples.

    For Gaussian pulses the burst mean and ddof-1 variance are exactly
    Normal(mu, var/N) and var * chi2(N-1)/(N-1), independent of each
    other, so drawing them directly is statistically identical to
    aggregating sample_pulse_ensemble and much faster for trial loops.
    mean_ny and var_ny may be arrays, one burst per element (the delays
    of a scan). photon_rngs holds one photon Generator per scan row; the
    result is a pair of (len(photon_rngs),) + shape(mean_ny) arrays.
    The voltage statistics are computed once for all rows. Each row, in
    row order, draws all its means as mu + sd * standard_normal, the
    same draws and bits as Generator.normal(mu, sd), then all its
    variances from one chisquare call. Requires the drift term to be off
    (samples would be correlated).
    """
    _check_burst(n_pulses, var_ny)
    if det.drift_rms_v > 0:
        raise ValueError("statistics-level sampling requires drift_rms_v = 0")
    mu, var = voltage_statistics(
        np.asarray(mean_ny, dtype=float),
        np.asarray(var_ny, dtype=float),
        det,
        ref_photons,
    )
    z = np.empty((len(photon_rngs), mu.size))
    chi2 = np.empty_like(z)
    for row, rng in enumerate(photon_rngs):
        rng.standard_normal(out=z[row])
        chi2[row] = rng.chisquare(n_pulses - 1, size=mu.size)
    shape = (len(photon_rngs),) + mu.shape
    mean_hat = mu + np.sqrt(var / n_pulses) * z.reshape(shape)
    var_hat = var * chi2.reshape(shape) / (n_pulses - 1)
    return mean_hat, var_hat


def scan_experiment(
    pump: PumpSpec,
    bath: BathSpec,
    probe: ProbeSpec,
    det: DetectorSpec,
    delays: Sequence[float],
    n_pulses: int,
    m_scans: int,
    seed,
    thermal_n: float,
    statistics_only: bool = False,
    threads: int = 1,
) -> ScanResult:
    """Simulate the full delay-scan acquisition.

    The model observables are computed once for all delays; each scan
    row then draws its cells, in delay order, from its own streams. The
    reference arm is balanced against the unpumped baseline unless the
    detector pins ref_mean_photons. statistics_only skips the per-pulse
    samples: one sample_scan_statistics call draws every row's
    statistics, each row from its photon stream alone
    (row_generator(seed, s, 0)). Otherwise each cell draws one burst of
    n_pulses pulses at a time from the row's photon and electronic pair
    (row_streams(seed, s)).

    seed may be an int or a sequence of ints (a stream prefix). Per-pulse
    rows run on a pool of min(threads, m_scans) threads; the rows are
    independent streams, so the result is bit-identical for any thread
    count. A statistics-only row takes tens of microseconds, less than
    handing it to a thread, so those rows start no pool.
    """
    if m_scans < 1:
        raise ValueError("m_scans must be at least 1")
    trace = predict_trace(pump, bath, probe, thermal_n, delays)
    ref_photons = _reference_photons(det, probe_mean(thermal_state(thermal_n), probe))
    taus, means, variances = trace.T

    if statistics_only:
        per_scan_mean, per_scan_var = sample_scan_statistics(
            means,
            variances,
            det,
            n_pulses,
            [row_generator(seed, s, 0) for s in range(m_scans)],
            ref_photons,
        )
    else:
        _check_burst(n_pulses, variances)

        def row(s: int) -> np.ndarray:
            return _pulse_row(
                means, variances, det, n_pulses, row_streams(seed, s), ref_photons
            )

        with ThreadPoolExecutor(max_workers=min(threads, m_scans)) as pool:
            rows = list(pool.map(row, range(m_scans)))
        per_scan_mean, per_scan_var = np.stack(rows, axis=1)
    return ScanResult(
        delays=taus,
        dt_mean=per_scan_mean.mean(axis=0),
        dt_var=per_scan_var.mean(axis=0),
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
    """
    powers = np.asarray(powers_mw, dtype=float)
    if powers.ndim != 1 or powers.size == 0 or np.any(powers <= 0):
        raise ValueError("powers must be positive")
    out = np.empty((powers.size, 2))
    for i, p in enumerate(powers):
        photons = p * PHOTONS_PER_PULSE_PER_MW
        volts = sample_pulse_ensemble(
            photons, photons, det, n_pulses, row_streams(seed, i),
            _reference_photons(det, photons),
        )
        out[i] = (p, float(np.var(volts, ddof=1)))
    return out
