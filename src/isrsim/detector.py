"""Monte-Carlo model of the differential single-pulse acquisition chain.

Each probe pulse is detected on a signal photodiode, a reference pulse on
a twin diode, and the difference voltage is digitized per pulse. Photon
counts are large (~1e6), so counting statistics are Gaussian to relative
skewness ~1e-3: the signal arm draws from a normal with the
Bernoulli-thinned variance eta^2 var + eta (1-eta) mean, the reference
arm from Poisson-equivalent statistics, and electronic noise is additive.

Reproducibility is anchored in seed derivation, not execution order:
every scan row owns two child streams (photon and electronic) spawned
from SeedSequence(seed prefix + [scan index]), and the row's delay cells
draw from them in delay order. Runs are bit-identical for a fixed seed
whichever order or thread computes the rows, and the electronic
contribution can be toggled without touching the photon draws.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy import stats

from .probe import ProbeSpec, predict_trace, probe_mean
from .states import BathSpec, PumpSpec, thermal_state

# Photons per pulse per mW of average probe power; fixes the power scale
# so that 2.5 mW corresponds to 1e6 detected-polarization photons.
PHOTONS_PER_PULSE_PER_MW = 4.0e5

# Summed-sample digitizer convention: a pulse with 1 V peak integrates
# to this many volts. Exported voltages use the summed convention.
SUMMED_V_PER_PEAK_V = 300.0

DEFAULT_N_PULSES = 4000
DEFAULT_M_SCANS = 10


@dataclass(frozen=True)
class DetectorSpec:
    """Parameters of the differential detection chain.

    ref_mean_photons None means the reference arm is balanced against
    the unpumped signal baseline by the caller. drift_rms_v adds an
    optional per-pulse random-walk voltage (slow classical drift),
    default off.
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
        if self.gain_v_per_photon <= 0:
            raise ValueError("gain_v_per_photon must be > 0")
        if self.electronic_var < 0:
            raise ValueError("electronic_var must be >= 0")
        if self.ref_mean_photons is not None and self.ref_mean_photons < 0:
            raise ValueError("ref_mean_photons must be >= 0")
        if self.drift_rms_v < 0:
            raise ValueError("drift_rms_v must be >= 0")


def calibrated_gain(
    probe_photons: float = 1.0e6,
    quantum_efficiency: float = 0.94,
    photonic_var_v2: float = 0.9,
) -> float:
    """Gain making a balanced coherent probe produce the target variance.

    Both arms contribute eta * photons of shot variance, so the photonic
    part of the voltage variance is 2 eta photons gain^2.
    """
    return math.sqrt(
        photonic_var_v2 / (2.0 * quantum_efficiency * probe_photons)
    )


def default_detector() -> DetectorSpec:
    """Detection chain tuned to ~1 V^2 total variance at 2.5 mW."""
    return DetectorSpec(
        quantum_efficiency=0.94,
        gain_v_per_photon=calibrated_gain(),
        electronic_var=0.1,
        ref_mean_photons=None,
        unbalance_v=0.0,
    )


@dataclass(frozen=True)
class PulseEnsemble:
    """Differential voltages of one acquisition burst."""

    samples: np.ndarray = field(repr=False)

    @property
    def n_pulses(self) -> int:
        return self.samples.size

    def mean(self) -> float:
        return float(np.mean(self.samples))

    def variance(self) -> float:
        return float(np.var(self.samples, ddof=1))


@dataclass(frozen=True)
class ScanResult:
    """Per-delay statistics of a multi-scan experiment.

    dt_mean and dt_var are scan averages; per_scan_mean / per_scan_var
    keep the individual scans as (m_scans, n_delays) matrices.
    """

    delays: np.ndarray
    dt_mean: np.ndarray
    dt_var: np.ndarray
    per_scan_mean: np.ndarray = field(repr=False)
    per_scan_var: np.ndarray = field(repr=False)
    seed: int = 0

    def __post_init__(self) -> None:
        if np.any(self.dt_var < 0):
            raise ValueError("dt_var must be non-negative")


def _resolve_streams(seed) -> tuple[np.random.Generator, np.random.Generator]:
    """Photon and electronic generators from a seed or SeedSequence.

    A (photon, electronic) pair of Generators is passed through, so a
    caller can draw several bursts in turn from one pair of streams.
    """
    if isinstance(seed, tuple) and isinstance(seed[0], np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(int(seed))
    photon_ss, elec_ss = ss.spawn(2)
    return np.random.default_rng(photon_ss), np.random.default_rng(elec_ss)


def _seed_prefix(seed) -> list[int]:
    if isinstance(seed, (list, tuple)):
        return [int(v) for v in seed]
    return [int(seed)]


def row_streams(seed, row: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Photon and electronic generators of scan row `row` under seed.

    seed may be an int or a sequence of ints (a stream prefix); the row's
    streams are spawned from SeedSequence(prefix + [row]).
    """
    return _resolve_streams(np.random.SeedSequence(_seed_prefix(seed) + [row]))


def _resolve_reference(det: DetectorSpec, baseline_mean_ny: float) -> float:
    if det.ref_mean_photons is not None:
        return det.ref_mean_photons
    return baseline_mean_ny


def sample_pulse_ensemble(
    mean_ny: float,
    var_ny: float,
    det: DetectorSpec,
    n_pulses: int = DEFAULT_N_PULSES,
    seed=0,
    baseline_mean_ny: float | None = None,
) -> PulseEnsemble:
    """Draw one burst of differential voltages.

    seed is an int, a SeedSequence, or a (photon, electronic) pair of
    Generators that the burst continues. baseline_mean_ny feeds the
    balanced-reference default; it falls back to mean_ny itself when not
    given (perfectly balanced at this point).
    """
    if n_pulses < 2:
        raise ValueError("n_pulses must be at least 2")
    if var_ny < 0:
        raise ValueError("var_ny must be >= 0")
    eta = det.quantum_efficiency
    ref_photons = _resolve_reference(
        det, mean_ny if baseline_mean_ny is None else baseline_mean_ny
    )
    rng_photon, rng_elec = _resolve_streams(seed)
    z = rng_photon.standard_normal((2, n_pulses))
    sig_sd = math.sqrt(eta * eta * var_ny + eta * (1.0 - eta) * mean_ny)
    signal = eta * mean_ny + sig_sd * z[0]
    reference = eta * ref_photons + math.sqrt(eta * ref_photons) * z[1]
    volts = det.gain_v_per_photon * (signal - reference) + det.unbalance_v
    if det.electronic_var > 0:
        volts = volts + math.sqrt(det.electronic_var) * rng_elec.standard_normal(
            n_pulses
        )
    if det.drift_rms_v > 0:
        volts = volts + np.cumsum(
            det.drift_rms_v * rng_elec.standard_normal(n_pulses)
        )
    return PulseEnsemble(samples=volts)


def voltage_statistics(
    mean_ny: float,
    var_ny: float,
    det: DetectorSpec,
    baseline_mean_ny: float | None = None,
) -> tuple[float, float]:
    """Exact mean and variance of a single differential voltage.

    mean_ny and var_ny may be arrays; the result takes their shape.
    """
    eta = det.quantum_efficiency
    ref_photons = _resolve_reference(
        det, mean_ny if baseline_mean_ny is None else baseline_mean_ny
    )
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
    seed,
    baseline_mean_ny: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (sample mean, sample variance) of bursts without the samples.

    For Gaussian pulses the burst mean and ddof-1 variance are exactly
    Normal(mu, var/N) and var * chi2(N-1)/(N-1), independent of each
    other, so drawing them directly is statistically identical to
    aggregating sample_pulse_ensemble and much faster for trial loops.
    mean_ny and var_ny may be arrays, one burst per element (a scan row):
    all means come from one normal call on the photon stream, then all
    variances from one chisquare call. seed is as for
    sample_pulse_ensemble. Requires the drift term to be off (samples
    would be correlated).
    """
    if n_pulses < 2:
        raise ValueError("n_pulses must be at least 2")
    if det.drift_rms_v > 0:
        raise ValueError("statistics-level sampling requires drift_rms_v = 0")
    mu, var = voltage_statistics(
        np.asarray(mean_ny, dtype=float),
        np.asarray(var_ny, dtype=float),
        det,
        baseline_mean_ny,
    )
    rng_photon, _ = _resolve_streams(seed)
    mean_hat = rng_photon.normal(mu, np.sqrt(var / n_pulses))
    chi2 = rng_photon.chisquare(n_pulses - 1, size=np.shape(var))
    var_hat = var * chi2 / (n_pulses - 1)
    return mean_hat, var_hat


def scan_experiment(
    pump: PumpSpec,
    bath: BathSpec,
    probe: ProbeSpec,
    det: DetectorSpec,
    delays: Sequence[float],
    n_pulses: int = DEFAULT_N_PULSES,
    m_scans: int = DEFAULT_M_SCANS,
    seed=0,
    thermal_n: float | None = None,
    statistics_only: bool = False,
    threads: int = 1,
) -> ScanResult:
    """Simulate the full delay-scan acquisition.

    The model observables are computed once for all delays; each scan
    row then draws its cells, in delay order, from the row's own pair of
    streams (row_streams(seed, s)). The reference arm is balanced
    against the unpumped baseline unless the detector pins
    ref_mean_photons. statistics_only skips the per-pulse samples and
    draws the whole row's statistics in one call; otherwise each cell
    draws one burst of n_pulses pulses at a time.

    seed may be an int or a sequence of ints (a stream prefix). threads
    > 1 computes the rows on a thread pool; the rows are independent
    streams, so the result is bit-identical to the serial one.
    """
    if m_scans < 1:
        raise ValueError("m_scans must be at least 1")
    n = bath.n_bath if thermal_n is None else thermal_n
    trace = predict_trace(pump, bath, probe, n, delays)
    baseline = probe_mean(thermal_state(n), probe)
    taus, means, variances = trace.T

    def row(s: int) -> np.ndarray:
        streams = row_streams(seed, s)
        if statistics_only:
            stats_row = sample_scan_statistics(
                means, variances, det, n_pulses, streams, baseline
            )
            return np.array(stats_row)
        cells = np.empty((2, taus.size))
        for d in range(taus.size):
            ens = sample_pulse_ensemble(
                means[d], variances[d], det, n_pulses, streams, baseline
            )
            cells[:, d] = ens.mean(), ens.variance()
        return cells

    if threads > 1 and m_scans > 1:
        with ThreadPoolExecutor(max_workers=min(threads, m_scans)) as pool:
            rows = list(pool.map(row, range(m_scans)))
    else:
        rows = [row(s) for s in range(m_scans)]
    per_scan_mean, per_scan_var = np.stack(rows, axis=1)
    return ScanResult(
        delays=taus,
        dt_mean=per_scan_mean.mean(axis=0),
        dt_var=per_scan_var.mean(axis=0),
        per_scan_mean=per_scan_mean,
        per_scan_var=per_scan_var,
        seed=_seed_prefix(seed)[0],
    )


def shot_noise_scan(
    powers_mw: Sequence[float],
    det: DetectorSpec,
    n_pulses: int = DEFAULT_N_PULSES,
    seed: int = 0,
) -> np.ndarray:
    """Variance of the differential voltage versus probe power, pump off.

    Returns an array of rows (power_mw, variance_v2). Pure coherent
    statistics: photon-number variance equals the mean at every power.
    """
    powers = np.asarray(powers_mw, dtype=float)
    if powers.ndim != 1 or powers.size == 0 or np.any(powers <= 0):
        raise ValueError("powers must be positive")
    out = np.empty((powers.size, 2))
    for i, p in enumerate(powers):
        photons = p * PHOTONS_PER_PULSE_PER_MW
        cell = np.random.SeedSequence([int(seed), i])
        ens = sample_pulse_ensemble(photons, photons, det, n_pulses, cell)
        out[i] = (p, ens.variance())
    return out


@dataclass(frozen=True)
class LineFit:
    slope: float
    intercept: float
    r_squared: float
    intercept_ci95: float


def fit_line(x, y) -> LineFit:
    """Ordinary least-squares line with a 95% CI on the intercept."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 3:
        raise ValueError("need at least 3 points")
    design = np.column_stack([x, np.ones_like(x)])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    dof = x.size - 2
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(design.T @ design)
    tcrit = stats.t.ppf(0.975, dof)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return LineFit(
        slope=float(coef[0]),
        intercept=float(coef[1]),
        r_squared=r2,
        intercept_ci95=float(tcrit * math.sqrt(cov[1, 1])),
    )


def without_electronic_noise(det: DetectorSpec) -> DetectorSpec:
    """Copy of the chain with the electronic term switched off."""
    return replace(det, electronic_var=0.0)
