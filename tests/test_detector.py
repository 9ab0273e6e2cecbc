"""Differential acquisition chain: statistics, seeding, and the power scan."""

import dataclasses
import math

import numpy as np
import pytest

from closed_forms import assert_coverage
from isrsim.analysis import FitError, fit_line
from isrsim.config import load_config
from isrsim.detector import (
    PHOTONS_PER_PULSE_PER_MW,
    DetectorSpec,
    calibrated_gain,
    row_generator,
    sample_pulse_ensemble,
    sample_scan_statistics,
    scan_experiment,
    shot_noise_scan,
    voltage_statistics,
)
from isrsim.probe import ProbeSpec, predict_trace, probe_mean
from isrsim.states import BathSpec, PumpSpec, thermal_state

OMEGA = 2.0 * math.pi * 3.84


def config_detector():
    return load_config().detector_spec()


def stream(seed):
    return row_generator(seed, 0)


def quiet_detector(electronic_var=0.0):
    return DetectorSpec(
        quantum_efficiency=0.9,
        gain_v_per_photon=2e-4,
        electronic_var=electronic_var,
    )


def test_calibrated_gain_value():
    g = calibrated_gain(1.0e6, 0.94)
    assert g == pytest.approx(math.sqrt(0.9 / (2 * 0.94 * 1.0e6)), rel=1e-12)
    det = config_detector()
    # 2.5 mW -> 1e6 photons -> 0.9 photonic + 0.1 electronic = 1 V^2.
    _, var = voltage_statistics(1.0e6, 1.0e6, det, 1.0e6)
    assert var == pytest.approx(1.0, rel=1e-12)


def test_voltage_statistics_closed_form():
    det = DetectorSpec(0.8, 3e-4, 0.05, ref_mean_photons=9e5, unbalance_v=0.02)
    mean_ny, var_ny = 1.0e6, 1.4e6
    mu, var = voltage_statistics(mean_ny, var_ny, det, 9e5)
    g, eta = 3e-4, 0.8
    assert mu == pytest.approx(g * eta * (mean_ny - 9e5) + 0.02, rel=1e-12)
    expected = (
        g * g * (eta * eta * var_ny + eta * (1 - eta) * mean_ny)
        + g * g * eta * 9e5
        + 0.05
    )
    assert var == pytest.approx(expected, rel=1e-12)


def test_pulse_ensemble_deterministic():
    det = quiet_detector(0.03)
    a = sample_pulse_ensemble(1e6, 1.2e6, det, 500, stream(7), ref_photons=1e6)
    b = sample_pulse_ensemble(1e6, 1.2e6, det, 500, stream(7), ref_photons=1e6)
    c = sample_pulse_ensemble(1e6, 1.2e6, det, 500, stream(8), ref_photons=1e6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_pulse_ensemble_unbiased():
    det = quiet_detector(0.04)
    mu, var = voltage_statistics(1e6, 1.3e6, det, 1e6)
    volts = sample_pulse_ensemble(
        1e6, 1.3e6, det, n_pulses=200_000, rng=stream(11), ref_photons=1e6
    )
    # Expected spread of the estimates themselves.
    assert np.mean(volts) == pytest.approx(mu, abs=5 * math.sqrt(var / 2e5))
    assert np.var(volts, ddof=1) == pytest.approx(var, rel=0.02)


def test_statistics_only_matches_full_sampling_distribution():
    det = quiet_detector(0.02)
    mu, var = voltage_statistics(5e5, 6e5, det, 5e5)
    n = 2000
    rngs = [row_generator(1000 + i, 0) for i in range(300)]
    means, variances = sample_scan_statistics(5e5, 6e5, det, n, rngs, 5e5)
    assert np.mean(means) == pytest.approx(mu, abs=5 * math.sqrt(var / n / 300))
    assert np.std(means, ddof=1) == pytest.approx(
        math.sqrt(var / n), rel=0.15
    )
    assert np.mean(variances) == pytest.approx(var, rel=0.01)
    # ddof-1 variance of Gaussian data: relative sd sqrt(2/(n-1)).
    assert np.std(variances, ddof=1) == pytest.approx(
        var * math.sqrt(2.0 / (n - 1)), rel=0.15
    )


def test_guards():
    with pytest.raises(ValueError):
        DetectorSpec(0.0, 1e-4, 0.1)
    with pytest.raises(ValueError):
        DetectorSpec(1.2, 1e-4, 0.1)
    with pytest.raises(ValueError):
        sample_pulse_ensemble(1e6, 1e6, quiet_detector(), 1, stream(0), 1e6)
    with pytest.raises(ValueError):
        sample_pulse_ensemble(1e6, -1.0, quiet_detector(), 100, stream(0), 1e6)
    rngs = [row_generator(0, 0)]
    with pytest.raises(ValueError, match="n_pulses"):
        sample_scan_statistics(1e6, 1e6, quiet_detector(), 1, rngs, 1e6)
    with pytest.raises(ValueError, match="var_ny"):
        sample_scan_statistics(1e6, -1e12, quiet_detector(), 100, rngs, 1e6)
    with pytest.raises(ValueError, match="var_ny"):
        sample_scan_statistics(
            [1e6, 1e6], [1e6, -1.0], quiet_detector(), 100, rngs, 1e6
        )


FINITE_FIELDS = {
    DetectorSpec: dict(
        quantum_efficiency=0.94,
        gain_v_per_photon=1e-3,
        electronic_var=0.1,
        ref_mean_photons=1e6,
        unbalance_v=0.0,
    ),
    ProbeSpec: dict(coupling_norm=0.05, phase_diff=0.0, intensity_y=1e6),
    PumpSpec: dict(mu_displace=50.0, mu_squeeze=0.2, nu_amplitude=1.4),
}


@pytest.mark.parametrize(
    "spec,field,value",
    [
        (DetectorSpec, "quantum_efficiency", math.nan),
        (DetectorSpec, "gain_v_per_photon", math.inf),
        (DetectorSpec, "electronic_var", math.nan),
        (DetectorSpec, "ref_mean_photons", math.nan),
        (DetectorSpec, "unbalance_v", math.nan),
        (ProbeSpec, "coupling_norm", math.inf),
        (ProbeSpec, "phase_diff", math.nan),
        (ProbeSpec, "intensity_y", math.nan),
        (PumpSpec, "mu_displace", math.inf),
        (PumpSpec, "mu_squeeze", math.nan),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
)
def test_specs_reject_non_finite_fields(spec, field, value):
    """A NaN or inf field would otherwise reach the outputs as NaN, silently."""
    fields = FINITE_FIELDS[spec]
    spec(**fields)
    with pytest.raises(ValueError, match=f"^{field} must be"):
        spec(**{**fields, field: value})


def scan_args():
    pump = PumpSpec(50.0, 0.2, math.sqrt(2.0))
    bath = BathSpec(OMEGA, 2.0 / 7.0, 1.1787)
    probe = ProbeSpec(0.05, 0.0, 1.0e6)
    det = config_detector()
    delays = np.arange(32) * 0.02
    return pump, bath, probe, det, delays


def test_scan_split_by_rows_is_bit_identical():
    """Rows are independent streams: fewer rows change no row."""
    pump, bath, probe, det, delays = scan_args()
    kwargs = dict(n_pulses=50, seed=5, thermal_n=bath.n_bath)
    whole = scan_experiment(pump, bath, probe, det, delays, m_scans=4, **kwargs)
    head = scan_experiment(pump, bath, probe, det, delays, m_scans=2, **kwargs)
    assert np.array_equal(whole.per_scan_mean[:2], head.per_scan_mean)
    assert np.array_equal(whole.per_scan_var[:2], head.per_scan_var)


# Detector settings that each switch on one term of voltage_statistics.
BURST_DETECTORS = {
    "no-electronic": DetectorSpec(0.9, 2e-4, 0.0),
    "unbalance": DetectorSpec(0.9, 2e-4, 0.05, unbalance_v=0.03),
    "pinned-reference": DetectorSpec(0.9, 2e-4, 0.05, ref_mean_photons=9.8e5),
}


@pytest.mark.parametrize("name", sorted(BURST_DETECTORS))
def test_pulse_ensemble_matches_written_out_formula(name):
    """A burst is mu + sd z: one standard normal per pulse, from one stream."""
    det = BURST_DETECTORS[name]
    mean_ny, var_ny, n = 1.01e6, 1.3e6, 400
    ref = 9.9e5
    burst = sample_pulse_ensemble(mean_ny, var_ny, det, n, stream(21), ref)
    mu, var = voltage_statistics(mean_ny, var_ny, det, ref)
    volts = mu + math.sqrt(var) * stream(21).standard_normal(n)
    assert np.array_equal(burst, volts)


@pytest.mark.parametrize("name", sorted(BURST_DETECTORS))
def test_statistics_only_row_stream_layout(name):
    """Row s is one normal and one chisquare call on SeedSequence(prefix + [s])'s stream."""
    det = BURST_DETECTORS[name]
    pump, bath, probe, _, delays = scan_args()
    n, n_pulses = bath.n_bath, 300
    res = scan_experiment(
        pump, bath, probe, det, delays, n_pulses=n_pulses, m_scans=3,
        seed=[9, 2], thermal_n=n,
    )
    trace = predict_trace(pump, bath, probe, n, delays)
    ref = det.ref_mean_photons
    if ref is None:
        ref = probe_mean(thermal_state(n), probe)
    assert res.ref_photons == ref
    mu, var = voltage_statistics(trace[:, 1], trace[:, 2], det, ref)
    for s in range(3):
        rng = np.random.default_rng(np.random.SeedSequence([9, 2, s]).spawn(2)[0])
        expected_mean = rng.normal(mu, np.sqrt(var / n_pulses))
        expected_var = var * rng.chisquare(n_pulses - 1, size=delays.size) / (
            n_pulses - 1
        )
        assert np.array_equal(res.per_scan_mean[s], expected_mean)
        assert np.array_equal(res.per_scan_var[s], expected_var)


def test_statistics_rows_drawn_together_equal_rows_drawn_alone():
    """One multi-row call gives each row exactly what a one-row call gives it."""
    det = DetectorSpec(0.9, 2e-4, 0.05, unbalance_v=0.03)
    means = np.linspace(0.98e6, 1.02e6, 40)
    variances = np.linspace(1.0e6, 1.4e6, 40)
    seed, n_pulses = [3, 1], 700
    together = sample_scan_statistics(
        means, variances, det, n_pulses,
        [row_generator(seed, s) for s in range(4)], 9.9e5,
    )
    assert together[0].shape == together[1].shape == (4, 40)
    for s in range(4):
        alone = sample_scan_statistics(
            means, variances, det, n_pulses, [row_generator(seed, s)], 9.9e5
        )
        assert np.array_equal(together[0][s], alone[0][0])
        assert np.array_equal(together[1][s], alone[1][0])


@pytest.mark.parametrize("seed", [0, 1, 17, 2026])
def test_written_out_normal_equals_generator_normal(seed):
    """mu + sd * standard_normal is Generator.normal(mu, sd) bit for bit.

    sample_scan_statistics draws its means this way; a numpy build that
    fused the multiply-add inside Generator.normal would change every
    scan's outputs, and fails here first.
    """
    mu = np.linspace(-0.3, 0.7, 256)
    sd = np.sqrt(np.linspace(0.5, 1.5, 256) / 4000)
    written = mu + sd * np.random.default_rng(seed).standard_normal(256)
    assert np.array_equal(written, np.random.default_rng(seed).normal(mu, sd))


def test_scan_seed_prefix_isolates_runs():
    pump, bath, probe, det, delays = scan_args()
    a = scan_experiment(
        pump, bath, probe, det, delays, n_pulses=50, m_scans=1, seed=[9, 0],
        thermal_n=bath.n_bath,
    )
    b = scan_experiment(
        pump, bath, probe, det, delays, n_pulses=50, m_scans=1, seed=[9, 1],
        thermal_n=bath.n_bath,
    )
    assert not np.array_equal(a.dt_mean, b.dt_mean)
    again = scan_experiment(
        pump, bath, probe, det, delays, n_pulses=50, m_scans=1, seed=[9, 0],
        thermal_n=bath.n_bath,
    )
    assert np.array_equal(a.dt_mean, again.dt_mean)
    assert np.array_equal(a.per_scan_var, again.per_scan_var)


def test_scan_statistics_only_agrees_with_full_monte_carlo():
    """A scan's cells against np.mean and np.var(ddof=1) of whole bursts.

    The reference draws every (scan, delay) cell as one
    sample_pulse_ensemble burst of 3000 pulses on the scan's model trace
    and reference arm.
    """
    pump, bath, probe, det, delays = scan_args()
    n_pulses, m_scans = 3000, 8
    fast = scan_experiment(
        pump, bath, probe, det, delays, n_pulses=n_pulses, m_scans=m_scans, seed=2,
        thermal_n=bath.n_bath,
    )
    slow = np.empty((2, m_scans, delays.size))
    for s in range(m_scans):
        rng = row_generator(3, s)
        for d, (_, mean_ny, var_ny) in enumerate(fast.model_trace):
            volts = sample_pulse_ensemble(
                mean_ny, var_ny, det, n_pulses, rng, fast.ref_photons
            )
            slow[:, s, d] = np.mean(volts), np.var(volts, ddof=1)
    slow_mean, slow_var = slow.mean(axis=1)
    # Different draws, same distribution: compare scan-averaged moments
    # against each other within the combined error of two independent
    # estimates (sqrt(2) wider than either alone).
    mu_sd = np.sqrt(slow_var / (n_pulses * m_scans))
    assert np.all(np.abs(fast.dt_mean - slow_mean) < 8 * mu_sd)
    var_sd = slow_var * math.sqrt(2.0 / (n_pulses - 1)) / math.sqrt(m_scans)
    assert np.all(np.abs(fast.dt_var - slow_var) < 8 * var_sd)


def test_shot_noise_power_scan_is_linear():
    det = config_detector()
    powers = np.linspace(0.25, 2.5, 10)
    n_pulses = 4000
    rows = shot_noise_scan(powers, det, n_pulses=n_pulses, seed=1)
    fit = fit_line(rows[:, 0], rows[:, 1], n_pulses)
    assert fit.r_squared > 0.99
    assert fit.intercept == pytest.approx(det.electronic_var, abs=0.05)
    # Variance at full power lands near the calibration target.
    assert rows[-1, 1] == pytest.approx(1.0, rel=0.1)
    # A pinned reference arm keeps its photons at every power: its shot
    # noise moves into the intercept, and the slope halves.
    pinned = dataclasses.replace(det, ref_mean_photons=1.0e6)
    rows = shot_noise_scan(powers, pinned, n_pulses=n_pulses, seed=1)
    pinned_fit = fit_line(rows[:, 0], rows[:, 1], n_pulses)
    shot_v2 = det.gain_v_per_photon ** 2 * det.quantum_efficiency
    # Each power's variance is within 5 sampling sd of voltage_statistics'
    # exact one, written out: coherent light gives each arm eta photons of
    # shot variance. The ddof-1 variance of N Gaussian pulses has sd
    # var sqrt(2/(N-1)); at 10 powers a correct scan fails this about once
    # in 10^5 seeds.
    photons = powers * PHOTONS_PER_PULSE_PER_MW
    exact = det.electronic_var + shot_v2 * (photons + 1.0e6)
    sampling_sd = exact * math.sqrt(2.0 / (n_pulses - 1))
    assert np.all(np.abs(rows[:, 1] - exact) <= 5.0 * sampling_sd)
    assert pinned_fit.slope == pytest.approx(0.5 * fit.slope, rel=0.1)
    assert pinned_fit.intercept == pytest.approx(
        det.electronic_var + shot_v2 * 1.0e6, abs=0.05
    )


def test_fit_line_exact_on_noiseless_points():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = 0.7 * x + 0.25
    fit = fit_line(x, y, n_pulses=1000)
    assert fit.slope == pytest.approx(0.7, rel=1e-12)
    assert fit.intercept == pytest.approx(0.25, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_line([1.0, 2.0], [1.0, 2.0], n_pulses=1000)
    # A line through zero has no variance there to weight by.
    with pytest.raises(FitError, match=r"at x = 0\.0$"):
        fit_line(x, x - 0.5, n_pulses=1000)


def test_shot_noise_intercept_interval_covers_electronic_var():
    """Over 2000 seeded default shot-noise scans, the fitted intercept
    falls within its 95% interval of the electronic variance as often as
    a standard normal falls within 1.96."""
    cfg = load_config()
    sn = cfg.section("shot_noise")
    det = cfg.detector_spec()
    z = []
    for seed in range(1000, 3000):
        rows = shot_noise_scan(sn["powers_mw"], det, n_pulses=sn["n_pulses"], seed=seed)
        fit = fit_line(rows[:, 0], rows[:, 1], sn["n_pulses"])
        z.append(1.959963984540054 * (fit.intercept - det.electronic_var) / fit.intercept_ci95)
    assert_coverage(z)
