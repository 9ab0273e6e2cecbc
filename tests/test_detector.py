"""Differential acquisition chain: statistics, seeding, and the power scan."""

import math

import numpy as np
import pytest

from isrsim import (
    BathSpec,
    DetectorSpec,
    ProbeSpec,
    PumpSpec,
    calibrated_gain,
    default_detector,
    fit_line,
    predict_trace,
    probe_mean,
    sample_pulse_ensemble,
    sample_scan_statistics,
    scan_experiment,
    shot_noise_scan,
    thermal_state,
    voltage_statistics,
    without_electronic_noise,
)

OMEGA = 2.0 * math.pi * 3.84


def quiet_detector(electronic_var=0.0):
    return DetectorSpec(
        quantum_efficiency=0.9,
        gain_v_per_photon=2e-4,
        electronic_var=electronic_var,
    )


def test_calibrated_gain_value():
    g = calibrated_gain(1.0e6, 0.94, 0.9)
    assert g == pytest.approx(math.sqrt(0.9 / (2 * 0.94 * 1.0e6)), rel=1e-12)
    det = default_detector()
    # 2.5 mW -> 1e6 photons -> 0.9 photonic + 0.1 electronic = 1 V^2.
    _, var = voltage_statistics(1.0e6, 1.0e6, det)
    assert var == pytest.approx(1.0, rel=1e-12)


def test_voltage_statistics_closed_form():
    det = DetectorSpec(0.8, 3e-4, 0.05, ref_mean_photons=9e5, unbalance_v=0.02)
    mean_ny, var_ny = 1.0e6, 1.4e6
    mu, var = voltage_statistics(mean_ny, var_ny, det)
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
    a = sample_pulse_ensemble(1e6, 1.2e6, det, n_pulses=500, seed=7)
    b = sample_pulse_ensemble(1e6, 1.2e6, det, n_pulses=500, seed=7)
    c = sample_pulse_ensemble(1e6, 1.2e6, det, n_pulses=500, seed=8)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_pulse_ensemble_unbiased():
    det = quiet_detector(0.04)
    mu, var = voltage_statistics(1e6, 1.3e6, det)
    ens = sample_pulse_ensemble(1e6, 1.3e6, det, n_pulses=200_000, seed=11)
    # Expected spread of the estimates themselves.
    assert ens.mean() == pytest.approx(mu, abs=5 * math.sqrt(var / 2e5))
    assert ens.variance() == pytest.approx(var, rel=0.02)


def test_electronic_noise_is_additive_and_stream_isolated():
    """Toggling the electronic term must not touch the photon draws."""
    base = quiet_detector(0.0)
    noisy = quiet_detector(0.05)
    a = sample_pulse_ensemble(1e6, 1e6, base, n_pulses=50_000, seed=3)
    b = sample_pulse_ensemble(1e6, 1e6, noisy, n_pulses=50_000, seed=3)
    added = b.samples - a.samples
    # The residual is exactly the electronic stream: zero-mean, variance
    # 0.05, and uncorrelated with the photon part.
    assert np.mean(added) == pytest.approx(0.0, abs=5 * math.sqrt(0.05 / 5e4))
    assert np.var(added, ddof=1) == pytest.approx(0.05, rel=0.05)
    corr = np.corrcoef(added, a.samples)[0, 1]
    assert abs(corr) < 0.02
    assert without_electronic_noise(noisy) == base


def test_statistics_only_matches_full_sampling_distribution():
    det = quiet_detector(0.02)
    mu, var = voltage_statistics(5e5, 6e5, det)
    n = 2000
    means, variances = [], []
    for i in range(300):
        mh, vh = sample_scan_statistics(5e5, 6e5, det, n, seed=1000 + i)
        means.append(mh)
        variances.append(vh)
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
        sample_pulse_ensemble(1e6, 1e6, quiet_detector(), n_pulses=1)
    with pytest.raises(ValueError):
        sample_pulse_ensemble(1e6, -1.0, quiet_detector())
    drifty = DetectorSpec(0.9, 1e-4, 0.0, drift_rms_v=1e-4)
    with pytest.raises(ValueError):
        sample_scan_statistics(1e6, 1e6, drifty, 100, seed=0)


def scan_args():
    pump = PumpSpec(0.5, 0.002, 100, math.sqrt(2.0))
    bath = BathSpec(OMEGA, 2.0 / 7.0, 1.1787)
    probe = ProbeSpec(0.05, 0.0, 1.0e6, 0.0)
    det = default_detector()
    delays = np.arange(32) * 0.02
    return pump, bath, probe, det, delays


def test_scan_split_by_rows_is_bit_identical():
    """Rows are independent streams: fewer rows, or rows on threads, change no row."""
    pump, bath, probe, det, delays = scan_args()
    for statistics_only in (False, True):
        kwargs = dict(n_pulses=50, seed=5, statistics_only=statistics_only)
        whole = scan_experiment(pump, bath, probe, det, delays, m_scans=4, **kwargs)
        head = scan_experiment(pump, bath, probe, det, delays, m_scans=2, **kwargs)
        assert np.array_equal(whole.per_scan_mean[:2], head.per_scan_mean)
        assert np.array_equal(whole.per_scan_var[:2], head.per_scan_var)
        threaded = scan_experiment(
            pump, bath, probe, det, delays, m_scans=4, threads=3, **kwargs
        )
        assert np.array_equal(whole.per_scan_mean, threaded.per_scan_mean)
        assert np.array_equal(whole.per_scan_var, threaded.per_scan_var)
        assert np.array_equal(whole.dt_mean, threaded.dt_mean)
        assert np.array_equal(whole.dt_var, threaded.dt_var)


def test_statistics_only_row_stream_layout():
    """Row s is one normal and one chisquare call on SeedSequence(prefix + [s])'s photon stream."""
    pump, bath, probe, det, delays = scan_args()
    n, n_pulses = bath.n_bath, 300
    res = scan_experiment(
        pump, bath, probe, det, delays, n_pulses=n_pulses, m_scans=3,
        seed=[9, 2], statistics_only=True,
    )
    trace = predict_trace(pump, bath, probe, n, delays)
    mu, var = voltage_statistics(
        trace[:, 1], trace[:, 2], det, probe_mean(thermal_state(n), probe)
    )
    for s in range(3):
        photon = np.random.default_rng(np.random.SeedSequence([9, 2, s]).spawn(2)[0])
        expected_mean = photon.normal(mu, np.sqrt(var / n_pulses))
        expected_var = var * photon.chisquare(n_pulses - 1, size=delays.size) / (
            n_pulses - 1
        )
        assert np.array_equal(res.per_scan_mean[s], expected_mean)
        assert np.array_equal(res.per_scan_var[s], expected_var)


def test_scan_seed_prefix_isolates_runs():
    pump, bath, probe, det, delays = scan_args()
    a = scan_experiment(
        pump, bath, probe, det, delays, n_pulses=50, m_scans=1, seed=[9, 0]
    )
    b = scan_experiment(
        pump, bath, probe, det, delays, n_pulses=50, m_scans=1, seed=[9, 1]
    )
    assert not np.array_equal(a.dt_mean, b.dt_mean)
    again = scan_experiment(
        pump, bath, probe, det, delays, n_pulses=50, m_scans=1, seed=[9, 0]
    )
    assert np.array_equal(a.dt_mean, again.dt_mean)
    assert np.array_equal(a.per_scan_var, again.per_scan_var)


def test_scan_statistics_only_agrees_with_full_monte_carlo():
    pump, bath, probe, det, delays = scan_args()
    fast = scan_experiment(
        pump,
        bath,
        probe,
        det,
        delays,
        n_pulses=3000,
        m_scans=8,
        seed=2,
        statistics_only=True,
    )
    slow = scan_experiment(
        pump, bath, probe, det, delays, n_pulses=3000, m_scans=8, seed=2
    )
    # Different draws, same distribution: compare scan-averaged moments
    # against each other within the combined error of two independent
    # estimates (sqrt(2) wider than either alone).
    mu_sd = np.sqrt(slow.dt_var / (3000 * 8))
    assert np.all(np.abs(fast.dt_mean - slow.dt_mean) < 8 * mu_sd)
    var_sd = slow.dt_var * math.sqrt(2.0 / (3000 - 1)) / math.sqrt(8)
    assert np.all(np.abs(fast.dt_var - slow.dt_var) < 8 * var_sd)


def test_shot_noise_power_scan_is_linear():
    det = default_detector()
    powers = np.linspace(0.25, 2.5, 10)
    rows = shot_noise_scan(powers, det, n_pulses=4000, seed=1)
    fit = fit_line(rows[:, 0], rows[:, 1])
    assert fit.r_squared > 0.99
    assert fit.intercept == pytest.approx(det.electronic_var, abs=0.05)
    # Variance at full power lands near the calibration target.
    assert rows[-1, 1] == pytest.approx(1.0, rel=0.1)


def test_fit_line_exact_on_noiseless_points():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = 0.7 * x + 0.25
    fit = fit_line(x, y)
    assert fit.slope == pytest.approx(0.7, rel=1e-12)
    assert fit.intercept == pytest.approx(0.25, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept_ci95 == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        fit_line([1.0, 2.0], [1.0, 2.0])
