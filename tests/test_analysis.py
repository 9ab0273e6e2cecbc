"""Spectral extraction and the fluence-series squeezing fit."""

import dataclasses
import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import stats

import isrsim.analysis as analysis
from closed_forms import assert_coverage
from isrsim.analysis import (
    PRESENCE_CHI2,
    FitError,
    FluenceFitResult,
    detrend_and_fft,
    detrended_trace,
    extract_lifetimes,
    fit_fluence_series,
    fit_line,
    fit_lines,
    interpolate_peak,
    morlet_power,
    scan_lifetimes,
    scan_noise,
)
from isrsim.config import load_config
from isrsim.detector import scan_experiment
from isrsim.probe import ProbeSpec, amplitude_prefactor, predict_trace

F0 = 3.84


def tone_trace(n=512, dt=0.02, freqs=(F0,), amps=(1.0,), rates=(0.0,),
               phases=None, baseline=None, noise_sd=0.0, seed=0):
    taus = np.arange(n) * dt
    if phases is None:
        phases = [0.3] * len(freqs)
    values = np.zeros(n)
    for f, a, lam, ph in zip(freqs, amps, rates, phases):
        values += a * np.exp(-lam * taus) * np.cos(2 * np.pi * f * taus + ph)
    if baseline is not None:
        values += baseline(taus)
    if noise_sd > 0:
        values += np.random.default_rng(seed).normal(0.0, noise_sd, n)
    return np.column_stack([taus, values])


def test_fft_exact_on_integer_grid():
    # 16 samples per period, 10 periods: both tones sit on bins.
    dt = 1.0 / (F0 * 16)
    trace = tone_trace(n=160, dt=dt, freqs=(F0, 2 * F0), amps=(2.0, 0.5),
                       rates=(0.0, 0.0))
    spec = detrend_and_fft(trace, F0)
    assert spec.peak_omega == pytest.approx(2.0, rel=2e-3)
    assert spec.peak_2omega == pytest.approx(0.5, rel=2e-3)
    assert spec.peak_omega_freq == pytest.approx(F0, abs=0.05)


def test_fft_off_bin_scalloping_bounds():
    # Default grid: f0 falls 0.32 bins off center. The log-parabola
    # interpolation leaves ~14% scalloping loss for an undamped tone,
    # always on the low side; calibrated pipelines cancel it by pushing
    # a reference tone through the same extraction.
    trace = tone_trace(n=512, dt=0.02, amps=(3.0,))
    spec = detrend_and_fft(trace, F0)
    assert 0.75 * 3.0 < spec.peak_omega < 3.0
    assert spec.peak_omega_freq == pytest.approx(F0, abs=0.1)


def test_fft_parseval():
    trace = tone_trace(n=256, dt=0.02, freqs=(1.7, 4.1), amps=(1.0, 0.4),
                       rates=(0.1, 0.3))
    taus, values = trace[:, 0], trace[:, 1]
    spec = np.fft.rfft(values)
    time_energy = float(np.sum(values ** 2))
    weights = np.full(spec.size, 2.0)
    weights[0] = 1.0
    weights[-1] = 1.0  # even length: Nyquist bin unpaired
    freq_energy = float(np.sum(weights * np.abs(spec) ** 2)) / values.size
    assert freq_energy == pytest.approx(time_energy, rel=1e-6)


def test_detrend_removes_cubic_baseline():
    def cubic(t):
        return 4.0 - 2.0 * t + 0.7 * t ** 2 - 0.05 * t ** 3

    trace = tone_trace(amps=(0.8,), baseline=cubic)
    flat = detrended_trace(trace)
    # The polynomial projection is linear, so the cubic vanishes exactly
    # and the residual equals the detrended bare tone.
    bare = tone_trace(amps=(0.8,))
    flat_bare = detrended_trace(bare)
    assert np.max(np.abs(flat[:, 1] - flat_bare[:, 1])) < 1e-9
    # The fit absorbs a little of the tone near the record edges, but
    # the extracted amplitude is untouched relative to the bare tone.
    spec = detrend_and_fft(trace, F0)
    spec_bare = detrend_and_fft(bare, F0)
    assert spec.peak_omega == pytest.approx(spec_bare.peak_omega, rel=1e-9)


def test_trace_validation():
    with pytest.raises(ValueError, match="16"):
        detrend_and_fft(np.column_stack([np.arange(8) * 0.1, np.ones(8)]), F0)
    taus = np.arange(32) * 0.02
    bad = taus.copy()
    bad[10] = bad[9]  # not strictly increasing
    with pytest.raises(ValueError):
        detrend_and_fft(np.column_stack([bad, np.ones(32)]), F0)
    ragged = taus.copy()
    ragged[20:] += 0.013
    with pytest.raises(ValueError, match="uniform"):
        detrend_and_fft(np.column_stack([ragged, np.ones(32)]), F0)


def test_interpolate_peak_outside_spectrum():
    freqs = np.arange(16) * 0.5
    with pytest.raises(ValueError):
        interpolate_peak(freqs, np.ones(16), 40.0)


def test_morlet_constant_tone_amplitude():
    trace = tone_trace(n=512, dt=0.02, amps=(1.3,))
    row = morlet_power(trace, [F0])[0]
    mid = slice(128, 384)
    assert np.max(np.abs(row[mid] - 1.3 ** 2)) < 2e-3 * 1.3 ** 2


def test_lifetimes_two_tone_rates_and_ratio():
    lam = 0.5
    trace = tone_trace(
        freqs=(F0, 2 * F0),
        amps=(1.0, 0.2),
        rates=(lam / 2.0, lam),
        phases=(0.3, 1.2),
    )
    fit = extract_lifetimes(trace, F0)
    assert fit.fundamental.present and fit.second_harmonic.present
    assert fit.fundamental.rate == pytest.approx(lam / 2.0, rel=1e-2)
    assert fit.second_harmonic.rate == pytest.approx(lam, rel=1e-2)
    ratio = fit.second_harmonic.rate / fit.fundamental.rate
    assert ratio == pytest.approx(2.0, rel=1e-2)
    assert fit.fundamental.lifetime == pytest.approx(2.0 / lam, rel=1e-2)


def test_lifetimes_single_tone_reports_absent_second_harmonic():
    trace = tone_trace(amps=(1.0,), rates=(0.3,))
    fit = extract_lifetimes(trace, F0)
    assert fit.fundamental.present
    assert not fit.second_harmonic.present
    assert math.isnan(fit.second_harmonic.rate)


def test_lifetimes_undamped_tone_has_infinite_lifetime():
    trace = tone_trace(amps=(1.0,), rates=(0.0,))
    fit = extract_lifetimes(trace, F0)
    assert fit.fundamental.present
    assert math.isinf(fit.fundamental.lifetime)


def test_lifetimes_pure_noise_reports_absent():
    taus = np.arange(512) * 0.02
    values = np.random.default_rng(5).normal(0.0, 0.4, 512)
    fit = extract_lifetimes(np.column_stack([taus, values]), F0, noise_sd=0.4)
    assert not fit.fundamental.present
    assert not fit.second_harmonic.present


def test_lifetimes_tone_survives_noise_gate():
    trace = tone_trace(amps=(1.0,), rates=(0.12,), noise_sd=0.05, seed=3)
    fit = extract_lifetimes(trace, F0, noise_sd=0.05)
    assert fit.fundamental.present
    assert fit.fundamental.rate == pytest.approx(0.12, rel=0.15)


def test_lifetimes_of_noiseless_default_traces_are_exact():
    cfg = load_config()
    bath = cfg.bath_spec()
    trace = predict_trace(
        cfg.pump_spec(), bath, cfg.probe_spec(), cfg.initial_occupation(), cfg.scan_delays()
    )
    lam = bath.damping_rate
    mean = extract_lifetimes(trace[:, [0, 1]], F0)
    var = extract_lifetimes(trace[:, [0, 2]], F0)
    assert mean.fundamental.rate == pytest.approx(lam / 2.0, rel=1e-10)
    assert not mean.second_harmonic.present
    assert var.second_harmonic.rate == pytest.approx(lam, rel=1e-10)
    assert var.fundamental.rate == pytest.approx(lam / 2.0, rel=1e-10)
    # The scan analysis fits the variance at the mean's rate.
    shared = scan_lifetimes(trace, F0)
    ratio = shared.variance.second_harmonic.rate / shared.mean.fundamental.rate
    assert ratio == pytest.approx(2.0, rel=1e-10)


def test_absent_line_keeps_the_tied_rate():
    # The mean trace has no 2 Omega line: its rate stays tied to the
    # background's, finite, instead of wandering with the noise.
    taus = np.arange(512) * 0.02
    values = (
        3.0 + np.exp(-0.3 * taus)
        + np.exp(-0.15 * taus) * np.cos(2 * np.pi * F0 * taus + 0.4)
        + np.random.default_rng(2).normal(0.0, 0.05, taus.size)
    )
    fit = fit_lines(np.column_stack([taus, values]), F0, noise_sd=0.05)
    assert fit.omega.present and not fit.two_omega.present
    assert fit.two_omega.rate == 2.0 * fit.omega.rate
    assert abs(fit.omega.rate - 0.15) < 3.0 * math.sqrt(fit.omega.cov[0, 0])
    assert fit.chi2 == pytest.approx(fit.dof, abs=5.0 * math.sqrt(2.0 * fit.dof))


def _default_scan_lifetimes(seed, mu_squeeze=None):
    """What scan writes to lifetimes.json for a default scan at seed,
    with the pump's mu_squeeze replaced when one is given."""
    cfg = load_config()
    s = cfg.section("scan")
    pump = cfg.pump_spec()
    if mu_squeeze is not None:
        pump = dataclasses.replace(pump, mu_squeeze=mu_squeeze)
    res = scan_experiment(
        pump, cfg.bath_spec(), cfg.probe_spec(), cfg.detector_spec(), cfg.scan_delays(),
        n_pulses=s["n_pulses"], m_scans=s["m_scans"], seed=seed,
        thermal_n=cfg.initial_occupation(),
    )
    noise_mean, noise_var, _ = scan_noise(res.dt_var, s["n_pulses"], s["m_scans"])
    rows = np.column_stack([res.delays, res.dt_mean, res.dt_var])
    return scan_lifetimes(rows, F0, noise_mean, noise_var)


def test_rate_stderrs_cover_over_statistics_only_scans():
    """Over 100 seeded default scans, the mean's Omega rate, the
    variance's 2 Omega rate and lifetimes.json's rate ratio (model: 2)
    fall within their reported standard errors as standard normals
    would, and the variance's 2 Omega line is found present on at least
    97 of them."""
    lam = load_config().bath_spec().damping_rate
    z_mean, z_var, z_ratio, detected = [], [], [], 0
    for seed in range(100):
        fit = _default_scan_lifetimes(seed)
        mean, var = fit.mean.fundamental, fit.variance.second_harmonic
        z_mean.append((mean.rate - lam / 2.0) / mean.rate_stderr)
        z_var.append((var.rate - lam) / var.rate_stderr)
        detected += var.present
        if fit.rate_ratio is not None:
            z_ratio.append((fit.rate_ratio - 2.0) / fit.rate_ratio_stderr)
    assert_coverage(z_mean)
    assert_coverage(z_var)
    assert_coverage(z_ratio)
    assert detected >= 97


def test_fit_does_not_depend_on_the_step_cap(monkeypatch):
    capped = _default_scan_lifetimes(1272987056).variance
    monkeypatch.setattr(analysis, "_MAX_STEPS", 10_000)
    uncapped = _default_scan_lifetimes(1272987056).variance
    for a, b in (
        (capped.fundamental, uncapped.fundamental),
        (capped.second_harmonic, uncapped.second_harmonic),
    ):
        assert abs(a.rate - b.rate) <= 1e-2 * a.rate_stderr


@functools.cache
def _unsqueezed_two_omega_lines() -> tuple:
    """The variance's 2 Omega line over 200 seeded default scans with
    squeezing off, fitted once for the tests that read them."""
    return tuple(
        _default_scan_lifetimes(seed, mu_squeeze=0.0).variance.second_harmonic
        for seed in range(200)
    )


def test_two_omega_false_alarms_over_unsqueezed_scans():
    """Over 200 seeded default scans with squeezing off, the variance's
    2 Omega line is present on at most 2: the 99% upper point of
    Binomial(200, p = 1e-3), the presence test's false-alarm rate."""
    alarms = sum(line.present for line in _unsqueezed_two_omega_lines())
    assert stats.binom.ppf(0.99, 200, 1e-3) == 2
    assert alarms <= 2


def test_null_presence_chi2_is_chi2_with_two_dof():
    """With squeezing off, the 2 Omega line's presence chi-square is
    chi-square with 2 dof: over 200 scans its mean lies within 3
    standard errors (2 / sqrt(200)) of 2."""
    chi2 = np.array([line.chi2 for line in _unsqueezed_two_omega_lines()])
    assert abs(chi2.mean() - 2.0) <= 3.0 * 2.0 / math.sqrt(chi2.size)


def test_presence_is_the_whitened_amplitude_against_the_threshold():
    trace = tone_trace(amps=(1.0, 0.2), freqs=(F0, 2 * F0), rates=(0.2, 0.4),
                       noise_sd=0.05, seed=4)
    line = fit_lines(trace, F0, noise_sd=0.05).two_omega
    a, cov = line.amplitude, line.cov[1:, 1:]
    assert line.chi2 == pytest.approx(float(a @ np.linalg.inv(cov) @ a), rel=1e-10)
    assert line.present and line.chi2 > PRESENCE_CHI2
    absent = extract_lifetimes(tone_trace(amps=(1.0,), rates=(0.3,)), F0)
    assert not absent.second_harmonic.present
    assert math.isfinite(absent.second_harmonic.chi2)
    assert absent.second_harmonic.chi2 <= PRESENCE_CHI2


def test_fit_line_slope_stderr():
    """The fit is weighted least squares with W = diag(1/sd^2), sd the
    burst variance sd at the unweighted line, and the covariance
    (X^T W X)^-1, not rescaled by the residuals."""
    x = np.arange(8.0)
    wiggle = np.array([0.1, -0.2, 0.05, 0.15, -0.1, 0.0, -0.05, 0.05])
    y = 0.7 * x + 0.25 + wiggle
    n_pulses = 1000
    fit = fit_line(x, y, n_pulses)
    design = np.column_stack([x, np.ones_like(x)])
    line = design @ np.linalg.solve(design.T @ design, design.T @ y)
    weight = np.diag(1.0 / (line * math.sqrt(2.0 / (n_pulses - 1))) ** 2)
    cov = np.linalg.inv(design.T @ weight @ design)
    coef = cov @ design.T @ weight @ y
    assert fit.slope == pytest.approx(coef[0], rel=1e-12)
    assert fit.intercept == pytest.approx(coef[1], rel=1e-12)
    assert fit.slope_stderr == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-12)
    assert fit.intercept_stderr == pytest.approx(math.sqrt(cov[1, 1]), rel=1e-12)
    assert fit.intercept_ci95 == pytest.approx(
        stats.norm.ppf(0.975) * math.sqrt(cov[1, 1]), rel=1e-15
    )


def test_assert_coverage_at_2000_trials():
    z = np.random.default_rng(3).standard_normal(2000)
    assert_coverage(z)
    with pytest.raises(AssertionError):
        assert_coverage(0.6 * z)


def test_amplitude_prefactor_consistency():
    probe = ProbeSpec(0.12, 0.0, 1.0e4)
    # Thermal occupation 1.2, damping rate 0.3, delay 0.8.
    pref = amplitude_prefactor(probe, 1.2) * math.exp(-0.3 * 0.8)
    # Frozen product: pref * sinh(2 * 0.32) matches the second-harmonic
    # amplitude of the matching pump (r = 0.32) at delay 0.8.
    assert pref * math.sinh(0.64) == pytest.approx(129.318139579332, rel=1e-12)


def fluence_setup():
    probe = ProbeSpec(0.05, 0.0, 1.0e6)
    return probe, 0.15


def test_fluence_fit_recovers_exact_coupling():
    probe, conversion = fluence_setup()
    mu_s = 0.24
    slope = 2.0 * conversion
    fluences = np.linspace(2.0, 12.0, 6)
    pref = amplitude_prefactor(probe, 1.1787)
    amps = pref * np.sinh(2.0 * slope * mu_s * fluences)
    pts = np.column_stack([fluences, amps, np.full(6, 1e-3)])
    fit = fit_fluence_series(pts, probe, conversion, 1.0, 1.1787)
    assert fit.mu_s_hat == pytest.approx(mu_s, rel=1e-13)
    assert fit.fit_residual < 1e-12
    assert fit.r_per_fluence[-1, 1] == pytest.approx(
        slope * mu_s * 12.0, rel=1e-13
    )
    # Quadrature pairs multiply to the thermal-limited bound.
    prod = fit.quad_uncertainties[:, 1] * fit.quad_uncertainties[:, 2]
    assert np.allclose(prod, (1.1787 + 0.5) ** 2, rtol=1e-12)


def test_fluence_fit_zero_amplitudes():
    probe, conversion = fluence_setup()
    fluences = np.array([2.0, 5.0, 8.0])
    pts = np.column_stack([fluences, np.zeros(3), np.full(3, 1e-3)])
    fit = fit_fluence_series(pts, probe, conversion, 1.0, 1.1787)
    assert fit.mu_s_hat == 0.0
    assert np.all(fit.r_per_fluence[:, 1] == 0.0)
    # All quadrature variances collapse to the thermal value.
    assert np.allclose(fit.quad_uncertainties[:, 1], 1.1787 + 0.5)


def test_fluence_fit_validation():
    probe, conversion = fluence_setup()
    with pytest.raises(FitError, match="3 fluence"):
        fit_fluence_series(
            np.array([[1.0, 0.1, 1e-3], [2.0, 0.2, 1e-3]]),
            probe, conversion, 1.0, 1.1787,
        )
    with pytest.raises(ValueError):
        fit_fluence_series(
            np.array([[1.0, 0.1], [2.0, 0.2], [3.0, 0.3]]),
            probe, conversion, 1.0, 1.1787,
        )
    with pytest.raises(ValueError, match="sigma"):
        fit_fluence_series(
            np.array([[1.0, 0.1, 0.0], [2.0, 0.2, 1e-3], [3.0, 0.3, 1e-3]]),
            probe, conversion, 1.0, 1.1787,
        )
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="fluence points must be finite"):
            fit_fluence_series(
                np.array([[1.0, 0.1, 1e-3], [2.0, bad, 1e-3], [3.0, 0.3, 1e-3]]),
                probe, conversion, 1.0, 1.1787,
            )


def noisy_series(fluences, probe, conversion, thermal_n, mu_s, seed):
    """(fluence, amplitude, sigma) rows: the model at mu_s plus 5% noise."""
    pref = amplitude_prefactor(probe, thermal_n)
    amps = pref * np.sinh(4.0 * conversion * mu_s * np.asarray(fluences))
    sigma = 0.05 * amps
    noise = np.random.default_rng(seed).standard_normal(amps.size)
    return np.column_stack([fluences, amps + sigma * noise, sigma])


def mpmath_root(pts, probe, conversion, thermal_n, start):
    """Root of the fit's normal equation sum r dr/dmu, at 40 digits."""
    with mpmath.workdps(40):
        pref = mpmath.mpf(amplitude_prefactor(probe, thermal_n))
        rows = [[mpmath.mpf(v) for v in row] for row in pts]

        def g(mu):
            total = mpmath.mpf(0)
            for fluence, amp, sigma in rows:
                k = 4 * mpmath.mpf(conversion) * fluence
                r = (pref * mpmath.sinh(k * mu) - amp) / sigma
                total += r * pref * k * mpmath.cosh(k * mu) / sigma
            return total

        return float(mpmath.findroot(g, mpmath.mpf(start)))


def default_grid_setup():
    cfg = load_config()
    return (
        cfg.section("fluence_series")["fluences"],
        cfg.fluence_probe_spec(),
        cfg.section("fluence_series")["conversion"],
        cfg.initial_occupation(),
        cfg.section("pump")["mu_squeeze"],
    )


@pytest.mark.parametrize("grid", ["noisy-6-point", "low-top-point", "default"])
def test_fluence_fit_reaches_the_normal_equation_root(grid, monkeypatch):
    if grid == "default":
        fluences, probe, conversion, n, mu_s = default_grid_setup()
    else:
        (probe, conversion), n, mu_s = fluence_setup(), 1.1787, 0.24
        fluences = np.linspace(2.0, 12.0, 6)
    pts = noisy_series(fluences, probe, conversion, n, mu_s, seed=3)
    if grid == "low-top-point":
        # The top point's asinh guess then lies below the root.
        pts[-1, 1] *= 0.8
    sinh_calls = []
    sinh = np.sinh
    monkeypatch.setattr(np, "sinh", lambda x: sinh_calls.append(1) or sinh(x))
    fit = fit_fluence_series(pts, probe, conversion, 1.0, n)
    monkeypatch.undo()
    root = mpmath_root(pts, probe, conversion, n, start=mu_s)
    assert fit.mu_s_hat == pytest.approx(root, rel=1e-14)
    assert fit.mu_s_hat == pytest.approx(mu_s, rel=0.2)
    # Newton steps, not bisection, close the bracket.
    assert len(sinh_calls) <= 12


def test_fluence_fit_bound_active_returns_zero():
    probe, conversion = fluence_setup()
    # Amplitudes below zero: the cost rises from mu_s = 0.
    amps = np.array([-0.2, -0.1, 0.05])
    sigma = np.full(3, 1e-2)
    pts = np.column_stack([[2.0, 5.0, 8.0], amps, sigma])
    fit = fit_fluence_series(pts, probe, conversion, 1.0, 1.1787)
    assert fit.mu_s_hat == 0.0
    assert np.all(fit.r_per_fluence[:, 1] == 0.0)
    assert fit.fit_residual == pytest.approx(0.5 * np.sum((amps / sigma) ** 2), rel=1e-15)


def test_fluence_fit_without_upper_bracket_raises_without_warning():
    probe, conversion = fluence_setup()
    pref = amplitude_prefactor(probe, 1.1787)
    # The optimum lies beyond the largest sinh a float can hold.
    pts = np.column_stack([[2.0, 5.0, 8.0], np.full(3, 1e300 * pref), np.full(3, 1e-3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitError, match="overflows"):
            fit_fluence_series(pts, probe, conversion, 1.0, 1.1787)


def test_fluence_result_invariants():
    with pytest.raises(ValueError, match="non-decreasing"):
        FluenceFitResult(
            mu_s_hat=1e-3,
            r_per_fluence=np.array([[1.0, 0.3], [2.0, 0.2]]),
            quad_uncertainties=np.array([[1.0, 0.5, 0.6], [2.0, 0.5, 0.6]]),
            fit_residual=0.0,
        )
    with pytest.raises(ValueError, match="quantum bound"):
        FluenceFitResult(
            mu_s_hat=1e-3,
            r_per_fluence=np.array([[1.0, 0.1], [2.0, 0.2]]),
            quad_uncertainties=np.array([[1.0, 0.4, 0.5], [2.0, 0.4, 0.5]]),
            fit_residual=0.0,
        )
