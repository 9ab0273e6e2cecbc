"""Spectral extraction and the fluence-series squeezing fit."""

import math

import numpy as np
import pytest

from isrsim.analysis import (
    FitError,
    FluenceFitResult,
    detrend_and_fft,
    detrended_trace,
    extract_lifetimes,
    fit_fluence_series,
    fit_line,
    interpolate_peak,
    morlet_noise_power,
    morlet_power,
    peak_contrast,
)
from isrsim.probe import ProbeSpec, amplitude_prefactor

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


def test_morlet_two_tone_rates_and_ratio():
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
    assert fit.ratio() == pytest.approx(2.0, rel=1e-2)
    assert fit.fundamental.lifetime == pytest.approx(2.0 / lam, rel=1e-2)


def test_morlet_single_tone_reports_absent_second_harmonic():
    trace = tone_trace(amps=(1.0,), rates=(0.3,))
    fit = extract_lifetimes(trace, F0)
    assert fit.fundamental.present
    assert not fit.second_harmonic.present
    assert math.isnan(fit.second_harmonic.rate)


def test_morlet_undamped_tone_has_infinite_lifetime():
    trace = tone_trace(amps=(1.0,), rates=(0.0,))
    fit = extract_lifetimes(trace, F0)
    assert fit.fundamental.present
    assert math.isinf(fit.fundamental.lifetime)


def test_morlet_pure_noise_reports_absent():
    taus = np.arange(512) * 0.02
    values = np.random.default_rng(5).normal(0.0, 0.4, 512)
    fit = extract_lifetimes(np.column_stack([taus, values]), F0, noise_sd=0.4)
    assert not fit.fundamental.present
    assert not fit.second_harmonic.present


def test_morlet_tone_survives_noise_gate():
    trace = tone_trace(amps=(1.0,), rates=(0.12,), noise_sd=0.05, seed=3)
    fit = extract_lifetimes(trace, F0, noise_sd=0.05)
    assert fit.fundamental.present
    assert fit.fundamental.rate == pytest.approx(0.12, rel=0.15)


def test_morlet_noise_power_formula():
    # Monte-Carlo check of the white-noise row power.
    sd, dt, n = 0.3, 0.02, 4096
    taus = np.arange(n) * dt
    rng = np.random.default_rng(11)
    acc = []
    for _ in range(8):
        values = rng.normal(0.0, sd, n)
        row = morlet_power(np.column_stack([taus, values]), [F0])[0]
        acc.append(np.mean(row[200:-200]))
    predicted = morlet_noise_power(sd, dt, F0)
    assert np.mean(acc) == pytest.approx(predicted, rel=0.15)


def test_peak_contrast_distinguishes_line_from_wing():
    # Narrow line on bin: huge contrast. Smooth damped wing: near unity.
    dt = 1.0 / (F0 * 16)
    line = tone_trace(n=320, dt=dt, amps=(1.0,), rates=(0.0,))
    spec = detrend_and_fft(line, F0)
    assert peak_contrast(spec.freqs, spec.power, F0) > 50.0

    wing = tone_trace(n=320, dt=dt, amps=(1.0,), rates=(1.5,))
    wspec = detrend_and_fft(wing, F0)
    # At the second harmonic there is only the fundamental's smooth tail.
    assert peak_contrast(wspec.freqs, wspec.power, 2 * F0) < 3.0


def test_fit_line_slope_stderr():
    x = np.arange(8.0)
    wiggle = np.array([0.1, -0.2, 0.05, 0.15, -0.1, 0.0, -0.05, 0.05])
    y = 0.7 * x + 0.25 + wiggle
    fit = fit_line(x, y)
    design = np.column_stack([x, np.ones_like(x)])
    resid = y - design @ np.array([fit.slope, fit.intercept])
    s2 = float(resid @ resid) / (x.size - 2)
    cov = s2 * np.linalg.inv(design.T @ design)
    assert fit.slope_stderr == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-12)
    # Textbook form of the same quantity.
    expected = math.sqrt(s2 / float(np.sum((x - x.mean()) ** 2)))
    assert fit.slope_stderr == pytest.approx(expected, rel=1e-12)
    assert fit_line(x, 0.7 * x + 0.25).slope_stderr == pytest.approx(0.0, abs=1e-12)


def test_amplitude_prefactor_consistency():
    probe = ProbeSpec(0.12, 0.0, 1.0e4)
    # Thermal occupation 1.2, damping rate 0.3, delay 0.8.
    pref = amplitude_prefactor(probe, 1.2) * math.exp(-0.3 * 0.8)
    # Frozen product: pref * sinh(2 * 0.32) matches the second-harmonic
    # amplitude of the matching pump (r = 0.32) at delay 0.8.
    assert pref * math.sinh(0.64) == pytest.approx(129.318139579332, rel=1e-12)


def fluence_setup():
    probe = ProbeSpec(0.05, 0.0, 1.0e6)
    k_modes, conversion = 100, 0.15
    return probe, k_modes, conversion


def test_fluence_fit_recovers_exact_coupling():
    probe, k_modes, conversion = fluence_setup()
    mu_s = 2.4e-3
    slope = 2.0 * k_modes * conversion
    fluences = np.linspace(2.0, 12.0, 6)
    pref = amplitude_prefactor(probe, 1.1787)
    amps = pref * np.sinh(2.0 * slope * mu_s * fluences)
    pts = np.column_stack([fluences, amps, np.full(6, 1e-3)])
    fit = fit_fluence_series(pts, probe, k_modes, conversion, 1.0, 1.1787)
    assert fit.mu_s_hat == pytest.approx(mu_s, rel=1e-9)
    assert fit.fit_residual < 1e-12
    assert fit.r_per_fluence[-1, 1] == pytest.approx(
        slope * mu_s * 12.0, rel=1e-9
    )
    # Quadrature pairs multiply to the thermal-limited bound.
    prod = fit.quad_uncertainties[:, 1] * fit.quad_uncertainties[:, 2]
    assert np.allclose(prod, (1.1787 + 0.5) ** 2, rtol=1e-12)


def test_fluence_fit_zero_amplitudes():
    probe, k_modes, conversion = fluence_setup()
    fluences = np.array([2.0, 5.0, 8.0])
    pts = np.column_stack([fluences, np.zeros(3), np.full(3, 1e-3)])
    fit = fit_fluence_series(pts, probe, k_modes, conversion, 1.0, 1.1787)
    assert fit.mu_s_hat == 0.0
    assert np.all(fit.r_per_fluence[:, 1] == 0.0)
    # All quadrature variances collapse to the thermal value.
    assert np.allclose(fit.quad_uncertainties[:, 1], 1.1787 + 0.5)


def test_fluence_fit_validation():
    probe, k_modes, conversion = fluence_setup()
    with pytest.raises(FitError, match="3 fluence"):
        fit_fluence_series(
            np.array([[1.0, 0.1, 1e-3], [2.0, 0.2, 1e-3]]),
            probe, k_modes, conversion, 1.0, 1.1787,
        )
    with pytest.raises(ValueError):
        fit_fluence_series(
            np.array([[1.0, 0.1], [2.0, 0.2], [3.0, 0.3]]),
            probe, k_modes, conversion, 1.0, 1.1787,
        )
    with pytest.raises(ValueError, match="sigma"):
        fit_fluence_series(
            np.array([[1.0, 0.1, 0.0], [2.0, 0.2, 1e-3], [3.0, 0.3, 1e-3]]),
            probe, k_modes, conversion, 1.0, 1.1787,
        )


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
