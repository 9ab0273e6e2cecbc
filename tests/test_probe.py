"""Probe read-out moments, amplitude formulas, and the noiseless trace."""

import cmath
import math

import numpy as np
import pytest

from closed_forms import amplitude_2omega, amplitude_omega
from isrsim.analysis import detrend_and_fft
from isrsim.config import load_config
from isrsim.fock import apply_pump_exact, build_thermal_fock, probe_exact
from isrsim.probe import (
    ObservablePair,
    ProbeSpec,
    predict_trace,
    probe_mean,
    probe_variance,
)
from isrsim.states import (
    BathSpec,
    GaussianPhononState,
    PhysicalityError,
    PumpSpec,
    apply_pump,
    evolve,
    pump_coefficients,
    thermal_state,
)

OMEGA = 2.0 * math.pi * 3.84


def make_probe(theta=0.2, iy=50.0, dth=0.0):
    return ProbeSpec(theta, dth, iy)


def test_vacuum_phonon_keeps_poisson_statistics():
    """A coherent probe mixed with the vacuum port stays coherent."""
    probe = make_probe(theta=0.37, iy=420.0, dth=0.8)
    st = thermal_state(0.0)
    mean = probe_mean(st, probe)
    var = probe_variance(st, probe)
    expected = 420.0 * math.cos(0.37) ** 2
    assert mean == pytest.approx(expected, rel=1e-13)
    assert var == pytest.approx(expected, rel=1e-13)


def test_thermal_phonon_closed_form():
    n = 1.3
    probe = make_probe(theta=0.25, iy=90.0)
    s, c = math.sin(0.25), math.cos(0.25)
    st = thermal_state(n)
    assert probe_mean(st, probe) == pytest.approx(
        90.0 * c * c + s * s * n, rel=1e-13
    )
    expected_var = (
        90.0 * c ** 4
        + s ** 4 * n * (n + 1.0)
        + s * s * c * c * n
        + 90.0 * s * s * c * c * (2.0 * n + 1.0)
    )
    assert probe_variance(st, probe) == pytest.approx(expected_var, rel=1e-13)


def test_mean_beat_phase():
    # Cross term: sqrt(iy) sin(2 theta) |m| sin(phase_diff + arg m).
    iy, th, dth = 30.0, 0.3, 0.4
    probe = make_probe(theta=th, iy=iy, dth=dth)
    for phi in (0.0, 1.1, -2.4):
        m = cmath.rect(0.6, phi)
        st = GaussianPhononState(m, abs(m) ** 2 + 0.5, m * m)
        base = iy * math.cos(th) ** 2 + math.sin(th) ** 2 * st.occupation
        beat = math.sqrt(iy) * math.sin(2 * th) * 0.6 * math.sin(dth + phi)
        assert probe_mean(st, probe) - base == pytest.approx(beat, abs=1e-12)


def test_full_swap_returns_phonon_number_variance():
    # theta = pi/2 routes the phonon mode straight to the detector.
    probe = ProbeSpec(math.pi / 2, 0.0, 25.0)
    m = 120.0 * cmath.exp(0.3j)
    st = GaussianPhononState(m, abs(m) ** 2, m * m)
    assert probe_mean(st, probe) == pytest.approx(abs(m) ** 2, rel=1e-12)
    # Displaced vacuum: Var(n) = |m|^2 exactly, even at large amplitude.
    assert probe_variance(st, probe) == pytest.approx(abs(m) ** 2, rel=1e-12)


def test_variance_stable_at_large_displacement():
    """No catastrophic cancellation for production-scale amplitudes."""
    probe = make_probe(theta=0.05, iy=1.0e6, dth=0.2)
    m = 118.0 * cmath.exp(-1.2j)
    st = GaussianPhononState(m, abs(m) ** 2 + 3.0, m * m + 2.5j)
    v0 = probe_variance(st, probe)
    assert v0 > 0
    m2 = m * (1.0 + 1e-9)
    st2 = GaussianPhononState(m2, abs(m2) ** 2 + 3.0, m2 * m2 + 2.5j)
    assert probe_variance(st2, probe) == pytest.approx(v0, rel=1e-6)


def test_matches_exact_fock_readout():
    probe = make_probe(theta=0.3, iy=8.0, dth=0.5)
    st = apply_pump(thermal_state(0.5), 0.3 - 0.1j, 0.08j)
    rho = apply_pump_exact(build_thermal_fock(0.5, 40), 0.3 - 0.1j, 0.08j)
    pair = probe_exact(rho, probe)
    assert probe_mean(st, probe) == pytest.approx(pair.mean_ny, rel=1e-6)
    assert probe_variance(st, probe) == pytest.approx(pair.var_ny, rel=1e-6)


def test_observables_pair_and_guards():
    pair = ObservablePair(1.0, 0.5)
    assert (pair.mean_ny, pair.var_ny) == (1.0, 0.5)
    with pytest.raises(ValueError):
        ObservablePair(-1.0, 0.5)
    with pytest.raises(ValueError):
        ObservablePair(1.0, -0.5)


def test_probe_spec_validation():
    with pytest.raises(ValueError):
        ProbeSpec(-0.1, 0.0, 10.0)
    with pytest.raises(ValueError):
        ProbeSpec(0.1, 0.0, -10.0)
    with pytest.warns(UserWarning):
        ProbeSpec(1.8, 0.0, 10.0)


def test_amplitude_2omega_frozen_and_squeeze_gate():
    pump = PumpSpec(32.0, 0.08, math.sqrt(2.0))
    bath = BathSpec(OMEGA, 0.3, 1.2)
    probe = ProbeSpec(0.12, 0.0, 1.0e4)
    assert amplitude_2omega(0.8, pump, bath, probe) == pytest.approx(
        129.318139579332, rel=1e-12
    )
    silent = PumpSpec(32.0, 0.0, math.sqrt(2.0))
    assert amplitude_2omega(0.8, silent, bath, probe) == 0.0


def test_amplitude_2omega_decay_rate():
    pump = PumpSpec(50.0, 0.2, math.sqrt(2.0))
    bath = BathSpec(OMEGA, 0.4, 1.0)
    probe = ProbeSpec(0.05, 0.0, 1.0e6)
    a0 = amplitude_2omega(0.0, pump, bath, probe)
    a1 = amplitude_2omega(1.5, pump, bath, probe)
    assert a1 / a0 == pytest.approx(math.exp(-0.4 * 1.5), rel=1e-12)


def test_amplitude_formulas_match_spectrum_on_exact_grid():
    """Undamped trace on an integer-period grid: FFT peaks carry 2|A|."""
    n = 1.1787
    pump = PumpSpec(50.0, 0.2, math.sqrt(2.0))
    bath = BathSpec(OMEGA, 0.0, n)
    probe = ProbeSpec(0.05, 0.0, 1.0e6)
    dt = 1.0 / (3.84 * 16.0)
    delays = np.arange(256) * dt
    trace = predict_trace(pump, bath, probe, n, delays)

    c1, c2 = pump_coefficients(pump)
    z = apply_pump(thermal_state(n), c1, c2).mean_b
    a1 = amplitude_omega(0.0, z, pump, bath, probe, n)
    a2 = amplitude_2omega(0.0, pump, bath, probe)

    # Raw bins on the exact grid pin the closed forms to round-off.
    values = trace[:, 2]
    raw = 2.0 * np.abs(np.fft.rfft(values - values.mean())) / values.size
    assert raw[16] == pytest.approx(2.0 * a1, rel=1e-10)
    assert raw[32] == pytest.approx(2.0 * a2, rel=1e-10)

    # The full pipeline perturbs the tone bins only through the
    # polynomial baseline removal, a sub-percent effect.
    spec = detrend_and_fft(trace[:, [0, 2]], fundamental_thz=3.84)
    assert spec.peak_omega == pytest.approx(2.0 * a1, rel=5e-3)
    assert spec.peak_2omega == pytest.approx(2.0 * a2, rel=5e-3)
    assert spec.peak_omega_freq == pytest.approx(3.84, abs=0.05)
    assert spec.peak_2omega_freq == pytest.approx(7.68, abs=0.05)


def test_mean_trace_has_no_second_harmonic():
    n = 0.9
    pump = PumpSpec(50.0, 0.2, math.sqrt(2.0))
    bath = BathSpec(OMEGA, 0.0, n)
    probe = ProbeSpec(0.05, 0.0, 1.0e6)
    dt = 1.0 / (3.84 * 16.0)
    delays = np.arange(256) * dt
    trace = predict_trace(pump, bath, probe, n, delays)
    spec = detrend_and_fft(trace[:, [0, 1]], fundamental_thz=3.84)
    j2 = int(round(7.68 * 256 * dt))
    raw = 2.0 * np.abs(np.fft.rfft(trace[:, 1] - trace[:, 1].mean())) / 256
    assert raw[j2] < 1e-10 * spec.peak_omega


def test_predict_trace_validation():
    pump = PumpSpec(50.0, 0.0, 1.0)
    bath = BathSpec(OMEGA, 0.2, 1.0)
    probe = make_probe()
    with pytest.raises(ValueError):
        predict_trace(pump, bath, probe, 1.0, [])
    with pytest.raises(ValueError):
        predict_trace(pump, bath, probe, 1.0, [-0.5, 0.0])
    with pytest.raises(ValueError):
        predict_trace(pump, bath, probe, 1.0, [0.0, 0.2, 0.1])


def test_predict_trace_matches_scalar_chain():
    """The array path equals evolve -> probe_mean/probe_variance per delay."""
    cfg = load_config()
    bath, n, delays = cfg.bath_spec(), cfg.initial_occupation(), cfg.scan_delays()
    top = max(cfg.section("fluence_series")["fluences"])
    for pump, probe in (
        (cfg.pump_spec(), cfg.probe_spec()),
        (cfg.fluence_pump_spec(top), cfg.fluence_probe_spec()),
    ):
        trace = predict_trace(pump, bath, probe, n, delays)
        c1, c2 = pump_coefficients(pump)
        pumped = apply_pump(thermal_state(n), c1, c2)
        states = [evolve(pumped, float(tau), bath) for tau in delays]
        means = np.array([probe_mean(st, probe) for st in states])
        variances = np.array([probe_variance(st, probe) for st in states])
        assert np.array_equal(trace[:, 0], delays)
        np.testing.assert_allclose(trace[:, 1], means, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(trace[:, 2], variances, rtol=1e-12, atol=0.0)


def test_predict_trace_series_equals_its_single_traces():
    bath = BathSpec(OMEGA, 0.3, 0.4)
    probe = make_probe(theta=0.3, iy=80.0, dth=0.4)
    pumps = [PumpSpec(0.5, mu, nu) for mu, nu in ((0.0, 1.0), (0.2, 0.7), (0.4, 1.3))]
    delays = np.arange(40) * 0.05
    series = predict_trace(pumps, bath, probe, 0.3, delays)
    assert series.shape == (3, 40, 3)
    for pump, trace in zip(pumps, series):
        assert np.array_equal(trace, predict_trace(pump, bath, probe, 0.3, delays))


def test_predict_trace_series_names_the_unphysical_pump():
    bath = BathSpec(OMEGA, 0.5, 0.0)
    object.__setattr__(bath, "n_bath", -0.6)  # as in the test below
    # Over these delays only the squeezing pump leaves the physical states.
    delays = np.arange(6) * 0.1
    calm, squeezing = PumpSpec(0.5, 0.0, 1.0), PumpSpec(0.5, 1.0, 1.0)
    predict_trace(calm, bath, make_probe(), 0.2, delays)
    with pytest.raises(PhysicalityError) as single:
        predict_trace(squeezing, bath, make_probe(), 0.2, delays)
    assert str(single.value).startswith("state at delay ")
    with pytest.raises(PhysicalityError) as series:
        predict_trace([calm, squeezing], bath, make_probe(), 0.2, delays)
    assert str(series.value) == str(single.value).replace("state at", "state of pump 1 at")


def test_predict_trace_names_first_unphysical_delay():
    pump = PumpSpec(0.5, 0.0, 1.0)
    bath = BathSpec(OMEGA, 0.5, 0.0)
    # A negative bath occupation, which BathSpec rejects, relaxes the
    # state below the vacuum partway through the scan.
    object.__setattr__(bath, "n_bath", -0.6)
    delays = np.arange(21) * 0.1
    pumped = apply_pump(thermal_state(0.2), *pump_coefficients(pump))
    first_bad = None
    for tau in delays:
        try:
            evolve(pumped, float(tau), bath)
        except PhysicalityError:
            first_bad = float(tau)
            break
    assert first_bad is not None and first_bad > 0.0
    with pytest.raises(PhysicalityError, match=f"at delay {first_bad!r} ps"):
        predict_trace(pump, bath, make_probe(), 0.2, delays)
