"""End-to-end acceptance checks, one test per headline guarantee.

Each test prints a single labelled line with its measured numbers, so a
verbose run doubles as a scoreboard for the whole simulator: oracle
agreement, second-harmonic exclusivity, closed-form amplitudes, envelope
lifetimes, quadrature variances, detector linearity, the closed fluence
loop, spectral peak positions, and bit-level determinism.
"""

import json
import math
import time

import numpy as np
import pytest

import isrsim.cli as cli
from closed_forms import (
    amplitude_2omega,
    amplitude_omega,
    conjugate_quadrature_variance,
    quadrature_variance,
    squeeze_parameters,
)
from isrsim.analysis import detrended_trace, extract_lifetimes, fit_line
from isrsim.config import load_config
from isrsim.detector import shot_noise_scan
from isrsim.fock import (
    apply_pump_exact,
    build_thermal_fock,
    cross_validate,
    default_grid,
)
from isrsim.probe import ProbeSpec, predict_trace
from isrsim.states import (
    BathSpec,
    PumpSpec,
    apply_pump,
    pump_coefficients,
    squeezed_thermal_quadrature_variance,
    thermal_state,
)

F0 = 3.84
OMEGA = 2.0 * math.pi * F0
N_300K = 1.1787336907987721


def _report(label: str, detail: str) -> None:
    print(f"PASS {label}: {detail}")


# -- 1: fast path vs exact Fock evolution -------------------------------------


def test_oracle_agreement_over_random_grid():
    t0 = time.perf_counter()
    results = cross_validate(default_grid(load_config().section("scan")["seed"]))
    elapsed = time.perf_counter() - t0
    worst_moment = max(max(r.moment_errors.values()) for r in results)
    worst_probe = max(max(r.mean_error, r.var_error) for r in results)
    assert all(r.passed for r in results)
    assert worst_moment < 1e-6
    assert worst_probe < 1e-4
    assert elapsed < 300.0
    _report(
        "oracle agreement",
        f"{len(results)} cases, worst moment {worst_moment:.1e}, "
        f"worst probe {worst_probe:.1e}, {elapsed:.0f} s",
    )


# -- 2: the 2 Omega tone exists iff the pump squeezes -------------------------


def test_variance_second_harmonic_requires_squeezing():
    # Undamped evolution on an integer-cycle grid keeps every tone in a
    # single FFT bin, so "no component" is testable at round-off level.
    n = 1.2
    bath = BathSpec(OMEGA, 0.0, n)
    probe = ProbeSpec(0.12, 0.0, 1.0e6)
    per, cycles = 16, 16
    delays = np.arange(per * cycles) / (F0 * per)
    b1, b2 = cycles, 2 * cycles

    def rel2(values):
        amps = np.abs(np.fft.rfft(values - values.mean()))
        return amps[b2] / amps[b1]

    squeezing = predict_trace(
        PumpSpec(32.0, 0.08, math.sqrt(2.0)), bath, probe, n, delays
    )
    displacing = predict_trace(
        PumpSpec(32.0, 0.0, math.sqrt(2.0)), bath, probe, n, delays
    )
    mean_rel = rel2(squeezing[:, 1])
    var_rel_off = rel2(displacing[:, 2])
    var_rel_on = rel2(squeezing[:, 2])
    assert mean_rel < 1e-10
    assert var_rel_off < 1e-10
    assert var_rel_on > 1e-3
    _report(
        "second harmonic exclusivity",
        f"mean {mean_rel:.1e}, variance without squeezing {var_rel_off:.1e}, "
        f"with squeezing {var_rel_on:.2f} (all relative to the fundamental)",
    )


# -- 3: closed-form tone amplitudes vs FFT of the predicted trace -------------


def test_trace_tone_amplitudes_match_closed_forms():
    # Both closed forms carry the delay-dependent envelope, so the fair
    # FFT comparison is against their average over the record; keeping
    # damping * record length at or below 0.3 holds the residual
    # envelope/leakage bias under one percent.
    pump = PumpSpec(50.0, 0.2, math.sqrt(2.0))
    probe = ProbeSpec(0.05, 0.0, 1.0e6)
    n = N_300K
    per, cycles = 16, 8
    npts = per * cycles
    delays = np.arange(npts) / (F0 * per)
    worst = 0.0
    for lam in (0.145, 0.0725):
        bath = BathSpec(OMEGA, lam, n)
        trace = predict_trace(pump, bath, probe, n, delays)
        c1, c2 = pump_coefficients(pump)
        z = apply_pump(thermal_state(n), c1, c2).mean_b
        ref1 = np.mean([amplitude_omega(t, z, pump, bath, probe, n) for t in delays])
        ref2 = np.mean([amplitude_2omega(t, pump, bath, probe) for t in delays])
        flat = detrended_trace(trace[:, [0, 2]])
        amps = 2.0 * np.abs(np.fft.rfft(flat[:, 1])) / npts
        rel1 = abs(amps[cycles] / 2.0 - ref1) / ref1
        rel2 = abs(amps[2 * cycles] / 2.0 - ref2) / ref2
        assert rel1 < 1e-2
        assert rel2 < 1e-2
        worst = max(worst, rel1, rel2)
    no_squeeze = PumpSpec(50.0, 0.0, math.sqrt(2.0))
    assert amplitude_2omega(0.0, no_squeeze, BathSpec(OMEGA, 0.145, n), probe) == 0.0
    _report(
        "tone amplitudes",
        f"FFT vs closed forms, worst {worst:.2%} "
        "(damping * record <= 0.3); amplitude exactly 0 without squeezing",
    )


# -- 4: envelope lifetimes of the two tones ------------------------------------


def _small_squeeze_lifetimes():
    bath = BathSpec(OMEGA, 2.0 / 7.0, N_300K)
    pump = PumpSpec(50.0, 0.02, math.sqrt(2.0))
    probe = ProbeSpec(0.05, 0.0, 1.0e6)
    delays = np.arange(512) * 0.02
    trace = predict_trace(pump, bath, probe, N_300K, delays)
    return extract_lifetimes(trace[:, [0, 2]], omega_thz=F0, noise_sd=0.0)


def test_variance_second_harmonic_decays_at_twice_the_rate():
    life = _small_squeeze_lifetimes()
    assert life.fundamental.present and life.second_harmonic.present
    ratio = life.second_harmonic.rate / life.fundamental.rate
    assert ratio == pytest.approx(2.0, rel=1e-10)
    assert life.fundamental.lifetime == pytest.approx(7.0, rel=1e-10)
    _report(
        "envelope lifetimes",
        f"rate ratio {ratio:.12f} (target 2 to 1e-10), fundamental lifetime "
        f"{life.fundamental.lifetime:.10f} ps",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "pure energy relaxation ties the second-harmonic amplitude rate to "
        "exactly twice the fundamental's, so with a 7 ps fundamental lifetime "
        "its power at 2.5 ps is exp(-10/7) ~ 0.24 of the initial value; "
        "reaching 0.10 needs a rate ratio above 3.2, i.e. a dephasing channel "
        "this model does not include"
    ),
)
def test_second_harmonic_power_gone_by_2p5_ps():
    life = _small_squeeze_lifetimes()
    fraction = math.exp(-2.0 * life.second_harmonic.rate * 2.5)
    print(f"second-harmonic power fraction at 2.5 ps: {fraction:.3f}")
    assert fraction < 0.10


# -- 5: quadrature variances -----------------------------------------------


def test_quadrature_variance_closed_form_and_oracle():
    worst = 0.0
    c1 = 12.0 - 5.0j
    for n in (0.0, 0.5, N_300K):
        for phase in (0.0, math.pi / 2, -2.1, 0.77):
            c2 = 0.15 * np.exp(1j * phase)
            state = apply_pump(thermal_state(n), c1, c2)
            r, psi = squeeze_parameters(c2)
            close = squeezed_thermal_quadrature_variance(n, r, psi)
            close_conj = squeezed_thermal_quadrature_variance(n, r, psi + math.pi)
            worst = max(
                worst,
                abs(quadrature_variance(state) - close) / close,
                abs(conjugate_quadrature_variance(state) - close_conj) / close_conj,
            )
    assert worst < 1e-13
    assert quadrature_variance(thermal_state(0.0)) == 0.5

    rho = apply_pump_exact(build_thermal_fock(0.8, 48), 0.2 - 0.1j, 0.15 * np.exp(0.7j))
    # Quadrature variances of the Fock state, by direct trace.
    m, occ, anom = rho.moments()
    exact_q = occ + 0.5 + anom.real - 2.0 * m.real**2
    exact_p = occ + 0.5 - anom.real - 2.0 * m.imag**2
    r, psi = squeeze_parameters(0.15 * np.exp(0.7j))
    err_q = abs(exact_q - squeezed_thermal_quadrature_variance(0.8, r, psi))
    err_p = abs(exact_p - squeezed_thermal_quadrature_variance(0.8, r, psi + math.pi))
    assert err_q < 1e-6
    assert err_p < 1e-6
    _report(
        "quadrature variances",
        f"closed form within {worst:.1e} of state moments, vacuum exactly 0.5, "
        f"Fock within {max(err_q, err_p):.1e}",
    )


# -- 6: detector variance linear in probe power -------------------------------


def test_detector_variance_linear_in_power():
    cfg = load_config()
    sn = cfg.section("shot_noise")
    det = cfg.detector_spec()
    rows = shot_noise_scan(
        sn["powers_mw"], det, n_pulses=sn["n_pulses"], seed=cfg.section("scan")["seed"]
    )
    fit = fit_line(rows[:, 0], rows[:, 1], sn["n_pulses"])
    top = float(rows[-1, 1])
    assert fit.r_squared > 0.999
    assert abs(fit.intercept - det.electronic_var) <= fit.intercept_ci95
    assert abs(top - 1.0) < 0.05
    _report(
        "shot-noise linearity",
        f"R^2 {fit.r_squared:.5f}, intercept {fit.intercept:.4f} "
        f"+- {fit.intercept_ci95:.4f} V^2 (electronic {det.electronic_var}), "
        f"variance at {rows[-1, 0]} mW: {top:.3f} V^2",
    )


# -- 7: closed-loop recovery of the squeezing coupling ------------------------

def test_fluence_loop_recovers_injected_coupling(tmp_path):
    cfg_loop = tmp_path / "loop.yaml"
    cfg_loop.write_text("scan:\n  stop_ps: 5.10\noutputs:\n  formats: [json]\n")
    injected = load_config(str(cfg_loop)).section("pump")["mu_squeeze"]
    n0 = load_config(str(cfg_loop)).initial_occupation()

    errors = []
    sample_fit = None
    for trial in range(100):
        out = tmp_path / f"t{trial:03d}"
        code = cli.main(
            ["fluence", "--config", str(cfg_loop), "--seed", str(7000 + trial),
             "--out", str(out)]
        )
        assert code == 0
        fit = json.loads((out / "fluence_fit.json").read_text())
        assert fit["two_omega_present"] is True
        errors.append(fit["relative_error"])
        if sample_fit is None:
            sample_fit = fit
    hits = sum(e < 0.05 for e in errors)
    assert hits >= 95

    # Reported quadrature pair: squeezed below the thermal floor at the
    # top fluence, product pinned to the thermal bound.
    quads = np.asarray(sample_fit["quad_uncertainties"], dtype=float)
    floor = n0 + 0.5
    assert quads[-1, 1] < floor
    products = quads[:, 1] * quads[:, 2]
    assert products == pytest.approx(floor * floor, rel=1e-9)
    _report(
        "fluence loop",
        f"{hits}/100 trials within 5% of {injected} "
        f"(median error {np.median(errors):.2%}), top-fluence squeezed "
        f"quadrature {quads[-1, 1]:.3f} < {floor:.3f}, products at the bound",
    )


# -- 8 and 9: default scan peaks and bit-level determinism --------------------


@pytest.fixture(scope="module")
def default_scan(tmp_path_factory):
    out = tmp_path_factory.mktemp("scan_first")
    assert cli.main(["scan", "--out", str(out)]) == 0
    return out


def test_scan_spectrum_peak_positions(default_scan):
    spec = json.loads((default_scan / "scan_spectrum.json").read_text())
    cfg = load_config()
    delays = cfg.scan_delays()
    bin_width = 1.0 / (delays.size * (delays[1] - delays[0]))
    mean_peak = spec["mean"]["peak_omega_freq_thz"]
    var_peak = spec["variance"]["peak_2omega_freq_thz"]
    assert abs(mean_peak - F0) <= bin_width
    assert abs(var_peak - 2.0 * F0) <= bin_width
    _report(
        "spectral peaks",
        f"mean at {mean_peak:.4f} THz (target {F0}), variance at "
        f"{var_peak:.4f} THz (target {2 * F0}), bin width {bin_width:.4f} THz",
    )


def test_scan_lifetimes_agree_with_spectrum(default_scan):
    spec = json.loads((default_scan / "scan_spectrum.json").read_text())
    life = json.loads((default_scan / "lifetimes.json").read_text())
    lam = load_config().section("bath")["damping_rate"]
    omega = life["mean"]["fundamental"]
    two_omega = life["variance"]["second_harmonic"]
    assert spec["two_omega_present"] is True
    assert two_omega["present"] is True
    assert spec["two_omega_chi2"] == two_omega["chi2"]
    assert abs(omega["rate"] - lam / 2.0) < 3.0 * omega["rate_stderr"]
    assert abs(two_omega["rate"] - lam) < 3.0 * two_omega["rate_stderr"]
    # The variance's Omega line is present here and decays at the mean's rate.
    shared = life["variance"]["fundamental"]
    assert shared["present"] is True
    assert (shared["rate"], shared["rate_stderr"]) == (omega["rate"], omega["rate_stderr"])
    _report(
        "scan lifetimes",
        f"mean Omega rate {omega['rate']:.5f} +- {omega['rate_stderr']:.5f} /ps "
        f"(target {lam / 2:.5f}), variance 2 Omega rate {two_omega['rate']:.3f} "
        f"+- {two_omega['rate_stderr']:.3f} /ps (target {lam:.4f}), present as "
        "in the spectrum",
    )


def test_scan_rerun_bytes_identical(default_scan, tmp_path):
    out = tmp_path / "scan_second"
    assert cli.main(["scan", "--out", str(out)]) == 0
    names = sorted(p.name for p in default_scan.glob("*.csv"))
    assert names
    for name in names:
        assert (default_scan / name).read_bytes() == (out / name).read_bytes()
    first = json.loads((default_scan / "manifest.json").read_text())
    second = json.loads((out / "manifest.json").read_text())
    assert first == second
    _report(
        "determinism",
        f"{len(names)} CSV files byte-identical across reruns, manifests equal",
    )
