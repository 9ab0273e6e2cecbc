"""Command-line driver for the end-to-end simulation workflows.

Subcommands: predict (noiseless traces and spectra), scan (full
acquisition Monte Carlo plus analysis), fluence (generate a fluence
series and fit the squeezing coupling), oracle (fast path versus exact
Fock cross-check), shot-noise (pump-off variance versus probe power).

Every run writes its outputs plus a manifest (config hash, seed,
versions, file digests) into the output directory; reruns with the same
config and seed are byte-identical. Exit codes: 0 success, 2 config
error, 3 numerical/truncation error, 4 fit failure.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import hashlib
import json
import math
import platform
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .analysis import (
    FitError,
    detrend_and_fft,
    detrended_trace,
    extract_lifetimes,
    fit_fluence_series,
    morlet_power,
    peak_contrast,
)
from .config import ConfigError, RunConfig, load_config
from .detector import (
    ScanResult,
    fit_line,
    row_streams,
    sample_pulse_ensemble,
    scan_experiment,
    shot_noise_scan,
)
from .fock import StepSizeError, TruncationError, cross_validate
from .probe import predict_trace
from .states import PhysicalityError, pump_coefficients

# A second-harmonic line counts as present in a noiseless spectrum when
# its peak exceeds this fraction of the fundamental's AND stands out of
# the local background by MIN_PEAK_CONTRAST (a damped fundamental's
# spectral wing reaches the second-harmonic bin but is locally smooth).
TWO_OMEGA_PRESENCE_RATIO = 1e-5
MIN_PEAK_CONTRAST = 3.0
# In noisy spectra presence instead requires this many noise sigmas.
DETECTION_SIGMAS = 4.0

_HISTOGRAM_BINS = 50


# -- deterministic writers -------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _py(obj):
    """JSON-safe copy: numpy scalars unwrapped, non-finite floats to null."""
    if isinstance(obj, dict):
        return {k: _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_py(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    return obj


def _write_json(path: Path, obj) -> None:
    path.write_text(
        json.dumps(_py(obj), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(outdir: Path, command: str, cfg: RunConfig, files: list[Path]) -> None:
    manifest = {
        "command": command,
        "config_sha256": cfg.sha256(),
        "seed": cfg.section("scan")["seed"],
        "versions": {
            "isrsim": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "scipy": scipy.__version__,
        },
        "files": {p.name: _sha256(p) for p in sorted(files)},
    }
    _write_json(outdir / "manifest.json", manifest)


def _peak_block(spec) -> dict:
    return {
        "peak_omega": spec.peak_omega,
        "peak_omega_freq_thz": spec.peak_omega_freq,
        "peak_2omega": spec.peak_2omega,
        "peak_2omega_freq_thz": spec.peak_2omega_freq,
    }


def _lifetime_block(result) -> dict:
    ratio = (
        result.ratio()
        if result.fundamental.present and result.second_harmonic.present
        else None
    )
    return {
        "fundamental": dataclasses.asdict(result.fundamental),
        "second_harmonic": dataclasses.asdict(result.second_harmonic),
        "rate_ratio": ratio,
    }


# -- scan helpers ------------------------------------------------------------


def _run_scan(cfg: RunConfig, pump, bath, probe, det, delays, seed, threads) -> ScanResult:
    """scan_experiment with the configured scan settings."""
    s = cfg.section("scan")
    return scan_experiment(
        pump,
        bath,
        probe,
        det,
        delays,
        n_pulses=s["n_pulses"],
        m_scans=s["m_scans"],
        seed=seed,
        thermal_n=cfg.initial_occupation(),
        statistics_only=s["statistics_only"],
        threads=threads,
    )


def _amplitude_noise_sigma(res: ScanResult, n_pulses: int, m_scans: int) -> float:
    """Estimated rms noise of one variance-spectrum amplitude bin.

    A per-cell sample variance of a Gaussian burst has relative sd
    sqrt(2/(N-1)); averaging m scans and spreading white noise over the
    spectrum gives 2 sigma_cell / sqrt(n_delays) per amplitude bin.
    """
    sigma_cell = (
        float(np.median(res.dt_var))
        * math.sqrt(2.0 / (n_pulses - 1))
        / math.sqrt(m_scans)
    )
    return 2.0 * sigma_cell / math.sqrt(res.delays.size)


# -- subcommands -------------------------------------------------------------


def cmd_predict(cfg: RunConfig, args) -> int:
    delays = cfg.scan_delays()
    bath = cfg.bath_spec()
    probe = cfg.probe_spec()
    n0 = cfg.initial_occupation()
    f0 = cfg.section("bath")["frequency_thz"]
    pump = cfg.scan_pump_spec()
    formats = cfg.section("outputs")["formats"]

    outdir = Path(cfg.section("outputs")["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    files: list[Path] = []
    variants = [
        ("squeezed", pump),
        ("reference", dataclasses.replace(pump, mu_squeeze=0.0)),
    ]
    for name, variant in variants:
        trace = predict_trace(variant, bath, probe, n0, delays)
        if "csv" in formats:
            path = outdir / f"predict_{name}_trace.csv"
            _write_csv(path, ["delay_ps", "mean_ny", "var_ny"], trace)
            files.append(path)
        spec_mean = detrend_and_fft(trace[:, [0, 1]], fundamental_thz=f0)
        spec_var = detrend_and_fft(trace[:, [0, 2]], fundamental_thz=f0)
        contrast = peak_contrast(spec_var.freqs, spec_var.power, 2.0 * f0)
        present = (
            spec_var.peak_2omega
            >= TWO_OMEGA_PRESENCE_RATIO * max(spec_var.peak_omega, 1e-300)
        ) and contrast >= MIN_PEAK_CONTRAST
        if "json" in formats:
            path = outdir / f"predict_{name}_spectrum.json"
            _write_json(
                path,
                {
                    "variant": name,
                    "fundamental_thz": f0,
                    "mean": _peak_block(spec_mean),
                    "variance": _peak_block(spec_var),
                    "two_omega_present": present,
                    "two_omega_contrast": contrast,
                    "presence_ratio": TWO_OMEGA_PRESENCE_RATIO,
                    "min_contrast": MIN_PEAK_CONTRAST,
                },
            )
            files.append(path)
    _write_manifest(outdir, "predict", cfg, files)
    return 0


def cmd_scan(cfg: RunConfig, args) -> int:
    s = cfg.section("scan")
    delays = cfg.scan_delays()
    bath = cfg.bath_spec()
    probe = cfg.probe_spec()
    det = cfg.detector_spec()
    pump = cfg.scan_pump_spec()
    f0 = cfg.section("bath")["frequency_thz"]
    formats = cfg.section("outputs")["formats"]

    res = _run_scan(cfg, pump, bath, probe, det, delays, s["seed"], args.threads)

    outdir = Path(cfg.section("outputs")["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    files: list[Path] = []

    if "csv" in formats:
        path = outdir / "scan_trace.csv"
        _write_csv(
            path,
            ["delay_ps", "dt_mean_v", "dt_var_v2"],
            zip(res.delays, res.dt_mean, res.dt_var),
        )
        files.append(path)
        path = outdir / "scan_per_scan.csv"
        _write_csv(
            path,
            ["scan_index", "delay_ps", "mean_v", "var_v2"],
            (
                (i, res.delays[d], res.per_scan_mean[i, d], res.per_scan_var[i, d])
                for i in range(res.per_scan_mean.shape[0])
                for d in range(res.delays.size)
            ),
        )
        files.append(path)

    if "csv" in formats and not s["statistics_only"]:
        # Per-pulse voltage histograms at three sample delays, drawn in
        # turn from the streams of the scan row past the ones the averages
        # consumed.
        trace = predict_trace(pump, bath, probe, cfg.initial_occupation(), delays)
        streams = row_streams(s["seed"], s["m_scans"])
        for idx in sorted({0, delays.size // 2, delays.size - 1}):
            ens = sample_pulse_ensemble(
                trace[idx, 1],
                trace[idx, 2],
                det,
                n_pulses=s["n_pulses"],
                seed=streams,
                baseline_mean_ny=trace[0, 1],
            )
            counts, edges = np.histogram(ens.samples, bins=_HISTOGRAM_BINS)
            path = outdir / f"histogram_delay_{idx:04d}.csv"
            _write_csv(path, ["bin_left_v", "count"], zip(edges[:-1], counts))
            files.append(path)

    mean_trace = np.column_stack([res.delays, res.dt_mean])
    var_trace = np.column_stack([res.delays, res.dt_var])
    spec_mean = detrend_and_fft(mean_trace, fundamental_thz=f0)
    spec_var = detrend_and_fft(var_trace, fundamental_thz=f0)
    sigma_amp = _amplitude_noise_sigma(res, s["n_pulses"], s["m_scans"])
    present = spec_var.peak_2omega > DETECTION_SIGMAS * sigma_amp

    if "csv" in formats:
        path = outdir / "scan_spectrum.csv"
        _write_csv(
            path,
            ["freq_thz", "mean_amp_v", "var_amp_v2"],
            zip(spec_mean.freqs, spec_mean.power, spec_var.power),
        )
        files.append(path)

    wavelet_freqs = np.linspace(0.5 * f0, 2.5 * f0, 33)
    power_map = morlet_power(detrended_trace(var_trace), wavelet_freqs)
    if "csv" in formats:
        path = outdir / "wavelet_map.csv"
        _write_csv(
            path,
            ["freq_thz", "delay_ps", "power"],
            (
                (wavelet_freqs[i], res.delays[d], power_map[i, d])
                for i in range(wavelet_freqs.size)
                for d in range(res.delays.size)
            ),
        )
        files.append(path)

    if "json" in formats:
        # Per-delay estimator noise: the burst mean has sd sigma/sqrt(N),
        # the burst variance sd sigma^2 sqrt(2/(N-1)), both averaged over
        # m scans. Components buried under these are reported absent.
        sigma_v2 = float(np.median(res.dt_var))
        noise_mean = math.sqrt(sigma_v2 / (s["n_pulses"] * s["m_scans"]))
        noise_var = sigma_v2 * math.sqrt(2.0 / (s["n_pulses"] - 1)) / math.sqrt(
            s["m_scans"]
        )
        life_mean = extract_lifetimes(mean_trace, omega_thz=f0, noise_sd=noise_mean)
        life_var = extract_lifetimes(var_trace, omega_thz=f0, noise_sd=noise_var)
        path = outdir / "scan_spectrum.json"
        _write_json(
            path,
            {
                "fundamental_thz": f0,
                "mean": _peak_block(spec_mean),
                "variance": _peak_block(spec_var),
                "two_omega_present": present,
                "amplitude_noise_sigma": sigma_amp,
                "detection_sigmas": DETECTION_SIGMAS,
            },
        )
        files.append(path)
        path = outdir / "lifetimes.json"
        _write_json(path, {"mean": _lifetime_block(life_mean), "variance": _lifetime_block(life_var)})
        files.append(path)

    _write_manifest(outdir, "scan", cfg, files)
    return 0


def _two_omega_phase(pump, probe) -> float:
    """Phase of the second-harmonic cosine in the variance trace."""
    _, c2 = pump_coefficients(pump)
    phi = cmath.phase(c2) if abs(c2) > 0 else 0.0
    return 1.5 * math.pi - phi - 2.0 * probe.phase_diff


def cmd_fluence(cfg: RunConfig, args) -> int:
    s = cfg.section("scan")
    fser = cfg.section("fluence_series")
    delays = cfg.scan_delays()
    bath = cfg.bath_spec()
    probe = cfg.fluence_probe_spec()
    det = cfg.detector_spec()
    n0 = cfg.initial_occupation()
    f0 = cfg.section("bath")["frequency_thz"]
    fluences = fser["fluences"]
    formats = cfg.section("outputs")["formats"]

    def one(i: int, fluence: float) -> ScanResult:
        return _run_scan(
            cfg,
            cfg.fluence_pump_spec(fluence),
            bath,
            probe,
            det,
            delays,
            (s["seed"], i),
            threads=1,
        )

    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            results = list(pool.map(one, range(len(fluences)), fluences))
    else:
        results = [one(i, f) for i, f in enumerate(fluences)]

    amps = np.empty(len(fluences))
    sigmas = np.empty(len(fluences))
    for i, res in enumerate(results):
        spec = detrend_and_fft(
            np.column_stack([res.delays, res.dt_var]), fundamental_thz=f0
        )
        amps[i] = spec.peak_2omega
        sigmas[i] = _amplitude_noise_sigma(res, s["n_pulses"], s["m_scans"])

    detected = bool(np.any(amps > DETECTION_SIGMAS * sigmas))
    if not detected:
        amps = np.zeros_like(amps)

    # Calibration: the same extraction applied to a unit-amplitude damped
    # second-harmonic cosine converts FFT peak height back to the
    # zero-delay amplitude; the spectrum peak carries twice the analytic
    # amplitude, hence the factor 2.
    pump_top = cfg.fluence_pump_spec(max(fluences))
    phi2 = _two_omega_phase(pump_top, probe)
    synth = np.exp(-bath.damping_rate * delays) * np.cos(
        2.0 * math.pi * 2.0 * f0 * delays + phi2
    )
    calib = detrend_and_fft(
        np.column_stack([delays, synth]), fundamental_thz=f0
    ).peak_2omega
    eta_gain = det.quantum_efficiency * det.gain_v_per_photon
    amplitude_scale = 2.0 * eta_gain * eta_gain * calib

    fit = fit_fluence_series(
        np.column_stack([fluences, amps, sigmas]),
        bath,
        probe,
        tau_ref=0.0,
        k_modes=cfg.section("pump")["k_modes"],
        conversion=fser["conversion"],
        amplitude_scale=amplitude_scale,
        thermal_n=n0,
    )

    injected = cfg.section("pump")["mu_squeeze"]
    outdir = Path(cfg.section("outputs")["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    files: list[Path] = []
    if "csv" in formats:
        path = outdir / "fluence_series.csv"
        _write_csv(
            path,
            [
                "fluence",
                "amp_2omega_v2",
                "sigma_v2",
                "r_fit",
                "var_squeezed",
                "var_antisqueezed",
            ],
            zip(
                fluences,
                amps,
                sigmas,
                fit.r_per_fluence[:, 1],
                fit.quad_uncertainties[:, 1],
                fit.quad_uncertainties[:, 2],
            ),
        )
        files.append(path)
    if "json" in formats:
        path = outdir / "fluence_fit.json"
        _write_json(
            path,
            {
                "mu_s_hat": fit.mu_s_hat,
                "mu_s_injected": injected,
                "relative_error": (
                    abs(fit.mu_s_hat - injected) / injected if injected > 0 else None
                ),
                "fit_residual": fit.fit_residual,
                "two_omega_present": detected,
                "amplitude_scale": amplitude_scale,
                "calibration_peak": calib,
                "conversion": fser["conversion"],
                "k_modes": cfg.section("pump")["k_modes"],
                "r_per_fluence": fit.r_per_fluence,
                "quad_uncertainties": fit.quad_uncertainties,
            },
        )
        files.append(path)
    _write_manifest(outdir, "fluence", cfg, files)
    return 0


def cmd_oracle(cfg: RunConfig, args) -> int:
    osec = cfg.section("oracle")
    results = cross_validate(
        photon_dim=osec["photon_dim"],
        fault_scale=args.inject_fault,
        max_dim=osec["max_phonon_dim"],
    )
    rows = []
    for r in results:
        rows.append(
            {
                "thermal_n": r.case.thermal_n,
                "c1": [r.case.c1.real, r.case.c1.imag],
                "c2": [r.case.c2.real, r.case.c2.imag],
                "damping_rate": r.case.damping_rate,
                "delay_ps": r.case.delay,
                "coupling_norm": r.case.coupling_norm,
                "intensity_y": r.case.intensity_y,
                "phase_diff": r.case.phase_diff,
                "moment_errors": r.moment_errors,
                "mean_error": r.mean_error,
                "var_error": r.var_error,
                "phonon_dim": r.phonon_dim,
                "photon_dim": r.photon_dim,
                "elapsed_s": r.elapsed_s,
                "passed": r.passed,
                "detail": r.detail,
            }
        )
    all_passed = all(r.passed for r in results)
    report = {
        "all_passed": all_passed,
        "n_cases": len(results),
        "worst_moment_error": max(
            max(r.moment_errors.values()) for r in results
        ),
        "worst_probe_error": max(
            max(r.mean_error, r.var_error) for r in results
        ),
        "total_elapsed_s": sum(r.elapsed_s for r in results),
        "fault_scale": args.inject_fault,
        "cases": rows,
    }
    outdir = Path(cfg.section("outputs")["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "oracle_report.json"
    _write_json(path, report)
    _write_manifest(outdir, "oracle", cfg, [path])
    return 0 if all_passed else 1


def cmd_shot_noise(cfg: RunConfig, args) -> int:
    sn = cfg.section("shot_noise")
    det = cfg.detector_spec()
    rows = shot_noise_scan(
        sn["powers_mw"], det, n_pulses=sn["n_pulses"], seed=cfg.section("scan")["seed"]
    )
    fit = fit_line(rows[:, 0], rows[:, 1])
    covered = abs(fit.intercept - det.electronic_var) <= fit.intercept_ci95
    outdir = Path(cfg.section("outputs")["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    formats = cfg.section("outputs")["formats"]
    files: list[Path] = []
    if "csv" in formats:
        path = outdir / "shot_noise.csv"
        _write_csv(path, ["power_mw", "dt_var_v2"], rows)
        files.append(path)
    if "json" in formats:
        path = outdir / "shot_noise_fit.json"
        _write_json(
            path,
            {
                "slope_v2_per_mw": fit.slope,
                "intercept_v2": fit.intercept,
                "intercept_ci95": fit.intercept_ci95,
                "r_squared": fit.r_squared,
                "electronic_var": det.electronic_var,
                "intercept_covers_electronic": covered,
                "max_power_variance_v2": float(rows[-1, 1]),
            },
        )
        files.append(path)
    _write_manifest(outdir, "shot-noise", cfg, files)
    return 0


# -- entry point -------------------------------------------------------------


_COMMANDS = {
    "predict": cmd_predict,
    "scan": cmd_scan,
    "fluence": cmd_fluence,
    "oracle": cmd_oracle,
    "shot-noise": cmd_shot_noise,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="YAML config overriding defaults")
    common.add_argument("--seed", type=int, default=None, help="override scan.seed")
    common.add_argument("--out", default=None, help="override outputs.directory")
    common.add_argument("--threads", type=int, default=1, help="worker threads")

    parser = argparse.ArgumentParser(
        prog="isrsim",
        description="Quantum simulator of pump-probe phonon noise spectroscopy",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("predict", parents=[common], help="noiseless traces and spectra")
    sub.add_parser("scan", parents=[common], help="full acquisition Monte Carlo")
    sub.add_parser("fluence", parents=[common], help="fluence series and coupling fit")
    oracle = sub.add_parser("oracle", parents=[common], help="exact cross-validation")
    oracle.add_argument(
        "--inject-fault",
        type=float,
        default=0.0,
        help="relative perturbation of the fast-path variance (self-test hook)",
    )
    sub.add_parser("shot-noise", parents=[common], help="pump-off variance vs power")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads: must be >= 1, got {args.threads}")
        cfg = load_config(args.config, seed=args.seed, out_dir=args.out)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TruncationError, StepSizeError, PhysicalityError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
