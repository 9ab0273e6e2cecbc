"""Command-line driver for the end-to-end simulation workflows.

Subcommands: predict (noiseless traces and spectra), scan (acquisition
Monte Carlo plus analysis), fluence (generate a fluence series and fit
the squeezing coupling), oracle (fast path versus exact Fock
cross-check), shot-noise (pump-off variance versus probe power).

Every run writes its outputs plus a manifest (config hash, seed,
versions, file digests) into the output directory; reruns with the same
config and seed are byte-identical. Exit codes: 0 success, 1 oracle
disagreement, 2 config error, 3 numerical/truncation error, 4 fit
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    PRESENCE_CHI2,
    FitError,
    detrend_and_fft,
    fit_fluence_series,
    fit_line,
    scan_lifetimes,
    scan_noise,
)
from .config import ConfigError, RunConfig, load_config
from .detector import (
    ScanResult,
    row_generator,
    sample_pulse_ensemble,
    scan_experiment,
    shot_noise_scan,
)
from .fock import TruncationError, cross_validate, default_grid
from .probe import predict_trace
from .states import PhysicalityError

# fluence's 2 Omega gate, on FFT peaks: until ROADMAP item 7 replaces them.
DETECTION_SIGMAS = 4.0

_HISTOGRAM_BINS = 50
_CSV_ROWS = 2048  # rows formatted, encoded and written at a time


# -- deterministic writers -------------------------------------------------


def _column_text(column) -> list[str]:
    """Integers as str(int), everything else as repr(float).

    _write_csv passes one block of rows. Each distinct float bit pattern
    in it is formatted once: grid columns repeat a few frequencies or
    delays. Keying on the int64 view keeps -0.0 apart from 0.0.
    """
    values = np.asarray(column)
    if values.dtype.kind in "iu":
        return list(map(str, values.tolist()))
    bits, inverse = np.unique(
        values.astype(float).view(np.int64), return_inverse=True
    )
    text = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
    return text[inverse].tolist()


def _write_csv(path: Path, header: list[str], columns) -> str:
    """One row per element of the equal-length columns; returns their sha256.

    Text is built _CSV_ROWS rows at a time: memory is bounded by a block.
    """
    columns = [np.asarray(c) for c in columns]
    n_rows = len(columns[0]) if columns else 0
    if any(len(c) != n_rows for c in columns):
        raise ValueError(f"{path.name}: columns of unequal lengths")
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        lines = [",".join(header)]
        for start in range(0, max(n_rows, 1), _CSV_ROWS):  # the header at least
            cells = [_column_text(c[start : start + _CSV_ROWS]) for c in columns]
            lines += map(",".join, zip(*cells))
            data = ("\n".join(lines) + "\n").encode("utf-8")
            fh.write(data)
            digest.update(data)
            lines = []
    return digest.hexdigest()


def _py(obj):
    """JSON-safe copy: numpy scalars unwrapped, nan to null, +-inf to "inf", "-inf"."""
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
        return None if math.isnan(v) else v if math.isfinite(v) else repr(v)
    return obj


def _write_json(path: Path, obj) -> str:
    data = (json.dumps(_py(obj), sort_keys=True, indent=2) + "\n").encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _write_manifest(outdir: Path, command: str, cfg: RunConfig, files: dict[str, str]) -> None:
    manifest = {
        "command": command,
        "config_sha256": cfg.sha256(),
        "seed": cfg.section("scan")["seed"],
        "versions": {
            "isrsim": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "files": files,
    }
    _write_json(outdir / "manifest.json", manifest)


class _Outputs:
    """One run's output directory, format filter and written files' digests.

    csv and json write a file only when outputs.formats asks for its
    format; add writes unconditionally and records the digest the writer
    returns. finish writes the manifest over every file written.
    """

    def __init__(self, cfg: RunConfig, command: str):
        self.cfg = cfg
        self.command = command
        self.dir = Path(cfg.section("outputs")["directory"])
        self.dir.mkdir(parents=True, exist_ok=True)
        self.formats = cfg.section("outputs")["formats"]
        self.files: dict[str, str] = {}

    def add(self, name: str, write, *content) -> None:
        self.files[name] = write(self.dir / name, *content)

    def csv(self, name: str, header: list[str], columns) -> None:
        if "csv" in self.formats:
            self.add(name, _write_csv, header, columns)

    def json(self, name: str, obj) -> None:
        if "json" in self.formats:
            self.add(name, _write_json, obj)

    def finish(self) -> None:
        _write_manifest(self.dir, self.command, self.cfg, self.files)


def _spectrum_json(f0, spec_mean, spec_var, two_omega) -> dict:
    """Both spectra's peaks, and the presence of the variance fit's 2 Omega line."""
    peaks = {
        label: {
            "peak_omega": spec.peak_omega,
            "peak_omega_freq_thz": spec.peak_omega_freq,
            "peak_2omega": spec.peak_2omega,
            "peak_2omega_freq_thz": spec.peak_2omega_freq,
        }
        for label, spec in (("mean", spec_mean), ("variance", spec_var))
    }
    return {
        "fundamental_thz": f0,
        **peaks,
        "two_omega_present": two_omega.present,
        "two_omega_chi2": two_omega.chi2,
        "presence_chi2": PRESENCE_CHI2,
    }


# -- scan helpers ------------------------------------------------------------


def _run_scan(cfg: RunConfig, pump, bath, probe, det, delays, seed) -> ScanResult:
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
    )


# -- subcommands -------------------------------------------------------------


def cmd_predict(cfg: RunConfig, args) -> int:
    delays = cfg.scan_delays()
    bath = cfg.bath_spec()
    probe = cfg.probe_spec()
    n0 = cfg.initial_occupation()
    f0 = cfg.section("bath")["frequency_thz"]
    pump = cfg.pump_spec()

    out = _Outputs(cfg, "predict")
    variants = [
        ("squeezed", pump),
        ("reference", dataclasses.replace(pump, mu_squeeze=0.0)),
    ]
    for name, variant in variants:
        trace = predict_trace(variant, bath, probe, n0, delays)
        out.csv(f"predict_{name}_trace.csv", ["delay_ps", "mean_ny", "var_ny"], trace.T)
        spec_mean = detrend_and_fft(trace[:, [0, 1]], fundamental_thz=f0)
        spec_var = detrend_and_fft(trace[:, [0, 2]], fundamental_thz=f0)
        two_omega = scan_lifetimes(trace, f0).variance.second_harmonic
        spectrum = _spectrum_json(f0, spec_mean, spec_var, two_omega)
        out.json(f"predict_{name}_spectrum.json", {"variant": name, **spectrum})
    out.finish()
    return 0


def cmd_scan(cfg: RunConfig, args) -> int:
    s = cfg.section("scan")
    delays = cfg.scan_delays()
    bath = cfg.bath_spec()
    probe = cfg.probe_spec()
    det = cfg.detector_spec()
    pump = cfg.pump_spec()
    f0 = cfg.section("bath")["frequency_thz"]

    res = _run_scan(cfg, pump, bath, probe, det, delays, s["seed"])
    rows = np.column_stack([res.delays, res.dt_mean, res.dt_var])

    out = _Outputs(cfg, "scan")
    out.csv("scan_trace.csv", ["delay_ps", "dt_mean_v", "dt_var_v2"], rows.T)
    n_scans, n_delays = res.per_scan_mean.shape
    out.csv(
        "scan_per_scan.csv",
        ["scan_index", "delay_ps", "mean_v", "var_v2"],
        [
            np.repeat(np.arange(n_scans), n_delays),
            np.tile(res.delays, n_scans),
            res.per_scan_mean.ravel(),
            res.per_scan_var.ravel(),
        ],
    )

    if "csv" in out.formats:
        # Voltage histograms of one burst at each of three sample delays,
        # drawn in turn from the stream of the scan row past the ones the
        # averages consumed, with the reference arm balanced as in the scan.
        rng = row_generator(s["seed"], s["m_scans"])
        for idx in sorted({0, delays.size // 2, delays.size - 1}):
            volts = sample_pulse_ensemble(
                res.model_trace[idx, 1],
                res.model_trace[idx, 2],
                det,
                n_pulses=s["n_pulses"],
                rng=rng,
                ref_photons=res.ref_photons,
            )
            counts, edges = np.histogram(volts, bins=_HISTOGRAM_BINS)
            out.csv(
                f"histogram_delay_{idx:04d}.csv",
                ["bin_left_v", "count"],
                [edges[:-1], counts],
            )

    spec_mean = detrend_and_fft(rows[:, [0, 1]], fundamental_thz=f0)
    spec_var = detrend_and_fft(rows[:, [0, 2]], fundamental_thz=f0)
    noise_mean, noise_var, sigma_amp = scan_noise(res.dt_var, s["n_pulses"], s["m_scans"])
    out.csv(
        "scan_spectrum.csv",
        ["freq_thz", "mean_amp_v", "var_amp_v2"],
        [spec_mean.freqs, spec_mean.power, spec_var.power],
    )

    if "json" in out.formats:
        # One presence rule: the variance fit's 2 Omega line, in both files.
        lifetimes = scan_lifetimes(rows, f0, noise_mean, noise_var)
        spectrum = _spectrum_json(f0, spec_mean, spec_var, lifetimes.variance.second_harmonic)
        out.json("scan_spectrum.json", {**spectrum, "amplitude_noise_sigma": sigma_amp})
        out.json("lifetimes.json", dataclasses.asdict(lifetimes))

    out.finish()
    return 0


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

    # Fluence i scans on the streams of the seed prefix (seed, i).
    amps = np.empty(len(fluences))
    sigmas = np.empty(len(fluences))
    for i, fluence in enumerate(fluences):
        pump = cfg.fluence_pump_spec(fluence)
        res = _run_scan(cfg, pump, bath, probe, det, delays, (s["seed"], i))
        spec = detrend_and_fft(
            np.column_stack([res.delays, res.dt_var]), fundamental_thz=f0
        )
        amps[i] = spec.peak_2omega
        sigmas[i] = scan_noise(res.dt_var, s["n_pulses"], s["m_scans"])[2]

    detected = bool(np.any(amps > DETECTION_SIGMAS * sigmas))
    if not detected:
        amps = np.zeros_like(amps)

    # Calibration: the same extraction applied to a unit-amplitude damped
    # second-harmonic cosine converts FFT peak height back to the
    # zero-delay amplitude; the spectrum peak carries twice the analytic
    # amplitude, hence the factor 2. The pump drives through its intensity,
    # so c2 is real and >= 0 and the probe phase alone sets the cosine's.
    phi2 = 1.5 * math.pi - 2.0 * probe.phase_diff
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
        probe,
        conversion=fser["conversion"],
        amplitude_scale=amplitude_scale,
        thermal_n=n0,
    )

    injected = cfg.section("pump")["mu_squeeze"]
    out = _Outputs(cfg, "fluence")
    out.csv(
        "fluence_series.csv",
        [
            "fluence",
            "amp_2omega_v2",
            "sigma_v2",
            "r_fit",
            "var_squeezed",
            "var_antisqueezed",
        ],
        [
            fluences,
            amps,
            sigmas,
            fit.r_per_fluence[:, 1],
            fit.quad_uncertainties[:, 1],
            fit.quad_uncertainties[:, 2],
        ],
    )
    out.json(
        "fluence_fit.json",
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
            "r_per_fluence": fit.r_per_fluence,
            "quad_uncertainties": fit.quad_uncertainties,
        },
    )
    out.finish()
    return 0


def cmd_oracle(cfg: RunConfig, args) -> int:
    results = cross_validate(
        default_grid(cfg.section("scan")["seed"]), fault_scale=args.inject_fault
    )
    # The wall time goes to stderr, not into the report, so that the
    # report and the manifest that hashes it are the same on every rerun.
    total_s = sum(r.elapsed_s for r in results)
    print(f"oracle: {len(results)} cases in {total_s:.2f} s", file=sys.stderr)
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
        "fault_scale": args.inject_fault,
        "cases": rows,
    }
    # The report is the command's result, written whatever formats says.
    out = _Outputs(cfg, "oracle")
    out.add("oracle_report.json", _write_json, report)
    out.finish()
    return 0 if all_passed else 1


def cmd_shot_noise(cfg: RunConfig, args) -> int:
    sn = cfg.section("shot_noise")
    det = cfg.detector_spec()
    rows = shot_noise_scan(
        sn["powers_mw"], det, n_pulses=sn["n_pulses"], seed=cfg.section("scan")["seed"]
    )
    fit = fit_line(rows[:, 0], rows[:, 1], sn["n_pulses"])
    covered = abs(fit.intercept - det.electronic_var) <= fit.intercept_ci95
    out = _Outputs(cfg, "shot-noise")
    out.csv("shot_noise.csv", ["power_mw", "dt_var_v2"], rows.T)
    out.json(
        "shot_noise_fit.json",
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
    out.finish()
    return 0


# -- entry point -------------------------------------------------------------


_COMMANDS = {
    "predict": cmd_predict,
    "scan": cmd_scan,
    "fluence": cmd_fluence,
    "oracle": cmd_oracle,
    "shot-noise": cmd_shot_noise,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it as is."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="YAML config overriding defaults")
    common.add_argument("--seed", type=int, default=None, help="override scan.seed")
    common.add_argument("--out", default=None, help="override outputs.directory")

    parser = argparse.ArgumentParser(
        prog="isrsim",
        description="Quantum simulator of pump-probe phonon noise spectroscopy",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("predict", parents=[common], help="noiseless traces and spectra")
    sub.add_parser("scan", parents=[common], help="acquisition Monte Carlo")
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
        cfg = load_config(args.config, seed=args.seed, out_dir=args.out)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"{args.command}: config error: {exc}", file=sys.stderr)
        return 2
    except (TruncationError, PhysicalityError, ArithmeticError) as exc:
        print(f"{args.command}: numerical error: {exc}", file=sys.stderr)
        return 3
    except FitError as exc:
        print(f"{args.command}: fit error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
