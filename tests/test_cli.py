"""End-to-end command-line workflows, file contracts, and exit codes."""

import json
from pathlib import Path

import pytest

import isrsim.cli as cli
from isrsim import load_config
from isrsim.fock import CrossCheckCase, CrossCheckResult

FAST_SCAN = """\
scan:
  stop_ps: 0.62
  n_pulses: 500
  m_scans: 2
  statistics_only: true
"""


def write_cfg(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def manifest_checks(outdir: Path, command: str):
    manifest = read_json(outdir / "manifest.json")
    assert manifest["command"] == command
    for name, digest in manifest["files"].items():
        assert cli._sha256(outdir / name) == digest
    return manifest


def test_predict_outputs_and_presence(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["predict", "--out", str(out)]) == 0
    for name in (
        "predict_squeezed_trace.csv",
        "predict_reference_trace.csv",
        "predict_squeezed_spectrum.json",
        "predict_reference_spectrum.json",
    ):
        assert (out / name).exists()
    squeezed = read_json(out / "predict_squeezed_spectrum.json")
    reference = read_json(out / "predict_reference_spectrum.json")
    assert squeezed["two_omega_present"] is True
    assert reference["two_omega_present"] is False
    assert squeezed["variance"]["peak_2omega"] > 0
    manifest = manifest_checks(out, "predict")
    assert manifest["config_sha256"] == load_config().sha256()


def test_scan_statistics_only_outputs(tmp_path):
    cfg = write_cfg(tmp_path, FAST_SCAN)
    out = tmp_path / "out"
    assert cli.main(["scan", "--config", cfg, "--out", str(out)]) == 0
    for name in (
        "scan_trace.csv",
        "scan_per_scan.csv",
        "scan_spectrum.csv",
        "scan_spectrum.json",
        "wavelet_map.csv",
        "lifetimes.json",
    ):
        assert (out / name).exists()
    # Statistics-level sampling has no per-pulse stream to histogram.
    assert not list(out.glob("histogram_delay_*.csv"))
    lifetimes = read_json(out / "lifetimes.json")
    assert set(lifetimes) == {"mean", "variance"}
    assert "rate_ratio" in lifetimes["mean"]
    manifest_checks(out, "scan")


def test_scan_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, FAST_SCAN)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["scan", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["scan", "--config", cfg, "--out", str(out_b)]) == 0
    for name in ("scan_trace.csv", "scan_per_scan.csv", "lifetimes.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # Identical run identity: same config digest and file digests.
    assert read_json(out_a / "manifest.json") == read_json(out_b / "manifest.json")


def test_scan_threads_match_serial(tmp_path):
    per_pulse = "scan:\n  stop_ps: 0.62\n  n_pulses: 60\n  m_scans: 3\n"
    for name, text in (("stats", FAST_SCAN), ("pulses", per_pulse)):
        cfg = write_cfg(tmp_path, text, name=f"{name}.yaml")
        serial = tmp_path / f"{name}_serial"
        threaded = tmp_path / f"{name}_threaded"
        assert cli.main(["scan", "--config", cfg, "--out", str(serial)]) == 0
        assert (
            cli.main(
                ["scan", "--config", cfg, "--out", str(threaded), "--threads", "4"]
            )
            == 0
        )
        csvs = sorted(p.name for p in serial.glob("*.csv"))
        assert "scan_per_scan.csv" in csvs
        assert csvs == sorted(p.name for p in threaded.glob("*.csv"))
        for csv in csvs:
            assert (serial / csv).read_bytes() == (threaded / csv).read_bytes()


def test_scan_full_monte_carlo_writes_histograms(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "scan:\n  stop_ps: 0.62\n  n_pulses: 60\n  m_scans: 1\n",
    )
    out = tmp_path / "out"
    assert cli.main(["scan", "--config", cfg, "--out", str(out)]) == 0
    names = sorted(p.name for p in out.glob("histogram_delay_*.csv"))
    assert names == [
        "histogram_delay_0000.csv",
        "histogram_delay_0016.csv",
        "histogram_delay_0031.csv",
    ]
    header = (out / "histogram_delay_0000.csv").read_text().splitlines()[0]
    assert header == "bin_left_v,count"


def test_seed_flag_changes_outputs(tmp_path):
    cfg = write_cfg(tmp_path, FAST_SCAN)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["scan", "--config", cfg, "--out", str(out_a)]) == 0
    assert (
        cli.main(
            ["scan", "--config", cfg, "--out", str(out_b), "--seed", "99"]
        )
        == 0
    )
    assert (out_a / "scan_trace.csv").read_bytes() != (
        out_b / "scan_trace.csv"
    ).read_bytes()
    a = read_json(out_a / "manifest.json")
    b = read_json(out_b / "manifest.json")
    assert a["seed"] == 20260814 and b["seed"] == 99
    assert a["config_sha256"] != b["config_sha256"]


def test_fluence_zero_squeeze_reports_absent(tmp_path):
    cfg = write_cfg(tmp_path, FAST_SCAN + "pump:\n  mu_squeeze: 0.0\n")
    out = tmp_path / "out"
    assert cli.main(["fluence", "--config", cfg, "--out", str(out)]) == 0
    fit = read_json(out / "fluence_fit.json")
    assert fit["two_omega_present"] is False
    assert fit["mu_s_hat"] == 0.0
    assert fit["relative_error"] is None
    rows = (out / "fluence_series.csv").read_text().splitlines()
    assert rows[0] == (
        "fluence,amp_2omega_v2,sigma_v2,r_fit,var_squeezed,var_antisqueezed"
    )
    assert len(rows) == 7  # header + six fluences
    manifest_checks(out, "fluence")


def test_fluence_detects_squeezing_quickly(tmp_path):
    cfg = write_cfg(
        tmp_path,
        FAST_SCAN + "fluence_series:\n  fluences: [5.0, 11.0, 17.0]\n",
    )
    out = tmp_path / "out"
    assert cli.main(["fluence", "--config", cfg, "--out", str(out)]) == 0
    fit = read_json(out / "fluence_fit.json")
    assert fit["two_omega_present"] is True
    assert fit["mu_s_hat"] > 0
    assert fit["mu_s_injected"] == 0.002
    # r grows with fluence; quadrature rows stay physical.
    rs = [row[1] for row in fit["r_per_fluence"]]
    assert rs == sorted(rs)
    for _, low, high in fit["quad_uncertainties"]:
        assert low * high >= 0.25 - 1e-9


def test_fluence_needs_three_points(tmp_path):
    cfg = write_cfg(
        tmp_path,
        FAST_SCAN + "fluence_series:\n  fluences: [5.0, 17.0]\n",
    )
    assert cli.main(["fluence", "--config", cfg, "--out", str(tmp_path / "o")]) == 4


def test_config_error_exit_codes(tmp_path):
    bad = write_cfg(tmp_path, "pump:\n  mu_squeeze: -0.1\n")
    assert cli.main(["scan", "--config", bad, "--out", str(tmp_path / "o")]) == 2
    missing = str(tmp_path / "nope.yaml")
    assert cli.main(["predict", "--config", missing]) == 2
    assert cli.main(["scan", "--threads", "0", "--out", str(tmp_path / "o")]) == 2


def test_oracle_truncation_cap_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, "oracle:\n  max_phonon_dim: 24\n")
    assert cli.main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_oracle_exit_and_report_via_stub(tmp_path, monkeypatch):
    """Exit-code mapping for oracle outcomes, decoupled from runtime."""
    case = CrossCheckCase(0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 5.0, 0.0)
    seen = {}

    def fake_cross_validate(photon_dim, fault_scale, max_dim):
        seen["fault_scale"] = fault_scale
        failed = fault_scale > 0
        return [
            CrossCheckResult(
                case=case,
                moment_errors={"pump_mean_b": 0.0},
                mean_error=0.0,
                var_error=fault_scale,
                phonon_dim=32,
                photon_dim=photon_dim,
                elapsed_s=0.01,
                passed=not failed,
                detail="tolerance exceeded" if failed else "",
            )
        ]

    monkeypatch.setattr(cli, "cross_validate", fake_cross_validate)
    out = tmp_path / "ok"
    assert cli.main(["oracle", "--out", str(out)]) == 0
    report = read_json(out / "oracle_report.json")
    assert report["all_passed"] is True
    assert report["n_cases"] == 1
    assert seen["fault_scale"] == 0.0

    out2 = tmp_path / "bad"
    rc = cli.main(["oracle", "--out", str(out2), "--inject-fault", "0.25"])
    assert rc == 1
    report = read_json(out2 / "oracle_report.json")
    assert report["all_passed"] is False
    assert report["fault_scale"] == 0.25
    assert seen["fault_scale"] == 0.25


def test_shot_noise_outputs(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "shot_noise:\n  powers_mw: [0.5, 1.0, 1.5, 2.0, 2.5]\n  n_pulses: 10000\n",
    )
    out = tmp_path / "out"
    assert cli.main(["shot-noise", "--config", cfg, "--out", str(out)]) == 0
    fit = read_json(out / "shot_noise_fit.json")
    assert fit["r_squared"] > 0.99
    assert fit["slope_v2_per_mw"] > 0
    assert fit["max_power_variance_v2"] == pytest.approx(1.0, rel=0.15)
    rows = (out / "shot_noise.csv").read_text().splitlines()
    assert rows[0] == "power_mw,dt_var_v2"
    assert len(rows) == 6
    manifest_checks(out, "shot-noise")


def test_csv_formatting_is_locale_free(tmp_path):
    cfg = write_cfg(tmp_path, FAST_SCAN)
    out = tmp_path / "out"
    assert cli.main(["scan", "--config", cfg, "--out", str(out)]) == 0
    body = (out / "scan_trace.csv").read_text().splitlines()[1:]
    for line in body:
        delay, mean, var = line.split(",")
        assert float(delay) >= 0.0
        float(mean)
        assert float(var) > 0.0
