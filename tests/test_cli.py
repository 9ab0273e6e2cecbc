"""End-to-end command-line workflows, file contracts, and exit codes."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import isrsim.cli as cli
import isrsim.detector as detector
from isrsim.analysis import extract_lifetimes
from isrsim.config import load_config
from isrsim.detector import row_generator, scan_experiment, voltage_statistics
from isrsim.fock import CrossCheckCase, CrossCheckResult, TruncationError, default_grid

FAST_SCAN = """\
scan:
  stop_ps: 0.62
  n_pulses: 500
  m_scans: 2
"""


SRC = Path(__file__).resolve().parents[1] / "src"

# Run in a fresh interpreter: fails if a bare `import isrsim` loads any
# submodule, or if importing the package, running predict, the default
# scan, a fluence trial (its coupling fit) or a small shot-noise run (its
# t interval), or cross-validating an oracle case loads any scipy module.
# No step may load concurrent.futures either: no command runs a thread
# pool, and the import path that loading a config takes stays lean.
NO_SCIPY = """
import sys
import isrsim

submodules = sorted(m for m in sys.modules if m.startswith("isrsim."))
assert submodules == [], submodules
from isrsim.config import load_config

load_config()
assert "concurrent.futures" not in sys.modules
import isrsim.cli
from isrsim.fock import CrossCheckCase, cross_validate

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert scipy_modules() == [], scipy_modules()
for argv in (
    ["predict"],
    ["scan"],
    ["fluence", "--config", sys.argv[2]],
    ["shot-noise", "--config", sys.argv[3]],
):
    assert isrsim.cli.main([*argv, "--out", sys.argv[1]]) == 0
    assert scipy_modules() == [], (argv, scipy_modules())
    assert "concurrent.futures" not in sys.modules, argv
[result] = cross_validate([CrossCheckCase(0.5, 0.2, 0.05j, 1.0, 0.5, 0.2, 10.0, 0.4)])
assert result.passed, result
assert scipy_modules() == [], scipy_modules()
assert "concurrent.futures" not in sys.modules
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
    written = {p.name for p in outdir.iterdir()} - {"manifest.json"}
    assert set(manifest["files"]) == written
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((outdir / name).read_bytes()).hexdigest() == digest
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
        "lifetimes.json",
    ):
        assert (out / name).exists()
    # Every scan with CSV output draws one burst per histogram.
    assert sorted(p.name for p in out.glob("histogram_delay_*.csv")) == [
        "histogram_delay_0000.csv",
        "histogram_delay_0016.csv",
        "histogram_delay_0031.csv",
    ]
    lifetimes = read_json(out / "lifetimes.json")
    assert set(lifetimes) == {"mean", "variance", "rate_ratio", "rate_ratio_stderr"}
    omega = lifetimes["mean"]["fundamental"]
    two_omega = lifetimes["variance"]["second_harmonic"]
    if omega["present"] and two_omega["present"]:
        assert lifetimes["rate_ratio"] == two_omega["rate"] / omega["rate"]
    else:
        assert lifetimes["rate_ratio"] is None
    # The variance is fitted at the mean's decay rate: its Omega line,
    # when present, reports the mean's rate and stderr.
    shared = lifetimes["variance"]["fundamental"]
    if shared["present"]:
        assert (shared["rate"], shared["rate_stderr"]) == (omega["rate"], omega["rate_stderr"])
    else:
        assert shared["rate"] is None and shared["rate_stderr"] is None
    # scan_spectrum.json's presence is lifetimes.json's, not a rule of its own.
    spectrum = read_json(out / "scan_spectrum.json")
    assert spectrum["two_omega_present"] is two_omega["present"]
    assert spectrum["two_omega_chi2"] == two_omega["chi2"]
    manifest_checks(out, "scan")


def test_json_tells_an_infinite_lifetime_from_an_absent_line(tmp_path):
    """A present line whose rate is within 3 stderr of zero has an
    infinite lifetime, written as the string "inf"; an absent line's
    lifetime is nan, written as null."""
    taus = np.arange(512) * 0.02
    undamped = np.column_stack([taus, np.cos(2 * np.pi * 3.84 * taus + 0.3)])
    cli._write_json(tmp_path / "l.json", dataclasses.asdict(extract_lifetimes(undamped, 3.84)))
    life = read_json(tmp_path / "l.json")
    assert life["fundamental"]["present"] is True
    assert life["fundamental"]["lifetime"] == "inf"
    assert float(life["fundamental"]["lifetime"]) == math.inf
    assert life["second_harmonic"]["present"] is False
    assert life["second_harmonic"]["lifetime"] is None


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


def test_every_command_refuses_threads(tmp_path, capsys):
    """No command takes a thread flag: a scan's rows are drawn in one call."""
    for command in ("predict", "scan", "fluence", "oracle", "shot-noise"):
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--threads", "2", "--out", str(tmp_path / "o")])
        assert info.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


def test_histograms_centre_on_the_scan_trace(tmp_path):
    """Each histogram is balanced like the scan, so it sits on dt_mean.

    Its count-weighted centre differs from the burst mean by at most half
    a bin, and the burst mean from the scan average dt_mean by sampling
    noise of sd sqrt(var (1/N + 1/(N m))).
    """
    n_pulses, m_scans = 500, 2
    cfg = write_cfg(
        tmp_path,
        f"scan:\n  stop_ps: 0.62\n  n_pulses: {n_pulses}\n  m_scans: {m_scans}\n",
    )
    out = tmp_path / "out"
    assert cli.main(["scan", "--config", cfg, "--out", str(out)]) == 0
    trace = np.loadtxt(out / "scan_trace.csv", delimiter=",", skiprows=1)
    histograms = sorted(out.glob("histogram_delay_*.csv"))
    assert len(histograms) == 3
    for path in histograms:
        _, dt_mean, dt_var = trace[int(path.stem.rsplit("_", 1)[1])]
        left, counts = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
        width = left[1] - left[0]
        centre = np.average(left + 0.5 * width, weights=counts)
        sd = np.sqrt(dt_var * (1.0 / n_pulses + 1.0 / (n_pulses * m_scans)))
        assert abs(centre - dt_mean) < 5.0 * sd + 0.5 * width, path.name


def test_histograms_match_voltage_statistics(tmp_path):
    """Each histogram's burst has voltage_statistics' mean and variance.

    Binning moves a pulse by at most half a bin, w/2, so the binned mean
    lies within w/2 of the burst's and the binned ddof-1 sd within
    sqrt(N/(N-1)) w/2 of the burst's. The burst's mean and sd lie within
    5 sampling sds, sqrt(var/N) and sqrt(var/(2(N-1))), of mu and
    sqrt(var) at the histogram's delay of the scan's model trace.
    """
    path = write_cfg(tmp_path, "scan:\n  stop_ps: 0.62\n")
    out = tmp_path / "out"
    assert cli.main(["scan", "--config", path, "--out", str(out)]) == 0
    cfg = load_config(path)
    n = cfg.section("scan")["n_pulses"]
    det = cfg.detector_spec()
    model = scan_experiment(
        cfg.pump_spec(), cfg.bath_spec(), cfg.probe_spec(), det, cfg.scan_delays(),
        n_pulses=n, m_scans=1, seed=0, thermal_n=cfg.initial_occupation(),
    )
    histograms = sorted(out.glob("histogram_delay_*.csv"))
    assert len(histograms) == 3
    for hist in histograms:
        _, mean_ny, var_ny = model.model_trace[int(hist.stem.rsplit("_", 1)[1])]
        mu, var = voltage_statistics(mean_ny, var_ny, det, model.ref_photons)
        left, counts = np.loadtxt(hist, delimiter=",", skiprows=1, unpack=True)
        assert counts.sum() == n
        half = 0.5 * (left[1] - left[0])
        centres = left + half
        mean = np.average(centres, weights=counts)
        sd = math.sqrt(np.sum(counts * (centres - mean) ** 2) / (n - 1))
        assert abs(mean - mu) < 5.0 * math.sqrt(var / n) + half, hist.name
        sd_bound = 5.0 * math.sqrt(var / (2 * (n - 1))) + math.sqrt(n / (n - 1)) * half
        assert abs(sd - math.sqrt(var)) < sd_bound, hist.name


def test_streams_within_one_command_are_distinct(tmp_path, monkeypatch):
    """No two streams drawn in one scan, fluence or shot-noise run alias.

    numpy's SeedSequence ignores trailing zero words, so [s, 0] seeds the
    same streams as [s]; a layout that mixed prefix lengths could hand
    two rows one stream. The default scan draws one stream per row
    0..m_scans-1, plus the histogram row m_scans, under prefix [seed]; a
    fluence point i draws rows 0..m_scans-1 under [seed, i]; shot-noise draws one stream per power. Every stream is
    built by row_generator, so recording there, in the detector and in
    the cli that imports it, sees them all.
    """
    states = []

    def recording(seed, row):
        rng = row_generator(seed, row)
        states.append(tuple(rng.bit_generator.seed_seq.generate_state(4)))
        return rng

    monkeypatch.setattr(detector, "row_generator", recording)
    monkeypatch.setattr(cli, "row_generator", recording)
    cfg = load_config()
    m_scans = cfg.section("scan")["m_scans"]
    n_fluences = len(cfg.section("fluence_series")["fluences"])
    n_powers = len(cfg.section("shot_noise")["powers_mw"])
    for argv, n_streams in (
        (["scan"], m_scans + 1),
        (["fluence"], n_fluences * m_scans),
        (["shot-noise"], n_powers),
    ):
        states.clear()
        assert cli.main(argv + ["--out", str(tmp_path / argv[0])]) == 0
        assert len(states) == n_streams
        assert len(set(states)) == len(states)


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
    assert fit["mu_s_injected"] == 0.2
    # r grows with fluence; quadrature rows stay physical.
    rs = [row[1] for row in fit["r_per_fluence"]]
    assert rs == sorted(rs)
    for _, low, high in fit["quad_uncertainties"]:
        assert low * high >= 0.25 - 1e-9


def test_fluence_needs_three_points(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        FAST_SCAN + "fluence_series:\n  fluences: [5.0, 17.0]\n",
    )
    out = tmp_path / "o"
    assert cli.main(["fluence", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "fluence: config error: fluence_series.fluences: need at least 3 entries\n"
    )
    assert not out.exists()


def test_config_error_exit_codes(tmp_path, capsys):
    bad = write_cfg(tmp_path, "pump:\n  mu_squeeze: -0.1\n")
    assert cli.main(["scan", "--config", bad, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("scan: config error: pump.mu_squeeze")
    missing = str(tmp_path / "nope.yaml")
    assert cli.main(["predict", "--config", missing]) == 2
    assert capsys.readouterr().err.startswith("predict: config error: config: cannot read")
    # The probe has one phase key, phase_diff = theta_prime - theta_y.
    two_phases = write_cfg(tmp_path, "probe:\n  theta_prime: 0.2\n  theta_y: 0.1\n")
    assert cli.main(["predict", "--config", two_phases, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "predict: config error: probe: unknown key(s): theta_prime, theta_y\n"
    )
    # |nu|^2 is set by pump.nu_amp alone: nu_amp = sqrt(conversion * fluence).
    preset = write_cfg(tmp_path, "scan:\n  fluence: 2.0\n")
    assert cli.main(["scan", "--config", preset, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "scan: config error: scan: unknown key(s): fluence\n"


def test_two_omega_above_nyquist_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bath:\n  frequency_thz: 30\n")
    for command in ("predict", "scan", "fluence"):
        out = tmp_path / command
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: config error: bath.frequency_thz:")
        assert "scan.step_ps" in err
        assert not out.exists()


def test_import_and_light_commands_load_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    fluence = write_cfg(tmp_path, "scan:\n  stop_ps: 5.10\n", "fluence.yaml")
    shot_noise = write_cfg(tmp_path, "shot_noise:\n  n_pulses: 200\n", "shot.yaml")
    run = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(tmp_path / "out"), fluence, shot_noise],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr


def test_oracle_numerical_error_exit_code(tmp_path, monkeypatch, capsys):
    def fake_cross_validate(cases, fault_scale):
        raise TruncationError("phonon cutoff 32 too small")

    monkeypatch.setattr(cli, "cross_validate", fake_cross_validate)
    assert cli.main(["oracle", "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        "oracle: numerical error: phonon cutoff 32 too small\n"
    )
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_oracle_exit_and_report_via_stub(tmp_path, monkeypatch, capsys):
    """Exit-code mapping for oracle outcomes, decoupled from runtime."""
    case = CrossCheckCase(0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 5.0, 0.0)
    seen = {"elapsed_s": 0.01}

    def fake_cross_validate(cases, fault_scale):
        seen["fault_scale"] = fault_scale
        failed = fault_scale > 0
        return [
            CrossCheckResult(
                case=case,
                moment_errors={"pump_mean_b": 0.0},
                mean_error=0.0,
                var_error=fault_scale,
                phonon_dim=32,
                elapsed_s=seen["elapsed_s"],
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

    # Timings reach stderr only: runs that differ in nothing else write
    # the same report and the same manifest.
    capsys.readouterr()
    seen["elapsed_s"] = 2.5
    out3 = tmp_path / "slow"
    assert cli.main(["oracle", "--out", str(out3)]) == 0
    assert capsys.readouterr().err == "oracle: 1 cases in 2.50 s\n"
    for name in ("oracle_report.json", "manifest.json"):
        assert (out3 / name).read_bytes() == (out / name).read_bytes()


def test_oracle_seed_picks_the_grid(tmp_path, monkeypatch):
    """oracle cross-validates default_grid(scan.seed), so --seed N runs N's grid."""
    grids = []

    def fake_cross_validate(cases, fault_scale):
        grids.append(cases)
        return [
            CrossCheckResult(cases[0], {"pump_mean_b": 0.0}, 0.0, 0.0, 32, 0.0, True)
        ]

    monkeypatch.setattr(cli, "cross_validate", fake_cross_validate)
    assert cli.main(["oracle", "--seed", "7", "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["oracle", "--out", str(tmp_path / "b")]) == 0
    default_seed = load_config().section("scan")["seed"]
    assert grids == [default_grid(7), default_grid(default_seed)]


def test_oracle_seed_changes_the_report(tmp_path):
    default, seeded = tmp_path / "default", tmp_path / "seeded"
    assert cli.main(["oracle", "--out", str(default)]) == 0
    assert cli.main(["oracle", "--seed", "1", "--out", str(seeded)]) == 0
    report = read_json(seeded / "oracle_report.json")
    assert report["all_passed"] is True
    assert report != read_json(default / "oracle_report.json")
    assert manifest_checks(seeded, "oracle")["seed"] == 1


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


def row_by_row_csv(header, rows) -> str:
    """The CSV writer's former value-by-value formatting, the reference."""

    def fmt(value):
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            return str(int(value))
        return repr(float(value))

    lines = [",".join(header), *(",".join(fmt(v) for v in row) for row in rows)]
    return "\n".join(lines) + "\n"


ROWS = cli._CSV_ROWS
SPECIAL = np.array(
    [0.0, -0.0, 0.1, 1e-5, 1e16, 123456789.125, 5e-324, np.nan, np.inf, -np.inf]
)


def edge_table(n_rows):
    """Columns of every kind the writer formats, with SPECIAL on both
    sides of every block edge and integers running across it."""
    rng = np.random.default_rng(n_rows)
    floats = rng.normal(size=n_rows) * 10.0 ** rng.integers(-8, 17, n_rows)
    k = SPECIAL.size
    for edge in range(0, n_rows + 1, ROWS):
        before, after = floats[max(edge - k, 0) : edge], floats[edge : edge + k]
        before[:] = SPECIAL[k - before.size :]
        after[:] = SPECIAL[::-1][: after.size]
    return [
        np.arange(n_rows) - 3,
        floats,
        np.arange(n_rows, dtype=np.uint8),
        floats.astype(np.float32),
        np.arange(n_rows) % 2 == 0,
        floats.tolist(),
    ]


def test_csv_writer_matches_row_by_row_formatting(tmp_path):
    path = tmp_path / "t.csv"
    for n_rows in (0, 10, ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 7):
        columns = edge_table(n_rows)
        header = [f"c{k}" for k in range(len(columns))]
        digest = cli._write_csv(path, header, columns)
        expected = row_by_row_csv(header, zip(*columns)).encode()
        assert path.read_bytes() == expected, n_rows
        assert digest == hashlib.sha256(expected).hexdigest()


def test_csv_length_mismatch_leaves_the_file_untouched(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"before\n")
    for columns in ([[1.0], [1.0, 2.0]], [np.zeros(ROWS + 1), np.zeros(ROWS)]):
        with pytest.raises(ValueError):
            cli._write_csv(path, ["a", "b"], columns)
        assert path.read_bytes() == b"before\n"


def csv_peak_mb(path, n_freqs):
    """tracemalloc's peak over one _write_csv call on a (freq, delay, power)
    table: n_freqs repeated frequencies x 512 tiled delays, random powers."""
    rng = np.random.default_rng(0)
    delays = np.arange(512) * 0.02
    columns = [
        np.repeat(np.sort(rng.random(n_freqs)), delays.size),
        np.tile(delays, n_freqs),
        rng.random(n_freqs * delays.size),
    ]
    tracemalloc.start()
    try:
        cli._write_csv(path, ["freq_thz", "delay_ps", "power"], columns)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_csv_writer_memory_is_bounded_by_a_block(tmp_path):
    # 33 x 512 = 16,896 rows, over three times the largest file a default
    # run writes (scan_per_scan.csv, 5,120 rows); the file's whole text
    # would take several MB, and four times as much at 4x the rows.
    peak = csv_peak_mb(tmp_path / "a.csv", 33)
    assert peak <= 1.5
    assert csv_peak_mb(tmp_path / "b.csv", 4 * 33) <= 1.25 * peak


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
