"""Layered YAML configuration: validation, overrides, typed builders."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import isrsim.cli as cli
from isrsim.config import (
    _SCHEMA,
    _YAML_LOADER,
    ConfigError,
    RunConfig,
    default_mapping,
    load_config,
    validate_mapping,
)
from isrsim.detector import calibrated_gain
from isrsim.states import pump_coefficients

N_300K = 1.178733690798772
DEFAULTS = Path(__file__).resolve().parents[1] / "src" / "isrsim" / "defaults.yaml"


def write(tmp_path, text, name="run.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_defaults_load_and_grid_shape():
    cfg = load_config()
    delays = cfg.scan_delays()
    assert delays.size == 512
    assert delays[0] == 0.0
    assert delays[1] - delays[0] == pytest.approx(0.02, rel=1e-12)
    assert delays[-1] == pytest.approx(10.22, rel=1e-9)


def test_typed_builders_from_defaults():
    cfg = load_config()
    bath = cfg.bath_spec()
    assert bath.omega_rad_ps == pytest.approx(2.0 * math.pi * 3.84, rel=1e-12)
    assert bath.damping_rate == pytest.approx(2.0 / 7.0, rel=1e-12)
    # n_bath null: relaxation target copies the 300 K occupation.
    assert bath.n_bath == pytest.approx(N_300K, rel=1e-12)
    assert cfg.initial_occupation() == pytest.approx(N_300K, rel=1e-12)

    pump = cfg.pump_spec()
    assert pump.mu_squeeze == 0.2
    assert abs(pump.nu_amplitude) ** 2 == pytest.approx(2.0, rel=1e-12)
    # The couplings are per |nu|^2: the drives are mu |nu|^2, to the bit.
    assert pump_coefficients(pump) == (100.00000000000003, 0.40000000000000013)

    det = cfg.detector_spec()
    assert det.gain_v_per_photon == pytest.approx(
        calibrated_gain(1.0e6, 0.94), rel=1e-12
    )
    assert det.electronic_var == 0.1

    probe = cfg.probe_spec()
    assert probe.coupling_norm == 0.05
    assert probe.intensity_y == 1.0e6


def test_fluence_builders():
    cfg = load_config()
    pump = cfg.fluence_pump_spec(8.0)
    assert abs(pump.nu_amplitude) == pytest.approx(
        math.sqrt(0.15 * 8.0), rel=1e-12
    )
    # Only |nu| moves with the fluence; every other pump field is the config's.
    assert pump == replace(cfg.pump_spec(), nu_amplitude=math.sqrt(0.15 * 8.0))
    probe = cfg.fluence_probe_spec()
    assert probe.coupling_norm == 0.3
    assert probe == replace(cfg.probe_spec(), coupling_norm=0.3)


def test_fluence_probe_spec_null_coupling_keeps_the_probe(tmp_path):
    cfg = load_config(write(tmp_path, "fluence_series:\n  coupling_norm: null\n"))
    assert cfg.fluence_probe_spec() == cfg.probe_spec()


def test_probe_phase_diff_reaches_the_probe_spec(tmp_path):
    cfg = load_config(write(tmp_path, "probe:\n  phase_diff: 0.7\n"))
    assert cfg.probe_spec().phase_diff == 0.7
    assert cfg.fluence_probe_spec().phase_diff == 0.7


def test_file_overrides_and_flag_precedence(tmp_path):
    path = write(
        tmp_path,
        "scan:\n  seed: 77\n  stop_ps: 5.1\nbath:\n  n_bath: 0.4\n",
    )
    cfg = load_config(path)
    assert cfg.section("scan")["seed"] == 77
    assert cfg.section("scan")["stop_ps"] == 5.1
    # Untouched keys keep their defaults.
    assert cfg.section("scan")["step_ps"] == 0.02
    assert cfg.bath_spec().n_bath == 0.4

    flagged = load_config(path, seed=123, out_dir="elsewhere")
    assert flagged.section("scan")["seed"] == 123
    assert flagged.section("outputs")["directory"] == "elsewhere"


def test_overrides_do_not_leak_into_later_loads(tmp_path):
    """The parsed defaults are cached; each load must still start from them."""
    fresh = load_config()
    load_config(seed=5, out_dir=str(tmp_path / "elsewhere"))
    load_config(write(tmp_path, "scan:\n  m_scans: 3\n"))
    default_mapping()["pump"]["mu_squeeze"] = 7.0
    again = load_config()
    assert again.data == fresh.data
    assert again.section("scan")["seed"] == 20260814
    assert again.section("scan")["m_scans"] == 10
    assert again.section("outputs")["directory"] == fresh.section("outputs")["directory"]


def test_hash_ignores_output_destination(tmp_path):
    cfg_a = load_config(out_dir="a")
    cfg_b = load_config(out_dir="b")
    assert cfg_a.sha256() == cfg_b.sha256()
    assert cfg_a.data != cfg_b.data
    # Physics changes do move the digest.
    other = load_config(write(tmp_path, "pump:\n  mu_squeeze: 0.003\n"))
    assert other.sha256() != cfg_a.sha256()


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write(tmp_path, "pump:\n  mu_sqeeze: 0.1\n"))
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write(tmp_path, "laser:\n  power: 1.0\n"))


def test_bad_values_report_field_paths(tmp_path):
    with pytest.raises(ConfigError, match="scan.step_ps"):
        load_config(write(tmp_path, "scan:\n  step_ps: 0.0\n"))
    with pytest.raises(ConfigError, match="bath.frequency_thz"):
        load_config(write(tmp_path, "bath:\n  frequency_thz: -3.0\n"))
    with pytest.raises(ConfigError, match="detector.quantum_efficiency"):
        load_config(write(tmp_path, "detector:\n  quantum_efficiency: 1.5\n"))
    # YAML booleans are not numbers.
    with pytest.raises(ConfigError, match="expected a number"):
        load_config(write(tmp_path, "probe:\n  intensity_y: true\n"))
    with pytest.raises(ConfigError, match="expected an integer"):
        load_config(write(tmp_path, "scan:\n  n_pulses: 4000.5\n"))


def test_scan_grid_rules(tmp_path):
    with pytest.raises(ConfigError, match="greater than"):
        load_config(write(tmp_path, "scan:\n  stop_ps: 0.0\n"))
    with pytest.raises(ConfigError, match="at least 16"):
        load_config(write(tmp_path, "scan:\n  stop_ps: 0.1\n"))


def test_second_harmonic_must_lie_below_nyquist(tmp_path):
    # The default step_ps 0.02 puts Nyquist at 25 THz: a 2 Omega line at
    # 25.1 THz would alias, and one at 60 THz falls off the spectrum.
    for freq, two_omega in ((12.5, "25.0"), (12.55, "25.1"), (30, "60.0")):
        with pytest.raises(ConfigError) as info:
            load_config(write(tmp_path, f"bath:\n  frequency_thz: {freq}\n"))
        assert str(info.value) == (
            f"bath.frequency_thz: its second harmonic, {two_omega} THz, is not below "
            "the Nyquist frequency 1/(2 scan.step_ps) = 25.0 THz; lower "
            "bath.frequency_thz or scan.step_ps"
        )
    # A finer delay grid admits the same mode.
    cfg = load_config(write(tmp_path, "bath:\n  frequency_thz: 12.55\nscan:\n  step_ps: 0.01\n"))
    assert cfg.section("bath")["frequency_thz"] == 12.55


def test_fluence_and_shot_noise_lists(tmp_path):
    with pytest.raises(ConfigError, match="fluence_series.fluences"):
        load_config(write(tmp_path, "fluence_series:\n  fluences: []\n"))
    with pytest.raises(ConfigError, match="at least 3"):
        load_config(write(tmp_path, "shot_noise:\n  powers_mw: [1.0, 2.0]\n"))
    with pytest.raises(ConfigError, match="fluences\\[1\\]"):
        load_config(
            write(tmp_path, "fluence_series:\n  fluences: [1.0, -2.0, 3.0]\n")
        )
    # The fluence fit takes three points: fewer is refused before any scan runs.
    with pytest.raises(ConfigError, match="^fluence_series.fluences: need at least 3"):
        load_config(write(tmp_path, "fluence_series:\n  fluences: [2.0, 5.0]\n"))
    # fluence_series.csv writes the fluences next to the fit's sorted
    # columns, so they must rise like the powers below.
    for fluences, index in (("8.0, 2.0, 5.0", 1), ("2.0, 5.0, 5.0", 2)):
        path = write(tmp_path, f"fluence_series:\n  fluences: [{fluences}]\n")
        with pytest.raises(ConfigError, match=rf"^fluence_series.fluences\[{index}\]: must exceed"):
            load_config(path)
    # Equal powers leave the line fit singular, and unsorted ones would
    # report another power's variance as the top power's.
    for powers, index in (("1.0, 1.0, 1.0", 1), ("2.5, 0.25, 1.0", 1), ("0.25, 0.5, 0.5", 2)):
        path = write(tmp_path, f"shot_noise:\n  powers_mw: [{powers}]\n")
        with pytest.raises(ConfigError, match=rf"^shot_noise.powers_mw\[{index}\]: must exceed"):
            load_config(path)


def test_outputs_rules(tmp_path):
    with pytest.raises(ConfigError, match="formats"):
        load_config(write(tmp_path, "outputs:\n  formats: [csv, csv]\n"))
    with pytest.raises(ConfigError, match="formats"):
        load_config(write(tmp_path, "outputs:\n  formats: [xml]\n"))
    with pytest.raises(ConfigError, match="directory"):
        load_config(write(tmp_path, "outputs:\n  directory: ''\n"))


def test_libyaml_and_python_loaders_agree_on_the_defaults():
    # tests/test_readme.py checks README's override example the same way.
    text = DEFAULTS.read_text()
    assert yaml.load(text, Loader=yaml.SafeLoader) == yaml.load(text, Loader=_YAML_LOADER)


def test_missing_or_malformed_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.yaml"))
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(write(tmp_path, "scan: [unclosed\n"))
    with pytest.raises(ConfigError, match="mapping"):
        load_config(write(tmp_path, "- just\n- a\n- list\n"))


@pytest.mark.parametrize(
    "section,key", [(section, key) for section, rules in _SCHEMA.items() for key in rules]
)
def test_every_rule_rejects_a_wrong_type(section, key):
    mapping = default_mapping()
    mapping[section][key] = {"wrong": "type"}
    with pytest.raises(ConfigError, match=f"^{section}\\.{key}: "):
        validate_mapping(mapping)


def test_rule_table_and_defaults_declare_the_same_keys():
    """An optional key cannot drop out of defaults.yaml unnoticed.

    The one exception is scan.statistics_only, retired but still accepted
    as true or absent while the perfbench fluence_loop config sets it.
    """
    declared = {section: set(rules) for section, rules in _SCHEMA.items()}
    declared["scan"].remove("statistics_only")
    assert declared == {section: set(keys) for section, keys in default_mapping().items()}


def test_statistics_only_true_or_absent_is_the_same_run(tmp_path):
    """Every scan samples burst statistics; the retired key changes nothing."""
    absent = load_config()
    true = load_config(write(tmp_path, "scan:\n  statistics_only: true\n"))
    assert "statistics_only" not in absent.section("scan")
    assert true.data == absent.data
    assert true.sha256() == absent.sha256()


@pytest.mark.parametrize("value,shown", [("false", "False"), ("1", "1")])
def test_statistics_only_other_than_true_exits_with_a_config_error(
    tmp_path, capsys, value, shown
):
    path = write(tmp_path, f"scan:\n  statistics_only: {value}\n")
    assert cli.main(["scan", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "scan: config error: scan.statistics_only: per-pulse sampling was removed; "
        f"every scan samples burst statistics, so drop the key (got {shown})\n"
    )
    assert not (tmp_path / "o").exists()


def test_missing_section_rejected():
    mapping = default_mapping()
    del mapping["shot_noise"]
    with pytest.raises(ConfigError, match="^shot_noise: section is missing"):
        validate_mapping(mapping)


def test_seed_flag_validation():
    with pytest.raises(ConfigError, match="--seed"):
        load_config(seed=-1)


@pytest.mark.parametrize(
    "text,message",
    [
        # The pump drives through its intensity |nu|^2, so it has no phase.
        ("pump:\n  nu_phase: 0.3\n", "pump: unknown key(s): nu_phase"),
        # The oracle runs a fixed grid and grows its cutoffs itself.
        ("oracle:\n  max_phonon_dim: 24\n", "config: unknown key(s): oracle"),
        # The couplings are per |nu|^2: fold a mode count into mu_displace and mu_squeeze.
        ("pump:\n  k_modes: 100\n", "pump: unknown key(s): k_modes"),
        # The detector's noise is shot noise plus electronic noise; there is no drift.
        ("detector:\n  drift_rms_v: 0.0\n", "detector: unknown key(s): drift_rms_v"),
    ],
    ids=["nu_phase", "oracle", "k_modes", "drift_rms_v"],
)
def test_removed_keys_exit_with_a_config_error(tmp_path, capsys, text, message):
    path = write(tmp_path, text)
    assert cli.main(["predict", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"predict: config error: {message}\n"


def test_validated_tree_round_trips_through_builders():
    cfg = load_config()
    assert isinstance(cfg, RunConfig)
    # The resolved tree revalidates cleanly (idempotent validation).
    assert validate_mapping(cfg.data) == cfg.data
