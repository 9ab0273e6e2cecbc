"""Layered run configuration with strict validation.

A run is described by one YAML mapping. The packaged defaults supply
every key; a user file overrides any subset; command-line flags win
last. Validation is all-or-nothing and happens before any computation,
with field-level error paths like ``scan.step_ps``. Unknown sections or
keys are rejected rather than ignored, so typos cannot silently fall
back to defaults.
"""

from __future__ import annotations

import cmath
import copy
import functools
import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Any, Mapping

import numpy as np
import yaml

from .detector import DetectorSpec, calibrated_gain
from .probe import ProbeSpec
from .states import (
    BathSpec,
    PumpSpec,
    beta_omega_from_temperature,
    thermal_occupation,
)


class ConfigError(ValueError):
    """Invalid, unknown, or missing configuration content."""


def _number(
    value,
    path: str,
    minimum: float | None = None,
    exclusive: bool = False,
    allow_none: bool = False,
):
    if value is None:
        if allow_none:
            return None
        raise ConfigError(f"{path}: a number is required")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{path}: must be finite")
    if minimum is not None:
        if exclusive and out <= minimum:
            raise ConfigError(f"{path}: must be > {minimum}, got {out}")
        if not exclusive and out < minimum:
            raise ConfigError(f"{path}: must be >= {minimum}, got {out}")
    return out


def _integer(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return int(value)


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
    return value


def _number_list(
    value, path: str, minimum: float | None = None, min_len: int = 1
) -> list[float]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of numbers")
    if len(value) < min_len:
        raise ConfigError(f"{path}: need at least {min_len} entries")
    return [
        _number(v, f"{path}[{i}]", minimum=minimum, exclusive=True)
        for i, v in enumerate(value)
    ]


def _check_keys(path: str, mapping: Mapping, allowed) -> None:
    if not isinstance(mapping, Mapping):
        raise ConfigError(f"{path}: expected a mapping")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s): {', '.join(unknown)}")


def _validate_pump(sec: Mapping) -> dict:
    _check_keys("pump", sec, ("mu_displace", "mu_squeeze", "k_modes", "nu_amp", "nu_phase"))
    return {
        "mu_displace": _number(sec.get("mu_displace"), "pump.mu_displace", minimum=0.0),
        "mu_squeeze": _number(sec.get("mu_squeeze"), "pump.mu_squeeze", minimum=0.0),
        "k_modes": _integer(sec.get("k_modes"), "pump.k_modes", minimum=1),
        "nu_amp": _number(sec.get("nu_amp"), "pump.nu_amp", minimum=0.0),
        "nu_phase": _number(sec.get("nu_phase"), "pump.nu_phase"),
    }


def _validate_bath(sec: Mapping) -> dict:
    _check_keys("bath", sec, ("frequency_thz", "damping_rate", "temperature_k", "n_bath"))
    return {
        "frequency_thz": _number(
            sec.get("frequency_thz"), "bath.frequency_thz", minimum=0.0, exclusive=True
        ),
        "damping_rate": _number(sec.get("damping_rate"), "bath.damping_rate", minimum=0.0),
        "temperature_k": _number(
            sec.get("temperature_k"), "bath.temperature_k", minimum=0.0, exclusive=True
        ),
        "n_bath": _number(sec.get("n_bath"), "bath.n_bath", minimum=0.0, allow_none=True),
    }


def _validate_probe(sec: Mapping) -> dict:
    _check_keys("probe", sec, ("coupling_norm", "theta_prime", "intensity_y", "theta_y"))
    return {
        "coupling_norm": _number(sec.get("coupling_norm"), "probe.coupling_norm", minimum=0.0),
        "theta_prime": _number(sec.get("theta_prime"), "probe.theta_prime"),
        "intensity_y": _number(sec.get("intensity_y"), "probe.intensity_y", minimum=0.0),
        "theta_y": _number(sec.get("theta_y"), "probe.theta_y"),
    }


def _validate_detector(sec: Mapping) -> dict:
    _check_keys(
        "detector",
        sec,
        (
            "quantum_efficiency",
            "gain_v_per_photon",
            "electronic_var",
            "ref_mean_photons",
            "unbalance_v",
            "drift_rms_v",
        ),
    )
    qe = _number(
        sec.get("quantum_efficiency"), "detector.quantum_efficiency", minimum=0.0, exclusive=True
    )
    if qe > 1.0:
        raise ConfigError(f"detector.quantum_efficiency: must be <= 1, got {qe}")
    return {
        "quantum_efficiency": qe,
        "gain_v_per_photon": _number(
            sec.get("gain_v_per_photon"),
            "detector.gain_v_per_photon",
            minimum=0.0,
            exclusive=True,
            allow_none=True,
        ),
        "electronic_var": _number(
            sec.get("electronic_var"), "detector.electronic_var", minimum=0.0
        ),
        "ref_mean_photons": _number(
            sec.get("ref_mean_photons"),
            "detector.ref_mean_photons",
            minimum=0.0,
            allow_none=True,
        ),
        "unbalance_v": _number(sec.get("unbalance_v"), "detector.unbalance_v"),
        "drift_rms_v": _number(sec.get("drift_rms_v"), "detector.drift_rms_v", minimum=0.0),
    }


def _delay_count(scan: Mapping) -> int:
    """Delays from start_ps in steps of step_ps up to stop_ps (inclusive)."""
    return int(math.floor((scan["stop_ps"] - scan["start_ps"]) / scan["step_ps"] + 1e-9)) + 1


def _validate_scan(sec: Mapping) -> dict:
    _check_keys(
        "scan",
        sec,
        (
            "start_ps",
            "stop_ps",
            "step_ps",
            "n_pulses",
            "m_scans",
            "seed",
            "statistics_only",
            "fluence",
        ),
    )
    out = {
        "start_ps": _number(sec.get("start_ps"), "scan.start_ps", minimum=0.0),
        "stop_ps": _number(sec.get("stop_ps"), "scan.stop_ps"),
        "step_ps": _number(sec.get("step_ps"), "scan.step_ps", minimum=0.0, exclusive=True),
        "n_pulses": _integer(sec.get("n_pulses"), "scan.n_pulses", minimum=2),
        "m_scans": _integer(sec.get("m_scans"), "scan.m_scans", minimum=1),
        "seed": _integer(sec.get("seed"), "scan.seed", minimum=0),
        "statistics_only": _boolean(sec.get("statistics_only"), "scan.statistics_only"),
        "fluence": _number(
            sec.get("fluence"), "scan.fluence", minimum=0.0, exclusive=True, allow_none=True
        ),
    }
    if out["stop_ps"] <= out["start_ps"]:
        raise ConfigError("scan.stop_ps: must be greater than scan.start_ps")
    n_delays = _delay_count(out)
    if n_delays < 16:
        raise ConfigError(
            f"scan: the delay grid has {n_delays} points; need at least 16 for spectra"
        )
    return out


def _validate_fluence(sec: Mapping) -> dict:
    _check_keys("fluence_series", sec, ("fluences", "conversion", "coupling_norm"))
    return {
        "fluences": _number_list(
            sec.get("fluences"), "fluence_series.fluences", minimum=0.0, min_len=1
        ),
        "conversion": _number(
            sec.get("conversion"), "fluence_series.conversion", minimum=0.0, exclusive=True
        ),
        "coupling_norm": _number(
            sec.get("coupling_norm"),
            "fluence_series.coupling_norm",
            minimum=0.0,
            allow_none=True,
        ),
    }


def _validate_shot_noise(sec: Mapping) -> dict:
    _check_keys("shot_noise", sec, ("powers_mw", "n_pulses"))
    return {
        "powers_mw": _number_list(
            sec.get("powers_mw"), "shot_noise.powers_mw", minimum=0.0, min_len=3
        ),
        "n_pulses": _integer(sec.get("n_pulses"), "shot_noise.n_pulses", minimum=2),
    }


def _validate_outputs(sec: Mapping) -> dict:
    _check_keys("outputs", sec, ("directory", "formats"))
    directory = sec.get("directory")
    if not isinstance(directory, str) or not directory:
        raise ConfigError("outputs.directory: expected a non-empty string")
    formats = sec.get("formats")
    if not isinstance(formats, (list, tuple)) or not formats:
        raise ConfigError("outputs.formats: expected a non-empty list")
    seen = []
    for i, fmt in enumerate(formats):
        if fmt not in ("csv", "json"):
            raise ConfigError(f"outputs.formats[{i}]: must be 'csv' or 'json', got {fmt!r}")
        if fmt in seen:
            raise ConfigError(f"outputs.formats[{i}]: duplicate entry {fmt!r}")
        seen.append(fmt)
    return {"directory": directory, "formats": seen}


def _validate_oracle(sec: Mapping) -> dict:
    _check_keys("oracle", sec, ("photon_dim", "max_phonon_dim"))
    out = {
        "photon_dim": _integer(sec.get("photon_dim"), "oracle.photon_dim", minimum=2),
        "max_phonon_dim": sec.get("max_phonon_dim"),
    }
    if out["max_phonon_dim"] is not None:
        out["max_phonon_dim"] = _integer(
            out["max_phonon_dim"], "oracle.max_phonon_dim", minimum=2
        )
    return out


_VALIDATORS = {
    "pump": _validate_pump,
    "bath": _validate_bath,
    "probe": _validate_probe,
    "detector": _validate_detector,
    "scan": _validate_scan,
    "fluence_series": _validate_fluence,
    "shot_noise": _validate_shot_noise,
    "outputs": _validate_outputs,
    "oracle": _validate_oracle,
}


def validate_mapping(mapping: Mapping) -> dict:
    """Full-schema validation; returns the resolved plain-float tree."""
    _check_keys("config", mapping, _VALIDATORS)
    out = {}
    for name, validator in _VALIDATORS.items():
        section = mapping.get(name)
        if section is None:
            raise ConfigError(f"{name}: section is missing")
        out[name] = validator(section)
    return out


@functools.lru_cache(maxsize=1)
def _parsed_defaults() -> dict:
    return yaml.safe_load(resources.files("isrsim").joinpath("defaults.yaml").read_text())


def default_mapping() -> dict:
    """A fresh copy of the packaged defaults, parsed once per process.

    load_config assigns into the copy, so handing out the cached tree
    itself would leak one run's overrides into the next.
    """
    return copy.deepcopy(_parsed_defaults())


def _merge(base: dict, override: Mapping) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, Mapping) and isinstance(merged.get(key), dict):
            merged[key] = dict(merged[key])
            merged[key].update(value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def load_config(
    path: str | None = None,
    seed: int | None = None,
    out_dir: str | None = None,
) -> "RunConfig":
    """Defaults, then the user file, then explicit overrides."""
    base = default_mapping()
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = yaml.safe_load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"config: {path} is not valid YAML: {exc}") from exc
        if user is None:
            user = {}
        if not isinstance(user, Mapping):
            raise ConfigError("config: the file root must be a mapping")
        base = _merge(base, user)
    if seed is not None:
        if seed < 0:
            raise ConfigError(f"--seed: must be >= 0, got {seed}")
        base["scan"] = dict(base.get("scan") or {})
        base["scan"]["seed"] = int(seed)
    if out_dir is not None:
        base["outputs"] = dict(base.get("outputs") or {})
        base["outputs"]["directory"] = str(out_dir)
    return RunConfig(validate_mapping(base))


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration tree plus typed spec builders."""

    data: Mapping[str, Any]

    def section(self, name: str) -> Mapping[str, Any]:
        return self.data[name]

    # -- hashing ---------------------------------------------------------
    def canonical_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        """Digest of everything that determines the output values.

        The outputs section (destination directory, formats) is excluded:
        two runs that differ only in where they write are the same run.
        """
        physics = {k: v for k, v in self.data.items() if k != "outputs"}
        canon = json.dumps(physics, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    # -- typed builders ---------------------------------------------------
    def pump_spec(self, nu_amp: float | None = None) -> PumpSpec:
        p = self.data["pump"]
        amp = p["nu_amp"] if nu_amp is None else nu_amp
        return PumpSpec(
            mu_displace=p["mu_displace"],
            mu_squeeze=p["mu_squeeze"],
            k_modes=p["k_modes"],
            nu_amplitude=amp * cmath.exp(1j * p["nu_phase"]),
        )

    def initial_occupation(self) -> float:
        b = self.data["bath"]
        return thermal_occupation(
            beta_omega_from_temperature(b["frequency_thz"], b["temperature_k"])
        )

    def bath_spec(self) -> BathSpec:
        b = self.data["bath"]
        n = b["n_bath"] if b["n_bath"] is not None else self.initial_occupation()
        return BathSpec(
            omega_rad_ps=2.0 * math.pi * b["frequency_thz"],
            damping_rate=b["damping_rate"],
            n_bath=n,
        )

    def probe_spec(self, coupling_norm: float | None = None) -> ProbeSpec:
        p = self.data["probe"]
        return ProbeSpec(
            coupling_norm=p["coupling_norm"] if coupling_norm is None else coupling_norm,
            theta_prime=p["theta_prime"],
            intensity_y=p["intensity_y"],
            theta_y=p["theta_y"],
        )

    def detector_spec(self) -> DetectorSpec:
        d = self.data["detector"]
        gain = d["gain_v_per_photon"]
        if gain is None:
            gain = calibrated_gain(
                probe_photons=self.data["probe"]["intensity_y"],
                quantum_efficiency=d["quantum_efficiency"],
            )
        return DetectorSpec(
            quantum_efficiency=d["quantum_efficiency"],
            gain_v_per_photon=gain,
            electronic_var=d["electronic_var"],
            ref_mean_photons=d["ref_mean_photons"],
            unbalance_v=d["unbalance_v"],
            drift_rms_v=d["drift_rms_v"],
        )

    def scan_delays(self) -> np.ndarray:
        s = self.data["scan"]
        return s["start_ps"] + s["step_ps"] * np.arange(_delay_count(s))

    def scan_pump_spec(self) -> PumpSpec:
        """Pump for the scan command, honoring the fluence preset."""
        fluence = self.data["scan"]["fluence"]
        if fluence is None:
            return self.pump_spec()
        return self.fluence_pump_spec(fluence)

    def fluence_pump_spec(self, fluence: float) -> PumpSpec:
        conv = self.data["fluence_series"]["conversion"]
        return self.pump_spec(nu_amp=math.sqrt(conv * fluence))

    def fluence_probe_spec(self) -> ProbeSpec:
        coupling = self.data["fluence_series"]["coupling_norm"]
        return self.probe_spec(coupling_norm=coupling)
