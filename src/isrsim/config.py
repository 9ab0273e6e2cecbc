"""Layered run configuration with strict validation.

A run is described by one YAML mapping. The packaged defaults supply
every key; a user file overrides any subset; command-line flags win
last. Validation is all-or-nothing and happens before any computation,
with field-level error paths like ``scan.step_ps``. Unknown sections or
keys are rejected rather than ignored, so typos cannot silently fall
back to defaults. Each key's type and range are declared once, in the
rule table _SCHEMA.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
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


# libyaml's C parser when PyYAML was built with it: about ten times faster.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class ConfigError(ValueError):
    """Invalid, unknown, or missing configuration content."""


def _number(
    value,
    path: str,
    minimum: float | None = None,
    exclusive: bool = False,
    allow_none: bool = False,
    maximum: float | None = None,
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
    if maximum is not None and out > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {out}")
    return out


def _integer(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return int(value)


def _retired_statistics_only(value, path: str) -> None:
    """The per-pulse switch, gone: true or absent, and read by no code.

    Every scan samples burst statistics. The key stays only because the
    perfbench fluence_loop config sets it true; it leaves the schema with
    the bench-scoped change of ROADMAP items 1 and 14.
    """
    if value is not None and value is not True:
        raise ConfigError(
            f"{path}: per-pulse sampling was removed; every scan samples burst "
            f"statistics, so drop the key (got {value!r})"
        )


def _number_list(value, path: str, increasing: bool = False) -> list[float]:
    """At least 3 numbers (the fewest either fit takes), each > 0, rising if asked."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of numbers")
    if len(value) < 3:
        raise ConfigError(f"{path}: need at least 3 entries")
    out = [
        _number(v, f"{path}[{i}]", minimum=0.0, exclusive=True)
        for i, v in enumerate(value)
    ]
    if increasing:
        for i in range(1, len(out)):
            if out[i] <= out[i - 1]:
                raise ConfigError(f"{path}[{i}]: must exceed the entry before, {out[i-1]}")
    return out


def _directory(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}: expected a non-empty string")
    return value


def _formats(value, path: str) -> list[str]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{path}: expected a non-empty list")
    seen = []
    for i, fmt in enumerate(value):
        if fmt not in ("csv", "json"):
            raise ConfigError(f"{path}[{i}]: must be 'csv' or 'json', got {fmt!r}")
        if fmt in seen:
            raise ConfigError(f"{path}[{i}]: duplicate entry {fmt!r}")
        seen.append(fmt)
    return seen


def _check_keys(path: str, mapping: Mapping, allowed) -> None:
    if not isinstance(mapping, Mapping):
        raise ConfigError(f"{path}: expected a mapping")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s): {', '.join(unknown)}")


_positive = partial(_number, minimum=0.0, exclusive=True)
_nonnegative = partial(_number, minimum=0.0)

# Every config key, with the one rule that declares its type and range:
# section -> key -> rule(value, path) returning the resolved value, a
# check above with its bounds fixed.
_SCHEMA = {
    "pump": {
        "mu_displace": _nonnegative,
        "mu_squeeze": _nonnegative,
        "nu_amp": _nonnegative,
    },
    "bath": {
        "frequency_thz": _positive,
        "damping_rate": _nonnegative,
        "temperature_k": _positive,
        "n_bath": partial(_number, minimum=0.0, allow_none=True),
    },
    "probe": {
        "coupling_norm": _nonnegative,
        "phase_diff": _number,
        "intensity_y": _nonnegative,
    },
    "detector": {
        "quantum_efficiency": partial(_number, minimum=0.0, exclusive=True, maximum=1),
        "gain_v_per_photon": partial(_number, minimum=0.0, exclusive=True, allow_none=True),
        "electronic_var": _nonnegative,
        "ref_mean_photons": partial(_number, minimum=0.0, allow_none=True),
        "unbalance_v": _number,
    },
    "scan": {
        "start_ps": _nonnegative,
        "stop_ps": _number,
        "step_ps": _positive,
        "n_pulses": partial(_integer, minimum=2),
        "m_scans": partial(_integer, minimum=1),
        "seed": partial(_integer, minimum=0),
        "statistics_only": _retired_statistics_only,
    },
    "fluence_series": {
        "fluences": partial(_number_list, increasing=True),
        "conversion": _positive,
        "coupling_norm": partial(_number, minimum=0.0, allow_none=True),
    },
    "shot_noise": {
        "powers_mw": partial(_number_list, increasing=True),
        "n_pulses": partial(_integer, minimum=2),
    },
    "outputs": {"directory": _directory, "formats": _formats},
}


def _delay_count(scan: Mapping) -> int:
    """Delays from start_ps in steps of step_ps up to stop_ps (inclusive)."""
    return int(math.floor((scan["stop_ps"] - scan["start_ps"]) / scan["step_ps"] + 1e-9)) + 1


def validate_mapping(mapping: Mapping) -> dict:
    """Full-schema validation; returns the resolved plain-float tree."""
    _check_keys("config", mapping, _SCHEMA)
    out = {}
    for name, rules in _SCHEMA.items():
        section = mapping.get(name)
        if section is None:
            raise ConfigError(f"{name}: section is missing")
        _check_keys(name, section, rules)
        out[name] = {
            key: rule(section.get(key), f"{name}.{key}") for key, rule in rules.items()
        }
    scan = out["scan"]
    # Validated, never resolved: the retired key changes no run or its hash.
    del scan["statistics_only"]
    if scan["stop_ps"] <= scan["start_ps"]:
        raise ConfigError("scan.stop_ps: must be greater than scan.start_ps")
    n_delays = _delay_count(scan)
    if n_delays < 16:
        raise ConfigError(
            f"scan: the delay grid has {n_delays} points; need at least 16 for spectra"
        )
    # Every analysis reads the 2 Omega line; above Nyquist it would alias.
    nyquist = 0.5 / scan["step_ps"]
    two_omega = 2.0 * out["bath"]["frequency_thz"]
    if two_omega >= nyquist:
        raise ConfigError(
            f"bath.frequency_thz: its second harmonic, {two_omega} THz, is not below "
            f"the Nyquist frequency 1/(2 scan.step_ps) = {nyquist} THz; lower "
            "bath.frequency_thz or scan.step_ps"
        )
    return out


@lru_cache(maxsize=1)
def _parsed_defaults() -> dict:
    text = resources.files("isrsim").joinpath("defaults.yaml").read_text()
    return yaml.load(text, Loader=_YAML_LOADER)


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
                user = yaml.load(fh, Loader=_YAML_LOADER)
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
    def sha256(self) -> str:
        """Digest of everything that determines the output values.

        The outputs section (destination directory, formats) is excluded:
        two runs that differ only in where they write are the same run.
        """
        physics = {k: v for k, v in self.data.items() if k != "outputs"}
        canon = json.dumps(physics, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    # -- typed builders ---------------------------------------------------
    def pump_spec(self) -> PumpSpec:
        p = self.data["pump"]
        return PumpSpec(
            mu_displace=p["mu_displace"],
            mu_squeeze=p["mu_squeeze"],
            nu_amplitude=p["nu_amp"],
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

    def probe_spec(self) -> ProbeSpec:
        p = self.data["probe"]
        return ProbeSpec(
            coupling_norm=p["coupling_norm"],
            phase_diff=p["phase_diff"],
            intensity_y=p["intensity_y"],
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
        )

    def scan_delays(self) -> np.ndarray:
        s = self.data["scan"]
        return s["start_ps"] + s["step_ps"] * np.arange(_delay_count(s))

    def fluence_pump_spec(self, fluence: float) -> PumpSpec:
        """The pump at one fluence: |nu|^2 = conversion * fluence."""
        conv = self.data["fluence_series"]["conversion"]
        return replace(self.pump_spec(), nu_amplitude=math.sqrt(conv * fluence))

    def fluence_probe_spec(self) -> ProbeSpec:
        """The probe of the fluence study; a null coupling_norm keeps probe's."""
        probe = self.probe_spec()
        coupling = self.data["fluence_series"]["coupling_norm"]
        return probe if coupling is None else replace(probe, coupling_norm=coupling)
