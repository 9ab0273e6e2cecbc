"""In-memory span tracer wrapped around the public calls of each isrsim layer.

A span records its name, start, end, parent span, op id, the name of the
exception that left it (or None) and an optional count computed from the
call's arguments. Spans stay in memory; the benchmark reduces them to
per-layer numbers when the run ends.

The package binds many names with ``from .x import y``, so wrapping only
the defining module would miss calls made through the importer's copy.
``Tracer.install`` therefore rebinds every module-level name, in every
loaded ``isrsim`` module, that still refers to a traced original.

The tracer keeps one span stack and so assumes one thread; the benchmark
never passes ``--threads``.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for an op root
    op: int
    error: str | None
    count: float


def _rk4_steps(args, kwargs) -> float:
    """RK4 steps evolve_lindblad_exact takes, from its own step rule."""
    from isrsim.fock import default_step

    state, tau, bath = args[:3]
    dt = args[3] if len(args) > 3 else kwargs.get("dt")
    if tau == 0.0:
        return 0.0
    if dt is None:
        dt = default_step(tau, bath)
    return float(max(1, int(math.ceil(tau / dt))))


def _gen_dim(args, kwargs) -> float:
    """Dimension of probe_exact's dense two-mode generator."""
    photon_dim = args[2] if len(args) > 2 else kwargs.get("photon_dim")
    if photon_dim is None:
        from isrsim.fock import DEFAULT_PHOTON_DIM

        photon_dim = DEFAULT_PHOTON_DIM
    return float(photon_dim * args[0].dim)


def _bytes_written(args, kwargs) -> float:
    """Size of the file a CSV/JSON writer just wrote (first argument)."""
    return float(args[0].stat().st_size)


# (module, function, count hook run after the call returns). A hook's
# count lands on the span; hooks that read the arguments run after the
# span's end time is taken, so they are charged to the parent span.
TRACED = (
    ("isrsim.config", "load_config", None),
    ("isrsim.probe", "predict_trace", None),
    ("isrsim.detector", "scan_experiment", None),
    ("isrsim.detector", "sample_pulse_ensemble", None),
    ("isrsim.detector", "sample_scan_statistics", None),
    ("isrsim.analysis", "detrend_and_fft", None),
    ("isrsim.analysis", "morlet_power", None),
    ("isrsim.analysis", "extract_lifetimes", None),
    ("isrsim.analysis", "fit_fluence_series", None),
    ("isrsim.fock", "cross_validate", None),
    ("isrsim.fock", "build_thermal_fock", None),
    ("isrsim.fock", "embed", None),
    ("isrsim.fock", "truncate", None),
    ("isrsim.fock", "apply_pump_exact", None),
    ("isrsim.fock", "evolve_lindblad_exact", _rk4_steps),
    ("isrsim.fock", "probe_exact", _gen_dim),
    ("isrsim.cli", "main", None),
    ("isrsim.cli", "_write_csv", _bytes_written),
    ("isrsim.cli", "_write_json", _bytes_written),
    ("isrsim.cli", "_write_manifest", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.op = -1
        self.installed: dict[str, object] = {}

    def _wrap(self, name: str, func, hook):
        spans = self.spans
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                count = hook(args, kwargs) if hook and error is None else 0.0
                spans[idx] = Span(name, start, end, parent, self.op, error, count)

        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded isrsim module."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "isrsim" and m]
        for mod_name, attr, hook in TRACED:
            original = getattr(sys.modules[mod_name], attr)
            layer = mod_name.split(".")[1]
            wrapped = self._wrap(f"{layer}.{attr}", original, hook)
            self.installed[f"{layer}.{attr}"] = original
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def unwrapped_bindings(self) -> list[str]:
        """Module attributes that still hold a traced original (should be none)."""
        originals = {id(f) for f in self.installed.values()}
        return [
            f"{n}.{key}"
            for n, m in sys.modules.items()
            if n.split(".")[0] == "isrsim" and m
            for key, value in vars(m).items()
            if id(value) in originals
        ]

    def run_op(self, op: int, fn):
        """Run fn() as op number op, under a root span."""
        self.op = op
        return self._wrap("bench.op", fn, None)()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


LAYERS = ("bench", "cli", "config", "probe", "detector", "analysis", "fock")


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-op per-layer numbers from the spans of n_ops traced ops."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    counts: dict[str, float] = {}
    peaks: dict[str, float] = {}
    returned: dict[str, int] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    op_total = 0.0
    retries = 0
    for s, t in zip(spans, own):
        calls[s.name] = calls.get(s.name, 0) + 1
        selfs[s.name] = selfs.get(s.name, 0.0) + t
        counts[s.name] = counts.get(s.name, 0.0) + s.count
        peaks[s.name] = max(peaks.get(s.name, 0.0), s.count)
        returned[s.name] = returned.get(s.name, 0) + (s.error is None)
        layer_self[s.name.split(".")[0]] += t
        if s.parent < 0:
            op_total += s.end - s.start
        elif s.error == "TruncationError" and spans[s.parent].name == "fock.cross_validate":
            retries += 1  # a stage failure that cross_validate's retry loop caught

    def per_op(table: dict, *names: str) -> float:
        return sum(table.get(n, 0) for n in names) / n_ops

    draws = ("detector.sample_pulse_ensemble", "detector.sample_scan_statistics")
    writers = ("cli._write_csv", "cli._write_json", "cli._write_manifest")
    probe_calls = calls.get("fock.probe_exact", 0)
    out = {
        "detector.cell_draws": per_op(calls, *draws),
        "detector.sample_s": per_op(selfs, *draws),
        "detector.scan_experiment.self_s": per_op(selfs, "detector.scan_experiment"),
        "probe.predict_trace.calls": per_op(calls, "probe.predict_trace"),
        "probe.predict_trace.self_s": per_op(selfs, "probe.predict_trace"),
    }
    sample_s = out["detector.sample_s"]
    out["detector.draws_per_s"] = out["detector.cell_draws"] / sample_s if sample_s else 0.0
    for fn in ("detrend_and_fft", "morlet_power", "extract_lifetimes", "fit_fluence_series"):
        out[f"analysis.{fn}.calls"] = per_op(calls, f"analysis.{fn}")
        out[f"analysis.{fn}.self_s"] = per_op(selfs, f"analysis.{fn}")
    for fn in ("apply_pump_exact", "evolve_lindblad_exact", "probe_exact"):
        out[f"fock.{fn}.self_s"] = per_op(selfs, f"fock.{fn}")
    out["fock.evolve_lindblad_exact.rk4_steps"] = per_op(counts, "fock.evolve_lindblad_exact")
    out["fock.probe_exact.calls"] = per_op(calls, "fock.probe_exact")
    out["fock.probe_exact.useful_ratio"] = (
        returned["fock.probe_exact"] / probe_calls if probe_calls else 0.0
    )
    out["fock.truncation_retries"] = retries / n_ops
    out["fock.probe_exact.gen_dim_max"] = peaks.get("fock.probe_exact", 0.0)
    out["config.load_config.self_s"] = per_op(selfs, "config.load_config")
    out["cli.write.self_s"] = per_op(selfs, *writers)
    out["cli.write.bytes"] = per_op(counts, "cli._write_csv", "cli._write_json")
    for layer in LAYERS[1:]:  # the harness's own share is what trace_overhead_frac shows
        out[f"share.{layer}"] = layer_self[layer] / op_total if op_total else 0.0
    return out
