"""isrsim benchmark: one workload, seeded, timed, checked.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a source checkout; the package is imported from
its ``src/`` directory, nothing needs installing. ``--workload all`` runs
each workload in a process of its own, one after the other.

With ``--trace 0`` the run measures the end-to-end metrics: set-up time
of a fresh process, then ops for ``--seconds`` seconds of op time. With
``--trace 1`` it times ops untraced for half the time and traced for the
other half, and reports the per-layer numbers. Every op's outputs are
checked outside the timed region. The last line of standard output is
one JSON object: correct, attempted, failed, metrics. The exit code is
0 when every check passed, 1 when one failed, 2 when the checkout holds
no isrsim sources.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("scan", "fluence_loop", "oracle")
SETUP_REPEATS = 7

# Set-up as a user pays it: a fresh interpreter importing the package and
# resolving the default configuration.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import isrsim
from isrsim.config import load_config
load_config()
print(time.perf_counter() - t0)
"""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds() -> float:
    """Median set-up time over SETUP_REPEATS fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS the process has loaded, by library."""
    found = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                found[Path(path).name] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    def blas(show_config) -> str:
        dep = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": nproc(),
        "loadavg_at_start": Path("/proc/loadavg").read_text().strip(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "blas_threads": blas_threads(),
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With fewer than eleven samples no percentile qualifies; the slowest op
    is reported as the 100th percentile instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_ops(work, seconds: float, workdir: Path, tracer=None):
    """Ops from index 0 until their summed wall time reaches seconds.

    Returns the op times and, per op, the problems its check found.
    """
    times, problems = [], []
    opdir = workdir / "op"
    i = 0
    while not times or sum(times) < seconds:
        t0 = time.perf_counter()
        try:
            out = tracer.run_op(i, lambda: work.run(i, opdir)) if tracer else work.run(i, opdir)
        except Exception:
            out, error = None, traceback.format_exc(limit=3)
        else:
            error = None
        times.append(time.perf_counter() - t0)
        try:
            found = [error] if error else work.check(i, opdir, out)
        except Exception:
            found = [traceback.format_exc(limit=3)]
        problems.append(found)
        for text in found:
            print(f"op {i} failed check: {text}", file=sys.stderr)
        shutil.rmtree(opdir, ignore_errors=True)
        i += 1
    return times, problems


def run_workload(args) -> int:
    import workloads
    from spans import Tracer, layer_metrics

    print("env " + json.dumps(environment(), sort_keys=True))
    setup_s = setup_seconds() if args.trace == 0 else None

    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=HERE / ".work"))
    try:
        work = workloads.WORKLOADS[args.workload](args.seed, workdir)
        work.warmup(workdir / "warmup")
        if args.trace == 0:
            times, problems = run_ops(work, args.seconds, workdir)
        else:
            untraced, problems = run_ops(work, args.seconds / 2, workdir)
            tracer = Tracer()
            tracer.install()
            times, traced_problems = run_ops(work, args.seconds / 2, workdir, tracer)
            problems += traced_problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(bool(p) for p in problems)
    run_problems, info = work.summary()
    for text in run_problems:
        print(f"run failed check: {text}", file=sys.stderr)
    if args.trace == 0:
        kind = "end_to_end"
        tail_s, tail_pct = tail(times)
        values = {
            "setup_s": setup_s,
            "op_s_p50": statistics.median(times),
            "op_s_tail": tail_s,
            "units_per_s": work.units_per_op * len(times) / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        notes = {
            "op_s_tail_percentile": tail_pct,
            "op_samples": len(times),
            "failed_frac": failed / len(problems),
            "unit_of_work": f"{work.units_per_op} {work.unit} per op",
            **info,
        }
    else:
        kind = "per_layer"
        values = layer_metrics(tracer.spans, len(times))
        values["trace_overhead_frac"] = statistics.median(times) / statistics.median(untraced) - 1
        notes = {
            "untraced_ops": len(untraced),
            "traced_ops": len(times),
            "failed_frac": failed / len(problems),
            "missed_bindings": tracer.unwrapped_bindings(),
            **info,
        }
    # BENCHMARK.json is the one list of metric names and units.
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    if set(units) != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(values))}")
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print("notes " + json.dumps(notes, sort_keys=True))
    correct = failed == 0 and not run_problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(problems),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; their outputs pass straight through."""
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv, cwd=ROOT).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "isrsim" / "__init__.py").is_file():
        print(f"no isrsim sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # BLAS reads these once, when numpy loads; pin them to the cores this
    # process may use, so every run on every commit gets the same threads.
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(nproc())
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
