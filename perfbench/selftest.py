"""Self-test of the benchmark itself, not of isrsim.

    python3 perfbench/selftest.py

Runs every workload traced, twice on one seed and once on another, each
for a short time, and checks that:

- the tracer rebound every traced name in every isrsim module;
- ``detector.cell_draws`` per op is scans x delays on ``scan`` (plus
  the three histogram bursts) and 6 x 10 x 256 on ``fluence_loop``;
- ``fock.probe_exact.calls`` per op is at least the number of cases;
- the per-op counts repeat exactly across the three runs, so the seed
  changes only the inputs, never the amount of work;
- the inputs themselves do change with the seed.

Byte counts are left out of the repeat check: they depend on the
printed digits of each op's numbers, and each run averages over however
many ops fit in its time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = 2

# Per-op counts that must not depend on the seed or on the run.
INVARIANT_COUNTS = (
    "detector.cell_draws",
    "probe.predict_trace.calls",
    "analysis.detrend_and_fft.calls",
    "analysis.morlet_power.calls",
    "analysis.extract_lifetimes.calls",
    "analysis.fit_fluence_series.calls",
    "fock.evolve_lindblad_exact.rk4_steps",
    "fock.probe_exact.calls",
    "fock.probe_exact.useful_ratio",
    "fock.truncation_retries",
    "fock.probe_exact.gen_dim_max",
)


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(lines[-1])
    notes = json.loads(next(ln for ln in lines if ln.startswith("notes "))[6:])
    return {k: v["value"] for k, v in result["metrics"].items()}, notes


def check_inputs(workloads, problems: list[str]) -> None:
    """Two seeds give different inputs of the same shape and cost."""
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        for cls in (workloads.Scan, workloads.FluenceLoop):
            a, b = cls(1, Path(tmp)), cls(2, Path(tmp))
            if [a.seeds[i] for i in range(5)] == [b.seeds[i] for i in range(5)]:
                problems.append(f"{cls.name}: op seeds do not depend on the run seed")
            if [a.seeds[i] for i in range(5)] != [cls(1, Path(tmp)).seeds[i] for i in range(5)]:
                problems.append(f"{cls.name}: op seeds differ for the same run seed")
    a, b = workloads.oracle_cases(1), workloads.oracle_cases(2)
    if a == b:
        problems.append("oracle: cases do not depend on the run seed")
    if a != workloads.oracle_cases(1):
        problems.append("oracle: cases differ for the same run seed")

    def cutoffs(cases):
        return sorted(map(workloads._predicted_cutoffs, cases))

    if cutoffs(a) != cutoffs(b):
        problems.append("oracle: predicted cutoffs depend on the run seed")


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(
        len(os.sched_getaffinity(0))
    )
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    problems: list[str] = []
    check_inputs(workloads, problems)
    expected_draws = {"scan": 10 * 512 + 3, "fluence_loop": 6 * 10 * 256}
    for workload in ("scan", "fluence_loop", "oracle"):
        runs = [traced_run(workload, 1), traced_run(workload, 1), traced_run(workload, 2)]
        for metrics, notes in runs:
            if notes["missed_bindings"]:
                problems.append(f"{workload}: untraced bindings {notes['missed_bindings']}")
        metrics = runs[0][0]
        if workload in expected_draws and metrics["detector.cell_draws"] != expected_draws[workload]:
            problems.append(
                f"{workload}: detector.cell_draws {metrics['detector.cell_draws']}, "
                f"expected {expected_draws[workload]}"
            )
        if workload == "oracle":
            n_cases = len(workloads.CUTOFF_STRATA)
            if metrics["fock.probe_exact.calls"] < n_cases:
                problems.append(f"oracle: {metrics['fock.probe_exact.calls']} probe calls for {n_cases} cases")
        for name in INVARIANT_COUNTS:
            values = [m[name] for m, _ in runs]
            if len(set(values)) != 1:
                problems.append(f"{workload}: {name} differs across runs: {values}")
        print(f"{workload}: " + ", ".join(f"{n}={metrics[n]:g}" for n in INVARIANT_COUNTS))
    for text in problems:
        print("FAIL " + text)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
