"""The benchmark's tracer must keep finding what it traces in the package.

perfbench/spans.py rebinds the functions it lists in TRACED and reads a
writer's output size from the call's first argument. A refactor that
renames one of them, or passes the path another way, would break the
benchmark without failing anything else.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import isrsim.cli as cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    name = "perfbench_spans"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, SPANS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look the module up
        spec.loader.exec_module(module)
    return sys.modules[name]


def test_traced_names_resolve():
    for module_name, attr, _ in load_spans().TRACED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_writers_take_the_output_path_first():
    for writer in (cli._write_csv, cli._write_json):
        assert list(inspect.signature(writer).parameters)[0] == "path"


def test_traced_run_counts_every_written_byte(tmp_path, monkeypatch):
    # Record every isrsim binding first, so the tracer's rebinding is undone.
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "isrsim" and module:
            for key, value in list(vars(module).items()):
                if callable(value):
                    monkeypatch.setattr(module, key, value)
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    assert tracer.unwrapped_bindings() == []
    out = tmp_path / "out"
    assert tracer.run_op(0, lambda: cli.main(["predict", "--out", str(out)])) == 0
    finished = [s for s in tracer.spans if s is not None]
    assert all(s.error is None for s in finished)
    written = sum(
        s.count for s in finished if s.name in ("cli._write_csv", "cli._write_json")
    )
    # manifest.json goes through _write_json too.
    assert written == sum(p.stat().st_size for p in out.iterdir())
    assert [s.name for s in finished].count("cli._write_manifest") == 1
