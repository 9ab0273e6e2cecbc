"""The package keeps only what package code calls.

Every public top-level function or class in src/isrsim must be
referenced by name somewhere in the package, by a call, an annotation
or a table entry. A closed form that only tests use belongs in
tests/closed_forms.py.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "isrsim"

ALLOWED = {
    # perfbench/spans.py traces truncate until ROADMAP item 1 drops it.
    ("fock", "truncate"),
    # perfbench/spans.py counts RK4 steps with default_step until ROADMAP
    # item 1 drops that metric.
    ("fock", "default_step"),
}


def _public_defs(tree: ast.Module) -> list[str]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [n.name for n in tree.body if isinstance(n, kinds) and n.name[0] != "_"]


def _referenced_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_public_def_is_used_by_the_package():
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in PACKAGE.glob("*.py")}
    defs = {(mod, name) for mod, tree in trees.items() for name in _public_defs(tree)}
    used = set().union(*map(_referenced_names, trees.values()))
    unused = sorted(f"{mod}.{name}" for mod, name in defs - ALLOWED if name not in used)
    assert unused == [], f"public defs no package code references: {unused}"
    assert ALLOWED <= defs, f"allowed but no longer defined: {sorted(ALLOWED - defs)}"
