"""The package keeps only what package code calls or reads.

Every public top-level function or class in src/isrsim must be
referenced by name somewhere in the package, by a call, an annotation
or a table entry. A closed form that only tests use belongs in
tests/closed_forms.py. Likewise every config key must be read by name
somewhere in the package: a key no output depends on is debt.
"""

import ast
from pathlib import Path

from isrsim.config import _SCHEMA

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "isrsim"

ALLOWED = {
    # perfbench/spans.py traces truncate until ROADMAP item 1 drops it.
    ("fock", "truncate"),
    # perfbench/spans.py counts RK4 steps with default_step until ROADMAP
    # item 1 drops that metric.
    ("fock", "default_step"),
    # perfbench/spans.py traces morlet_power until ROADMAP item 1 drops it.
    ("analysis", "morlet_power"),
}


def _public_defs(tree: ast.Module) -> list[str]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [n.name for n in tree.body if isinstance(n, kinds) and n.name[0] != "_"]


def _referenced_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in PACKAGE.glob("*.py")}


def _read_keys(tree: ast.Module) -> set[str]:
    """String literals the code indexes with, or passes to .section()."""
    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            key = node.slice
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "section":
            key = node.args[0]
        else:
            continue
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.add(key.value)
    return keys


def test_every_public_def_is_used_by_the_package():
    trees = _trees()
    defs = {(mod, name) for mod, tree in trees.items() for name in _public_defs(tree)}
    used = set().union(*map(_referenced_names, trees.values()))
    unused = sorted(f"{mod}.{name}" for mod, name in defs - ALLOWED if name not in used)
    assert unused == [], f"public defs no package code references: {unused}"
    assert ALLOWED <= defs, f"allowed but no longer defined: {sorted(ALLOWED - defs)}"


def test_every_config_key_is_read_by_the_package():
    # tests/test_config.py keeps _SCHEMA and defaults.yaml to one key set.
    # The rule table holds its keys as dict literals, which are not reads.
    read = set().union(*map(_read_keys, _trees().values()))
    unread = sorted(
        name
        for section, rules in _SCHEMA.items()
        for name in (section, *(f"{section}.{key}" for key in rules))
        if name.rpartition(".")[2] not in read
    )
    assert unread == [], f"config keys no package code reads: {unread}"
