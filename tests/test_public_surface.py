"""The public surface: every exported name resolves, and every function the
benchmark's span tracer wraps still exists, so removing a name cannot break
a traced benchmark run unnoticed."""

import ast
import importlib
from pathlib import Path

import kscolor

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def _traced() -> dict:
    """The TRACED table of benchmarks/spans.py, read without running it."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {SPANS}")


def test_traced_names_exist():
    missing = []
    for mod_name, names in _traced().items():
        mod = importlib.import_module(f"kscolor.{mod_name}")
        missing += [f"{mod_name}.{n}" for n in names or () if not callable(getattr(mod, n, None))]
    assert not missing


def test_all_names_resolve():
    assert [n for n in kscolor.__all__ if not hasattr(kscolor, n)] == []
