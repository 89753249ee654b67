"""The public surface: every exported name resolves, every function the
benchmark's span tracer wraps still exists, and the benchmark's own
self-test passes, so a library change cannot break a benchmark run
unnoticed."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import kscolor

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
SPANS = BENCHMARKS / "spans.py"


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


def test_benchmark_selftest_passes():
    """benchmarks/selftest.py: every verifier accepts real results and
    rejects corrupted ones (about 3 s)."""
    proc = subprocess.run(
        [sys.executable, str(BENCHMARKS / "selftest.py")],
        cwd=BENCHMARKS.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
