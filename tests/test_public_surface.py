"""The public surface: every exported name resolves, every function the
benchmark's span tracer wraps still exists, and the benchmark's own
self-test passes, so a library change cannot break a benchmark run
unnoticed.  Every exported value type survives copy and pickle, hashes
(but the nullification report, which holds lists) and refuses assignment
and deletion, and the result records behave as values."""

import ast
import copy
import importlib
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import kscolor
from kscolor.kscheck import DivergenceEntry

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


def _value_instances():
    """One instance of every exported value class, and a report's context."""
    g, q, c = kscolor.GaussianRational, kscolor.QuadRational, kscolor.QuadComplex
    half_s2 = c(q(0, Fraction(1, 2)))
    report = kscolor.perturb_to_suitable(kscolor.load_builtin("peres33"), Fraction(1, 100))
    return [
        q(Fraction(1, 3), -2),
        g(Fraction(-1, 2), 5),
        c(q(1, Fraction(1, 4)), q(Fraction(2, 3), -1)),
        kscolor.GVector([g(1), g(0, Fraction(1, 3))]),
        kscolor.Frame([[g(1), g(0)], [g(0), g(1)]]),
        kscolor.GMatrix([[1, g(0, 1)], [g(0, -1), 1]]),
        kscolor.QuadHermitian([[half_s2, c(0, Fraction(1, 5))], [c(0, Fraction(-1, 5)), 1]]),
        kscolor.PovmElement([[half_s2, 0], [0, 0]]),
        kscolor.PovmDecomposition([[[half_s2]], [[1 - half_s2]]]),
        kscolor.ProjectionRep([[1, 0], [0, 0]]),
        kscolor.load_builtin("peres33"),
        kscolor.nearest_true_ray([0.6, 0.0, 0.8, 0.0], Fraction(1, 100)),
        kscolor.false_ray_near([0.6, 0.0, 0.8, 0.0, 0.1, 0.0], Fraction(1, 100)),
        kscolor.build_graph(kscolor.load_builtin("peres33")),
        report,
        report.contexts[0],
    ]


def test_result_records_behave_as_values():
    """The result records print, compare, hash and construct as frozen
    dataclasses did, and refuse to change."""
    g = kscolor.GaussianRational
    res = kscolor.ApproxResult(kscolor.GVector([g(1), g(0, Fraction(1, 3))]), Fraction(1, 9),
                               kscolor.TruthValue.TRUE)
    assert repr(res) == (
        "ApproxResult(object=GVector([GaussianRational(Fraction(1, 1), Fraction(0, 1)), "
        "GaussianRational(Fraction(0, 1), Fraction(1, 3))]), achieved_dist2=Fraction(1, 9), "
        "certificate=<TruthValue.TRUE: 'TRUE'>, witness=None)"
    )
    entry = DivergenceEntry(3, "r3", 0, 2, True)
    assert repr(entry) == "DivergenceEntry(ray_index=3, label='r3', context_a=0, context_b=2, distinct=True)"

    assert entry == DivergenceEntry(ray_index=3, label="r3", context_a=0, context_b=2, distinct=True)
    assert entry != DivergenceEntry(3, "r3", 0, 2, False)
    assert entry != (3, "r3", 0, 2, True)
    assert kscolor.OrthGraph(*vars(entry).values()) != kscolor.NullificationReport(*vars(entry).values())
    assert res == kscolor.ApproxResult(res.object, res.achieved_dist2, res.certificate, witness=None)
    assert res != kscolor.ApproxResult(res.object, Fraction(1, 10), res.certificate)

    graph = kscolor.build_graph(kscolor.load_builtin("peres24"))
    assert hash(graph) == hash(kscolor.build_graph(kscolor.load_builtin("peres24")))
    assert hash(entry) == hash(DivergenceEntry(3, "r3", 0, 2, True))

    for record, field in ((res, "witness"), (entry, "label"), (graph, "contexts")):
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before
    assert list(vars(graph)) == ["dimension", "num_rays", "pairs", "neighbors", "contexts"]
    report = kscolor.perturb_to_suitable(kscolor.load_builtin("peres33"), Fraction(1, 100))
    assert list(vars(report)) == [
        "epsilon", "contexts", "divergences", "all_suitable", "all_shared_diverge"]
    assert list(vars(res)) == ["object", "achieved_dist2", "certificate", "witness"]

    with pytest.raises(TypeError):
        kscolor.ApproxResult(res.object, res.achieved_dist2)
    with pytest.raises(TypeError):
        kscolor.ApproxResult(res.object, res.achieved_dist2, res.certificate, color=None)
    with pytest.raises(TypeError):
        kscolor.ApproxResult(res.object, res.achieved_dist2, res.certificate, object=None)


def _stored(value) -> list:
    """The names of the attributes an instance stores: its slots and its
    ``__dict__`` keys."""
    slots = [n for c in type(value).__mro__ for n in c.__dict__.get("__slots__", ())]
    return slots + list(getattr(value, "__dict__", {}))


@pytest.mark.parametrize("value", _value_instances(), ids=lambda v: type(v).__name__)
def test_value_types_refuse_deletion(value):
    before = copy.deepcopy(value)
    names = _stored(value)
    assert names
    for name in names:
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            delattr(value, name)
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            setattr(value, name, None)
    assert value == before


def _definitions(wanted) -> list:
    """(module file, enclosing top-level class or None, name) for each def
    of, or assignment to, a name in ``wanted`` in the package source."""
    src = Path(kscolor.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = top.name if isinstance(top, ast.ClassDef) else None
            for node in ast.walk(top):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                found += [(path.name, owner, n) for n in names if n in wanted]
    return found


def test_slotted_value_types_have_no_dict():
    """``Record`` adds no ``__dict__`` to a subclass that declares its slots."""
    slotted = [v for v in _value_instances() if "__slots__" in type(v).__dict__]
    assert len(slotted) == 11
    assert [type(v).__name__ for v in slotted if hasattr(v, "__dict__")] == []


def test_only_record_module_guards_attributes():
    """``__setattr__`` and ``__delattr__`` are defined in ``_record.py``
    alone, so every value type is immutable the same way."""
    found = [(f, n) for f, _, n in _definitions(("__setattr__", "__delattr__"))]
    assert found == [("_record.py", "__setattr__"), ("_record.py", "__delattr__")]


def _top_level_owners(wanted) -> list:
    """(module file, top-level def or class) for each node of the package
    source for which ``wanted(node)`` holds."""
    src = Path(kscolor.__file__).resolve().parent
    return [(path.name, top.name) for path in sorted(src.glob("*.py"))
            for top in ast.parse(path.read_text(encoding="utf-8")).body
            if hasattr(top, "name") for node in ast.walk(top) if wanted(node)]


def test_one_operand_rule_and_one_keyed_reader():
    """An ``except TypeError`` that returns NotImplemented is written once,
    in ``fields._operand``, and the unknown-key refusal of {re, im} and
    {rat, sqrt2} objects once, in ``serialize._keyed``."""
    def not_implemented(node):
        return (isinstance(node, ast.ExceptHandler)
                and ast.unparse(node) == "except TypeError:\n    return NotImplemented")

    def unexpected_keys(node):
        return (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "unexpected keys in" in node.value)

    assert _top_level_owners(not_implemented) == [("fields.py", "_operand")]
    assert _top_level_owners(unexpected_keys) == [("serialize.py", "_keyed")]


def test_only_value_bases_define_equality_hash_and_reduce():
    """``__eq__`` and ``__hash__`` come from ``Record`` and the two-part
    scalar base alone, and ``__reduce__`` from those two and the
    cleared-integer base, so every other value type compares, hashes and
    pickles by its fields."""
    found = _definitions(("__eq__", "__hash__", "__reduce__"))
    assert {(f, c) for f, c, n in found if n != "__reduce__"} == {
        ("_record.py", "Record"), ("fields.py", "_Pair")}
    assert {(f, c) for f, c, n in found if n == "__reduce__"} == {
        ("_record.py", "Record"), ("fields.py", "_Pair"), ("linalg.py", "_ClearedForm")}


@pytest.mark.parametrize("copier", [
    copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v)),
], ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("value", _value_instances(), ids=lambda v: type(v).__name__)
def test_value_types_copy_and_pickle(value, copier):
    """Every value equals its copy and hashes equal to it, but the report,
    whose ``contexts`` and ``divergences`` are lists: its other fields do."""
    got = copier(value)
    assert type(got) is type(value)
    assert got == value
    if not isinstance(value, kscolor.NullificationReport):
        assert hash(got) == hash(value)
        return
    with pytest.raises(TypeError):
        hash(value)
    for name in value._fields:
        if name not in ("contexts", "divergences"):
            assert hash(getattr(got, name)) == hash(getattr(value, name))
