"""Ray sets, orthogonality graphs, the coloring solver and its brute-force
cross-check, and per-context suitable perturbation."""

import copy
import itertools
import math
import operator
import pickle
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from kscolor import kscheck, linalg, serialize
from kscolor.coloring import TruthValue
from kscolor.errors import InvalidInputError, ResourceLimitError
from kscolor.fields import GaussianRational, QuadComplex, QuadRational
from kscolor.kscheck import (
    OrthGraph,
    RaySet,
    brute_force_coloring,
    build_graph,
    dump_rayset,
    find_ks_coloring,
    is_valid_coloring,
    load_builtin,
    load_rayset,
    perturb_to_suitable,
)
from kscolor.linalg import (
    GVector,
    _cleared,
    _ray_key,
    inner_product,
    norm2,
    ray_dist2,
    same_ray,
)
from kscolor.serialize import parse_fraction, parse_quad_token


def rational_rayset(vectors, dimension, labels=None):
    rays = []
    for vec in vectors:
        rays.append([QuadComplex(QuadRational(Fraction(x))) for x in vec])
    return RaySet(dimension, rays, labels)


BASIS3 = rational_rayset([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
# Exactly orthogonal rational sets with coordinates outside the binary64
# range: huge, tiny, and huge beside 1 in one ray.
_BIG = 10**400
OUT_OF_RANGE = {
    "huge": [(_BIG, 0, 0), (0, _BIG, 0), (0, 0, _BIG)],
    "tiny": [(Fraction(1, _BIG), 0, 0), (0, Fraction(1, _BIG), 0), (0, 0, Fraction(1, _BIG))],
    "mixed": [(_BIG, 1, 0), (-1, _BIG, 0), (0, 0, 1)],
}


class TestRaySet:
    def test_builtin_peres33(self):
        rs = load_builtin("peres33")
        assert rs.dimension == 3
        assert len(rs) == 33
        g = build_graph(rs)
        assert len(g.pairs) == 72
        assert len(g.contexts) == 16

    def test_builtin_peres24(self):
        rs = load_builtin("peres24")
        assert rs.dimension == 4
        assert len(rs) == 24
        assert rs.is_rational()
        g = build_graph(rs)
        assert len(g.pairs) == 108
        assert len(g.contexts) == 24

    def test_unknown_builtin(self):
        with pytest.raises(InvalidInputError):
            load_builtin("nonexistent")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvalidInputError):
            rational_rayset([(1, 0, 0), (0, 1, 0)], 3, labels=["a", "a"])

    def test_roundtrip_through_text(self):
        rs = load_builtin("peres33")
        text = dump_rayset(rs)
        back = load_rayset(text)
        assert back.dimension == rs.dimension
        assert back.labels == rs.labels
        assert back.rays == rs.rays

    @pytest.mark.parametrize(
        "header", ["dimension abc", "contexts x", "pairs x"]
    )
    def test_non_integer_header_rejected(self, header):
        text = f"rayset v1\n{header}\nfield rational\ndimension 2\nray a 1 0\n"
        with pytest.raises(InvalidInputError):
            load_rayset(text)

    @pytest.mark.parametrize("key", ["dimension", "field", "contexts", "pairs"])
    def test_header_without_value_rejected(self, key):
        text = f"rayset v1\ndimension 2\nfield rational\n{key}\nray a 1 0\n"
        with pytest.raises(InvalidInputError):
            load_rayset(text)

    def test_zero_denominator_component_rejected(self):
        text = "rayset v1\ndimension 2\nfield rational\nray a 1/0 1\n"
        with pytest.raises(InvalidInputError):
            load_rayset(text)

    def test_header_self_checks(self):
        rs = load_builtin("peres24")
        text = dump_rayset(rs)
        tampered = text.replace("pairs 108", "pairs 109")
        with pytest.raises(InvalidInputError):
            load_rayset(tampered)

    def test_dump_of_load_is_the_text(self):
        texts = [Path(kscheck._DATA, f"{name}.rays").read_text(encoding="utf-8")
                 for name in ("peres33", "peres24")]
        texts.append(dump_rayset(zero_pm1(4)))
        for text in texts:
            assert dump_rayset(load_rayset(text)) == text

    def test_compares_and_hashes_by_value(self):
        a, b = load_builtin("peres33"), load_builtin("peres33")
        assert a == b and hash(a) == hash(b)
        for c in (RaySet(a.dimension, a.rays, a.labels), pickle.loads(pickle.dumps(a))):
            assert c == a and hash(c) == hash(a)
        rays = list(a.rays)
        rays[1] = [e * 2 for e in rays[1]]  # the same ray, other entries
        for other in (RaySet(3, a.rays), RaySet(3, rays, a.labels), load_builtin("peres24"),
                      RaySet(3, a.rays[:-1], a.labels[:-1])):
            assert other != a
        assert a != a.rays and a != "peres33"

    def test_compares_and_hashes_without_deriving_rays(self, monkeypatch):
        """``==`` and ``hash`` read the stored integers; copy and pickle
        still rebuild through the constructor from the rays."""
        a, b, other = load_builtin("peres33"), load_builtin("peres33"), load_builtin("peres24")

        def refuse(self):
            raise AssertionError("rays derived")

        with monkeypatch.context() as m:
            m.setattr(RaySet, "rays", property(refuse))
            assert a == b and hash(a) == hash(b)
            assert a != other and a != RaySet._of(3, a.cleared)
            with pytest.raises(AssertionError, match="rays derived"):
                copy.copy(a)
        assert a.__reduce__() == (RaySet, (a.dimension, a.rays, a.labels))
        for c in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert c is not a and c == a and hash(c) == hash(a)

    def test_form_is_lowest_terms_of_the_entries(self):
        """One (x, d) per ray, with gcd(d, *x) = 1, whatever the input's
        denominators, and read back to the same entries."""
        rng = random.Random(5)
        rays = [[QuadComplex(_random_quad(rng), _random_quad(rng)) for _ in range(3)]
                for _ in range(30)]
        rs = RaySet(3, rays)
        assert rs.rays == tuple(map(tuple, rays))
        for (x, d), ray in zip(rs.cleared, rays):
            parts = [q for e in ray for q in (e.re.rat, e.re.sqrt2, e.im.rat, e.im.sqrt2)]
            assert d > 0 and math.gcd(d, *x) == 1
            assert [Fraction(c, d) for c in x] == parts
        text = "rayset v1\ndimension 2\nfield quad2\nray a 2/4 6/8s2,-3/9\n"
        assert load_rayset(text).cleared == (((6, 0, 0, 0, 0, 9, -4, 0), 12),)

    def test_ray_floats_match_the_fraction_rule(self):
        """``to_float`` gives, bit for bit, the floats of the rule it
        replaces: binary64 of a + b*S/E, or of (a^2 - 2b^2) / (a - b*S/E)
        for parts of opposite sign, on ``Fraction``s."""
        rng = random.Random(64)

        def part():
            kind = rng.randrange(5)
            if kind == 0:
                return Fraction(0)
            if kind == 1:  # huge
                return Fraction(rng.randint(-2**200, 2**200), rng.choice([1, 3, 7]))
            if kind == 2:  # tiny
                return Fraction(rng.randint(-9, 9), 3 ** rng.randint(100, 200))
            return Fraction(rng.randint(-99, 99), rng.choice([1, 2, 3, 9, 12, 27]))

        def near_cancelling():
            # (sqrt2 - 1)^k = p + q*sqrt2: opposite signs, huge parts, tiny value
            p, q = 1, 0
            for _ in range(rng.randint(1, 60)):
                p, q = 2 * q - p, p - q
            return QuadRational(Fraction(p, 3), Fraction(q, 3))

        rays = [list(ray) for ray in load_builtin("peres33").rays]
        for _ in range(200):
            ray = [QuadComplex(QuadRational(part(), part()), near_cancelling()
                               if rng.random() < 0.3 else QuadRational(part(), part()))
                   for _ in range(3)]
            if any(ray):
                rays.append(ray)
        rs = RaySet(3, rays)
        for k, ray in enumerate(rs.rays):
            parts = [p for e in ray for p in (e.re, e.im)]
            want = [_reference_to_float(p).hex() for p in parts]
            assert [p.to_float().hex() for p in parts] == want


_SQRT2_REF = Fraction(math.isqrt(2 << 192), 1 << 96)


def _reference_to_float(q):
    """The binary64 rule of ``QuadRational.to_float`` on ``Fraction``s."""
    a, b = q.rat, q.sqrt2
    if not b:
        return float(a)
    if a and (a < 0) != (b < 0):
        return float((a * a - 2 * b * b) / (a - b * _SQRT2_REF))
    return float(a + b * _SQRT2_REF)


class TestGraph:
    def test_basis_context(self):
        g = build_graph(BASIS3)
        assert g.contexts == ((0, 1, 2),)
        assert g.pairs == ((0, 1), (0, 2), (1, 2))

    def test_quad2_orthogonality_is_exact(self):
        rs = load_builtin("peres33")
        g = build_graph(rs)
        # (1,0,0) and (0,1,-s2)-type rays: spot-check one known pair
        assert g.pairs  # non-empty
        # all contexts have exactly `dimension` members
        assert all(len(c) == rs.dimension for c in g.contexts)


def _reference_graph(rs):
    """Orthogonality by QuadComplex conjugate inner products, contexts by
    testing every C(n, d) subset: the definitions, written out slowly."""

    def inner(u, v):
        acc = QuadComplex(0)
        for a, b in zip(u, v):
            acc = acc + a.conjugate() * b
        return acc

    n = len(rs)
    pairs = [
        (i, j)
        for i, j in itertools.combinations(range(n), 2)
        if inner(rs.rays[i], rs.rays[j]).is_zero()
    ]
    nbr = [set() for _ in range(n)]
    for i, j in pairs:
        nbr[i].add(j)
        nbr[j].add(i)
    contexts = [
        combo
        for combo in itertools.combinations(range(n), rs.dimension)
        if all(b in nbr[a] for a, b in itertools.combinations(combo, 2))
    ]
    return tuple(pairs), tuple(frozenset(s) for s in nbr), tuple(contexts)


def _reference_orth_rows(x):
    """The four rows of the integer test over all 4d slots of ``x``."""
    rows = ([], [], [], [])
    for k in range(0, len(x), 4):
        e, f, g, h = x[k : k + 4]
        rows[0].extend((e, 2 * f, g, 2 * h))
        rows[1].extend((f, e, h, g))
        rows[2].extend((g, 2 * h, -e, -2 * f))
        rows[3].extend((h, g, -f, -e))
    return rows


def _reference_build_graph(rs):
    """The integer test and clique extension without the slot, row and
    bitmask shortcuts: all four rows over all 4d slots for every pair, and
    candidates as tuples filtered by neighbor sets.  Fast enough for the
    large sets that ``_reference_graph`` cannot enumerate."""
    n, d = len(rs), rs.dimension
    xs = [_cleared(q for e in ray for q in (e.re.rat, e.re.sqrt2, e.im.rat, e.im.sqrt2))[0]
          for ray in rs.rays]
    rows = [_reference_orth_rows(x) for x in xs]
    nbr = [set() for _ in range(n)]
    pairs = []
    for i in range(n):
        xi = xs[i]
        for j in range(i + 1, n):
            if not any(sum(map(operator.mul, xi, w)) for w in rows[j]):
                pairs.append((i, j))
                nbr[i].add(j)
                nbr[j].add(i)
    contexts = []
    stack = [((), tuple(range(n)))]
    while stack:
        clique, cands = stack.pop()
        if len(clique) == d:
            contexts.append(clique)
            continue
        for k in range(len(cands) - (d - len(clique)), -1, -1):
            j = cands[k]
            rest = tuple(c for c in cands[k + 1 :] if c in nbr[j])
            stack.append((clique + (j,), rest))
    return tuple(pairs), tuple(frozenset(s) for s in nbr), tuple(contexts)


def _graph(rs):
    g = build_graph(rs)
    return g.pairs, g.neighbors, g.contexts


def _random_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(2, 9))


def _random_quad(rng):
    return QuadRational(_random_fraction(rng), _random_fraction(rng))


def _random_scalar(rng):
    """A nonzero QuadComplex with non-unit denominators, usually with a
    sqrt2 part and an imaginary part."""
    while True:
        z = QuadComplex(_random_quad(rng), _random_quad(rng))
        if not z.is_zero():
            return z


def _scalars(rng, rays):
    """(ray, scalar) pairs: each ray with a random scalar or, one time in
    five, twice: with a Gaussian-rational z and with z times i or i*sqrt2,
    so that the two copies' inner product is purely imaginary."""
    out = []
    for ray in rays:
        if rng.random() < 0.2:
            z = QuadComplex(Fraction(rng.randint(1, 9), 7), _random_fraction(rng))
            phase = QuadComplex(0, rng.choice([QuadRational(1), QuadRational(0, 1)]))
            out += [(ray, z), (ray, z * phase)]
        else:
            out.append((ray, _random_scalar(rng)))
    return out


def _turn(ray):
    """The unitary [[3/5, 4i/5], [4i/5, 3/5]] on the first two entries:
    orthogonality is kept, and real rays become genuinely complex."""
    c = QuadComplex(Fraction(3, 5))
    s = QuadComplex(0, Fraction(4, 5))
    a, b = ray[0], ray[1]
    return [c * a + s * b, s * a + c * b, *ray[2:]]


def _rational_rays():
    return [list(ray) for ray in load_builtin("peres24").rays]


def _times(rays, z):
    return [[e * z for e in ray] for ray in rays]


_Q = [QuadComplex(Fraction(p, q)) for p, q in ((1, 1), (-2, 3), (5, 7), (9, 2))]
_SQRT2 = [QuadComplex(q) for q in (QuadRational(0, 1), QuadRational(1, 1),
                                   QuadRational(Fraction(-1, 3), 2), QuadRational(3))]
_GAUSS = [QuadComplex(Fraction(3, 5), Fraction(4, 5)), QuadComplex(2, -1), QuadComplex(Fraction(1, 3))]
# name: (rays, scalars that keep the pattern, the slots used: 0 re, 1 re*sqrt2,
# 2 im, 3 im*sqrt2, of each entry)
_SLOT_PATTERNS = {
    "real_rational": (_rational_rays, _Q, {0}),
    "real_sqrt2": (lambda: [list(ray) for ray in load_builtin("peres33").rays], _SQRT2, {0, 1}),
    "gaussian_rational": (lambda: [_turn(ray) for ray in _rational_rays()], _GAUSS, {0, 2}),
    "imaginary": (lambda: _times(_rational_rays(), QuadComplex(0, 1)), _Q, {2}),
    "imaginary_sqrt2": (lambda: _times(_rational_rays(), QuadComplex(0, QuadRational(0, 1))),
                        _Q, {3}),
}


class TestIntegerKernel:
    def test_matches_reference_on_scaled_complex_sets(self):
        """Whole contexts and single rays of peres33 or peres24 plus random
        rays, shuffled, each times a random Q(sqrt2)-complex scalar, some
        duplicated, half of the sets turned by a complex unitary: the
        cleared integer test and clique extension agree with the
        definitions, context order included."""
        rng = random.Random(2024)
        bases = []
        for name in ("peres33", "peres24"):
            base = load_builtin(name)
            bases.append((base, _reference_graph(base)[2]))
        for trial in range(40):
            base, base_contexts = rng.choice(bases)
            dim = base.dimension
            picked = set(rng.sample(range(len(base)), rng.randint(0, 4)))
            for ctx in rng.sample(base_contexts, rng.randint(0, 3)):
                picked.update(ctx)
            rays = [base.rays[i] for i in picked]
            for _ in range(rng.randint(0, 3)):
                ray = [
                    QuadComplex(_random_quad(rng), _random_quad(rng))
                    for _ in range(dim)
                ]
                if not all(e.is_zero() for e in ray):
                    rays.append(ray)
            if not rays:
                continue
            if trial % 2:
                rays = [_turn(ray) for ray in rays]
            scaled = [[e * z for e in ray] for ray, z in _scalars(rng, rays)]
            rng.shuffle(scaled)
            rs = RaySet(dim, scaled)
            g = build_graph(rs)
            assert (g.pairs, g.neighbors, g.contexts) == _reference_graph(rs)

            assert _reference_build_graph(rs) == _reference_graph(rs)

    @pytest.mark.parametrize("name", ["peres33", "peres24"])
    def test_matches_reference_on_builtins(self, name):
        rs = load_builtin(name)
        g = build_graph(rs)
        assert (g.pairs, g.neighbors, g.contexts) == _reference_graph(rs)
        assert _reference_build_graph(rs) == _reference_graph(rs)

    @pytest.mark.parametrize("pattern", list(_SLOT_PATTERNS))
    def test_sets_on_one_slot_pattern(self, pattern):
        """Sets whose rays all use the same coefficient slots: real rational,
        real Q(sqrt2), Gaussian rational, purely imaginary and i*sqrt2
        times rational."""
        base, scalars, slots = _SLOT_PATTERNS[pattern]
        rng = random.Random(pattern)
        for trial in range(4):
            rays = base()
            scaled = [[e * rng.choice(scalars) for e in ray] for ray in rays]
            rng.shuffle(scaled)
            rs = RaySet(len(rays[0]), scaled)
            used = {k for ray in rs.rays for e in ray
                    for k, q in enumerate((e.re.rat, e.re.sqrt2, e.im.rat, e.im.sqrt2)) if q}
            assert used == slots
            assert _graph(rs) == _reference_graph(rs)

    @pytest.mark.parametrize("name", ["peres33", "peres24", "zero_pm1_4"])
    def test_build_graph_clears_nothing(self, name, monkeypatch):
        """The graph reads the stored integers: with the clearing helpers
        and ``Fraction``'s ratio and zero test made to raise during the
        call, it still returns the reference graph."""
        rs = _NULL_SETS[name]
        want = _reference_build_graph(rs)

        def cleared(*args):
            raise AssertionError("build_graph cleared a value")

        with monkeypatch.context() as m:
            for owner, attr in ((kscheck, "_ray_form"), (linalg, "_cleared"),
                                (Fraction, "as_integer_ratio"), (Fraction, "__bool__")):
                m.setattr(owner, attr, cleared)
            got = _graph(rs)
        assert got == want

    @pytest.mark.parametrize("part", ["1", "sqrt2", "i", "i*sqrt2"])
    def test_inner_product_in_one_part(self, part):
        """Pairs whose inner product is nonzero in exactly one of its four
        parts, (1, 0, 0) against (z, 1, 0) and (0, 1, 0) against
        (1, -conj(z), 0), in both orders and times real scalars: each part
        alone must make the pair non-orthogonal."""
        z = {"1": QuadComplex(1), "sqrt2": QuadComplex(QuadRational(0, 1)),
             "i": QuadComplex(0, 1), "i*sqrt2": QuadComplex(0, QuadRational(0, 1))}[part]
        one, zero = QuadComplex(1), QuadComplex(0)
        rays = [[one, zero, zero], [zero, one, zero], [zero, zero, one],
                [z, one, zero], [one, -z.conjugate(), zero]]
        orders = [list(range(5)), list(range(4, -1, -1))]
        orders += [random.Random(k).sample(range(5), 5) for k in range(4)]
        for perm in orders:
            for c in (QuadComplex(1), QuadComplex(QuadRational(Fraction(1, 3), 2))):
                rs = RaySet(3, [[e * c for e in rays[k]] for k in perm])
                g = build_graph(rs)
                assert (g.pairs, g.neighbors, g.contexts) == _reference_graph(rs)
                assert len(g.pairs) == 6 and len(g.contexts) == 2


class TestSolver:
    def test_single_context_is_satisfiable(self):
        g = build_graph(BASIS3)
        coloring = find_ks_coloring(g)
        assert coloring is not None
        assert is_valid_coloring(g, coloring)
        assert sum(coloring[i] for i in (0, 1, 2)) == 1

    def test_peres33_unsat(self):
        g = build_graph(load_builtin("peres33"))
        assert find_ks_coloring(g) is None

    def test_peres24_unsat(self):
        g = build_graph(load_builtin("peres24"))
        assert find_ks_coloring(g) is None

    def test_validity_checker_rejects_bad_assignments(self):
        g = build_graph(BASIS3)
        assert not is_valid_coloring(g, {0: 1, 1: 1, 2: 0})
        assert not is_valid_coloring(g, {0: 0, 1: 0, 2: 0})
        assert is_valid_coloring(g, {0: 1, 1: 0, 2: 0})

    def test_agrees_with_brute_force_on_subsets(self):
        rs = load_builtin("peres33")
        rng = random.Random(33)
        for trial in range(8):
            k = rng.randint(6, 18)
            keep = sorted(rng.sample(range(len(rs)), k))
            sub = rational_like_subset(rs, keep)
            g = build_graph(sub)
            fast = find_ks_coloring(g)
            slow = brute_force_coloring(g)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert is_valid_coloring(g, fast)
            if slow is not None:
                assert is_valid_coloring(g, slow)

    def test_branch_order_matches_context_count(self):
        """The counts taken in one pass over the contexts are those of
        ``OrthGraph.context_count``, so the same coloring comes back."""
        rng = random.Random(18)
        graphs = []
        for rs in _NULL_SETS.values():
            graphs += [build_graph(rs)] + [build_graph(sub) for sub in sub_ray_sets(rng, rs, 2)]
        colorings = [find_ks_coloring(g) for g in graphs]
        assert colorings == [_reference_find_ks_coloring(g) for g in graphs]
        assert colorings[0] is None and sum(c is not None for c in colorings) > 20

    def test_matches_reference_on_non_clique_contexts(self):
        """Hand-built graphs whose contexts are not cliques of the neighbor
        sets, so that every propagation rule, two 1s in one context
        included, decides some verdict: the same colorings as the list
        reference, and the same SAT/UNSAT verdicts as brute force.  From a
        random partial state, ``_propagate`` (bits in ray order) reaches the
        reference's fixpoint or conflict, so a rule that only prunes the
        search, and so changes no coloring, is checked too."""
        rng = random.Random(2306)
        verdicts, fixpoints = [], 0
        for _ in range(2000):
            n = rng.randint(2, 14)
            pairs = tuple(p for p in itertools.combinations(range(n), 2)
                          if rng.random() < 0.15)
            nbr = [set() for _ in range(n)]
            for i, j in pairs:
                nbr[i].add(j)
                nbr[j].add(i)
            contexts = tuple(tuple(sorted(rng.sample(range(n), rng.randint(2, min(4, n)))))
                             for _ in range(rng.randint(1, n)))
            g = OrthGraph(dimension=3, num_rays=n, pairs=pairs,
                          neighbors=tuple(map(frozenset, nbr)), contexts=contexts)
            coloring = find_ks_coloring(g)
            assert coloring == _reference_find_ks_coloring(g)
            assert (coloring is None) == (brute_force_coloring(g) is None)
            assert coloring is None or is_valid_coloring(g, coloring)
            verdicts.append(coloring is None)
            state = [rng.choice((None, None, 0, 1)) for _ in range(n)]

            def bits(v):
                return sum(1 << i for i, s in enumerate(state) if s == v)

            masks = [sum(map((1).__lshift__, s)) for s in (*nbr, *contexts)]
            got = kscheck._propagate(masks[:n], masks[n:], bits(1), bits(0))
            ok = _reference_propagate(g, state)
            assert got == ((bits(1), bits(0)) if ok else None)
            fixpoints += ok
        assert 300 < sum(verdicts) < 1700
        assert 300 < fixpoints < 1700

    @pytest.mark.parametrize("n, bound", [(1100, 20), (2000, 40)])
    def test_search_deeper_than_the_recursion_limit(self, n, bound):
        """(1, k, 0) for k = 1..n: no two rays are orthogonal, so every ray
        is a decision and the search is n deep, past the recursion limit.
        Graph and solve together take about 0.6 s for 1,100 rays and 2.5 s
        for 2,000 on a 2-vCPU VM."""
        assert n > sys.getrecursionlimit()
        rs = RaySet(3, [[1, k, 0] for k in range(1, n + 1)])
        start = time.perf_counter()
        g = build_graph(rs)
        coloring = find_ks_coloring(g)
        elapsed = time.perf_counter() - start
        assert (g.pairs, g.contexts) == ((), ())
        assert coloring == dict.fromkeys(range(n), 1)
        assert elapsed < bound, f"{elapsed:.2f} s for the graph and the solve"

    def test_unsat_stable_under_relabeling(self):
        rs = load_builtin("peres33")
        rng = random.Random(7)
        for trial in range(10):
            perm = list(range(len(rs)))
            rng.shuffle(perm)
            rays = [rs.rays[i] for i in perm]
            labels = [rs.labels[i] for i in perm]
            shuffled = RaySet(rs.dimension, rays, labels)
            assert find_ks_coloring(build_graph(shuffled)) is None


def _reference_propagate(g, state):
    """Unit propagation on a list of 0, 1 or None per ray, rescanning every
    ray and every context until nothing changes; False on a conflict."""
    changed = True
    while changed:
        changed = False
        for i in range(g.num_rays):
            if state[i] == 1:
                for j in g.neighbors[i]:
                    if state[j] == 1:
                        return False
                    if state[j] is None:
                        state[j] = 0
                        changed = True
        for ctx in g.contexts:
            ones = 0
            unknown = []
            for i in ctx:
                if state[i] == 1:
                    ones += 1
                elif state[i] is None:
                    unknown.append(i)
            if ones > 1:
                return False
            if ones == 1:
                for i in unknown:
                    state[i] = 0
                    changed = True
            elif not unknown:
                return False
            elif len(unknown) == 1:
                state[unknown[0]] = 1
                changed = True
    return True


def _reference_find_ks_coloring(g):
    """``find_ks_coloring`` on a list state, recursively, with its counts
    read by ``context_count``."""
    ctx_count = [g.context_count(i) for i in range(g.num_rays)]

    def search(state):
        if not _reference_propagate(g, state):
            return None
        free = [i for i in range(g.num_rays) if state[i] is None]
        if not free:
            return state
        pick = max(free, key=lambda i: (ctx_count[i], len(g.neighbors[i]), -i))
        for value in (1, 0):
            child = state.copy()
            child[pick] = value
            result = search(child)
            if result is not None:
                return result
        return None

    solution = search([None] * g.num_rays)
    return None if solution is None else dict(enumerate(solution))


def rational_like_subset(rs, indices):
    rays = [rs.rays[i] for i in indices]
    labels = [rs.labels[i] for i in indices]
    return RaySet(rs.dimension, rays, labels)


class TestPerturb:
    def test_single_context(self):
        report = perturb_to_suitable(BASIS3, Fraction(1, 100))
        assert len(report.contexts) == 1
        ctx = report.contexts[0]
        assert ctx.truth_total == 1
        assert ctx.values.count(TruthValue.TRUE) == 1
        assert report.all_suitable
        assert report.divergences == []
        assert report.all_shared_diverge

    def test_peres33_all_contexts_suitable_and_shared_rays_diverge(self):
        rs = load_builtin("peres33")
        report = perturb_to_suitable(rs, Fraction(1, 10**4))
        assert len(report.contexts) == 16
        assert report.all_suitable
        assert all(c.truth_total == 1 for c in report.contexts)
        eps2 = Fraction(1, 10**8)
        assert all(c.max_dist2 <= eps2 for c in report.contexts)
        assert report.all_shared_diverge
        assert all(d.distinct for d in report.divergences)
        assert report.divergences  # the set genuinely shares rays

    def test_epsilon_sweep_small_set(self):
        two_ctx = rational_rayset(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (0, 1, -1)], 3
        )
        for eps in (Fraction(1, 100), Fraction(1, 10**4), Fraction(1, 10**6)):
            report = perturb_to_suitable(two_ctx, eps)
            assert report.all_suitable
            assert report.all_shared_diverge
            assert all(c.max_dist2 <= eps * eps for c in report.contexts)

    def test_requires_context(self):
        rs = rational_rayset([(1, 0, 0), (0, 1, 0)], 3)
        with pytest.raises(InvalidInputError):
            perturb_to_suitable(rs, Fraction(1, 100))

    @pytest.mark.parametrize("shape", sorted(OUT_OF_RANGE))
    def test_coordinates_beyond_binary64(self, shape):
        """Exact sets whose coordinates overflow or underflow binary64 (or
        both, within one ray) perturb like the unit basis: their binary64
        images normalize to it."""
        eps = Fraction(1, 10**6)
        report = perturb_to_suitable(rational_rayset(OUT_OF_RANGE[shape], 3), eps)
        assert report.all_suitable and report.all_shared_diverge
        assert all(c.max_dist2 <= eps * eps for c in report.contexts)
        want = perturb_to_suitable(BASIS3, eps)
        assert [c.frame for c in report.contexts] == [c.frame for c in want.contexts]

    def test_coordinate_cancelling_far_below_its_parts(self):
        """((1 - s2)^900, 0, 0) is about 10^-344 with parts of about 10^344:
        its float target follows the value, not the parts, so the set
        perturbs like the unit basis."""
        p, q = 1, 0
        for _ in range(900):
            p, q = p - 2 * q, q - p  # times (1 - s2)
        tiny = QuadComplex(QuadRational(p, q))
        rs = RaySet(3, [(tiny, 0, 0), (0, 1, 0), (0, 0, 1)])
        eps = Fraction(1, 10**6)
        report = perturb_to_suitable(rs, eps)
        assert report.all_suitable and report.all_shared_diverge
        want = perturb_to_suitable(BASIS3, eps)
        assert [c.frame for c in report.contexts] == [c.frame for c in want.contexts]

    def test_power_of_two_scaling_changes_nothing(self):
        """Every peres33 ray times 2^k, with k far past the binary64
        exponent range, gives the frames of peres33 itself: the float
        targets are exact scalings of one another."""
        rs = load_builtin("peres33")
        eps = Fraction(1, 10**4)
        want = [c.frame for c in perturb_to_suitable(rs, eps).contexts]
        for k in (-1100, -3, 5, 1100):
            scaled = RaySet(3, [[e * Fraction(2) ** k for e in ray] for ray in rs.rays], rs.labels)
            assert [c.frame for c in perturb_to_suitable(scaled, eps).contexts] == want, k


def zero_pm1(n):
    """{0,+-1}^n with a positive first nonzero entry: 40 rays and 32
    contexts for n = 4, 121 rays and 136 contexts for n = 5."""
    rays = [v for v in itertools.product((0, 1, -1), repeat=n)
            if any(v) and next(x for x in v if x) > 0]
    return rational_rayset(rays, n, ["_".join(map(str, v)) for v in rays])


def shuffled(rs, s):
    order = list(range(len(rs)))
    random.Random(s).shuffle(order)
    return RaySet(rs.dimension, [rs.rays[i] for i in order],
                  [rs.labels[i] for i in order])


_NULL_SETS = {
    "peres33": load_builtin("peres33"),
    "peres24": load_builtin("peres24"),
    "zero_pm1_4": zero_pm1(4),
}
_EPSILONS = [Fraction(1, 100), Fraction(1, 10**4), Fraction(1, 10**6)]


def check_nullification(rs, eps):
    """Every context is a suitable frame within eps, every pair of copies
    of a shared ray diverges, and the union of the frames, read back as a
    RaySet, closes the loop: its contexts are exactly the frames, and the
    TRUE legs color it."""
    report = perturb_to_suitable(rs, eps)
    g = build_graph(rs)
    n = rs.dimension
    assert [c.ray_indices for c in report.contexts] == list(g.contexts)
    assert report.all_suitable and report.all_shared_diverge
    for c in report.contexts:
        assert c.truth_total == 1
        assert c.values.count(TruthValue.TRUE) == 1
        assert c.max_dist2 <= eps * eps
    shared = sum(
        len(occ) * (len(occ) - 1) // 2
        for occ in ([c for c in g.contexts if i in c] for i in range(len(rs)))
    )
    assert len(report.divergences) == shared
    assert all(d.distinct for d in report.divergences)
    copies = {}
    for c in report.contexts:
        for leg, ray in zip(c.frame, c.ray_indices):
            copies.setdefault(ray, []).append(leg)
    for legs in copies.values():
        for u, v in itertools.combinations(legs, 2):
            assert not reference_same_ray(u, v)

    legs = [leg for c in report.contexts for leg in c.frame]
    union = build_graph(RaySet(n, [leg.entries for leg in legs]))
    frames = [tuple(range(k, k + n)) for k in range(0, len(legs), n)]
    assert list(union.contexts) == frames
    values = [v for c in report.contexts for v in c.values]
    coloring = {k: int(v is TruthValue.TRUE) for k, v in enumerate(values)}
    assert is_valid_coloring(union, coloring)


def reference_same_ray(u, v):
    """Equality in Cauchy-Schwarz, |<u,v>|^2 = <u,u><v,v>, over the
    Gaussian rationals."""
    return inner_product(u, v).abs2() == norm2(u) * norm2(v)


class TestNullificationEveryDimension:
    """The KS contradiction dissolves in dimensions 3, 4 and 5: one pass
    plus one repair separates every shared ray, and the perturbed frames,
    read back through the KS machinery, are colored by their TRUE legs."""

    @pytest.mark.parametrize("eps", _EPSILONS)
    @pytest.mark.parametrize("name", list(_NULL_SETS))
    def test_builtin_sets(self, name, eps):
        check_nullification(_NULL_SETS[name], eps)

    @pytest.mark.parametrize("order", range(1, 6))
    @pytest.mark.parametrize("name", ["peres24", "zero_pm1_4"])
    def test_shuffled_ray_orders(self, name, order):
        for eps in _EPSILONS:
            check_nullification(shuffled(_NULL_SETS[name], order), eps)

    def test_zero_pm1_5(self):
        report = perturb_to_suitable(zero_pm1(5), Fraction(1, 10**4))
        assert len(report.contexts) == 136
        assert len(report.divergences) == 3860
        assert report.all_suitable and report.all_shared_diverge
        assert all(d.distinct for d in report.divergences)
        assert all(c.max_dist2 <= Fraction(1, 10**8) for c in report.contexts)

    @pytest.mark.parametrize("name", ["peres24", "zero_pm1_4"])
    def test_copies_left_coinciding_raise(self, name, monkeypatch):
        """Without the nudge a repair cannot turn a rounding that is already
        orthogonal to the TRUE leg, so copies still coincide: the keys see
        it and the run fails instead of reporting them."""
        frame_near = kscheck._frame_near
        monkeypatch.setattr(kscheck, "_frame_near",
                            lambda rows, eps, scale, nudge=False: frame_near(rows, eps, scale))
        with pytest.raises(ResourceLimitError, match="could not separate"):
            perturb_to_suitable(_NULL_SETS[name], Fraction(1, 10**4))

    @pytest.mark.parametrize("name", ["peres24", "zero_pm1_4"])
    def test_within_eps_of_exact_rational_rays(self, name):
        rs = _NULL_SETS[name]
        exact = [GVector([e.re.rat for e in ray]) for ray in rs.rays]
        for eps in _EPSILONS:
            for c in perturb_to_suitable(rs, eps).contexts:
                for leg, ray in zip(c.frame, c.ray_indices):
                    assert ray_dist2(leg, exact[ray]) <= eps * eps


def sub_ray_sets(rng, rs, repeat):
    """Unions of random whole contexts of rs, capped at 12 to 18 rays, each
    cap ``repeat`` times: the sub-instances of the benchmark's ks workload."""
    contexts = list(_reference_build_graph(rs)[2])
    subs = []
    for cap in range(12, 19):
        for _ in range(repeat):
            chosen = set()
            for ctx in rng.sample(contexts, len(contexts)):
                if len(chosen | set(ctx)) <= cap:
                    chosen |= set(ctx)
            idx = sorted(chosen)
            subs.append(RaySet(rs.dimension, [rs.rays[i] for i in idx],
                               [rs.labels[i] for i in idx]))
    return subs


class TestGraphAtScale:
    """``build_graph`` equals the reference integer test on sets too large
    for ``_reference_graph`` to enumerate, and {0,+-1}^6 is a stress test
    for the graph and the solver."""

    def test_zero_pm1_5(self):
        rs = zero_pm1(5)
        assert _graph(rs) == _reference_build_graph(rs)

    @pytest.mark.parametrize("name", list(_NULL_SETS))
    def test_sub_instances(self, name):
        for sub in sub_ray_sets(random.Random(name), _NULL_SETS[name], 4):
            assert _graph(sub) == _reference_build_graph(sub)

    @pytest.mark.parametrize("eps", [Fraction(1, 10**4), Fraction(1, 10**40)])
    def test_union_of_perturbed_frames(self, eps):
        """The legs of peres24's frames are tall Gaussian rationals."""
        report = perturb_to_suitable(_NULL_SETS["peres24"], eps)
        rs = RaySet(4, [leg.entries for c in report.contexts for leg in c.frame])
        assert _graph(rs) == _reference_build_graph(rs)

    def test_zero_pm1_6(self):
        rs = zero_pm1(6)
        start = time.perf_counter()
        g = build_graph(rs)
        coloring = find_ks_coloring(g)
        elapsed = time.perf_counter() - start
        assert (len(rs), len(g.contexts), len(g.pairs)) == (364, 1408, 15806)
        assert coloring is None
        assert elapsed < 10, f"{elapsed:.2f} s for the graph and the solve"
        assert (g.pairs, g.neighbors, g.contexts) == _reference_build_graph(rs)


class TestRayKey:
    @seed(20261103)
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32))
    def test_matches_cauchy_schwarz(self, s):
        """Two vectors share a key exactly when Cauchy-Schwarz is an
        equality: rescaled copies, near misses and unrelated vectors."""
        rng = random.Random(s)
        n = rng.randint(2, 5)

        def gauss():
            return GaussianRational(Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7])),
                                    Fraction(rng.randint(-9, 9), rng.choice([1, 5, 9])))

        def vector():
            while True:
                entries = [gauss() if rng.random() < 0.7 else GaussianRational(0)
                           for _ in range(n)]
                if any(not e.is_zero() for e in entries):
                    return GVector(entries)

        u = vector()
        scalar = gauss()
        while scalar.is_zero():
            scalar = gauss()
        bumped = list(u)
        k = rng.randrange(n)
        bumped[k] = bumped[k] + GaussianRational(0, 1)
        for v in (u, u.scaled(scalar), vector(), GVector(bumped)):
            assert (_ray_key(u) == _ray_key(v)) is reference_same_ray(u, v)
            assert same_ray(u, v) is reference_same_ray(u, v)
        assert _ray_key(u) == _ray_key(u.scaled(scalar))

    def test_key_is_primitive_with_positive_real_lead(self):
        u = GVector([0, GaussianRational(Fraction(2, 3), Fraction(-1, 5)), 4])
        key = _ray_key(u)
        assert key[:2] == (0, 0) and key[2] > 0 and key[3] == 0
        assert math.gcd(*key) == 1


def _reference_quad_token(s):
    """The token parse through ``Fraction`` text: the rule that the integer
    parse replaces."""
    s = s.strip()
    m = serialize._QUAD_TOKEN.match(s)
    if not m or (m.group("rat") is None and m.group("s2") is None):
        raise InvalidInputError(f"bad Q(sqrt2) token: {s!r}")
    rat = parse_fraction(m.group("rat")) if m.group("rat") else Fraction(0)
    s2 = Fraction(0)
    if m.group("s2"):
        coef = m.group("s2")[:-2]
        s2 = Fraction(1) if coef in ("", "+") else Fraction(-1) if coef == "-" else parse_fraction(coef)
    return QuadRational(rat, s2)


def _tokens(rng, count):
    """Fixed tokens, then random ones glued from signs, digits (unicode and
    over-long ones too), slashes, zero denominators, 's2' and junk."""
    fixed = ["s2", "-s2", "+s2", "3/4s2", "1/2-1/3s2", "-7+2s2", "+0", "-0/5", "2/4",
             "06/010s2", "1/0", "0/0s2", "1/0s2", "1+1/0s2", "s", "1/", "/2", "1//2",
             "1.5", "1e3", "s2s2", "1+", "++s2", "", "-", "\u0663/\u0664s2", "9" * 5000]
    pieces = ["", "+", "-", "0", "1", "3", "12", "007", "/", "/3", "/0", "s2", "s", "2",
              "\u0663", ".", "e", "x", "_"]
    drawn = ["".join(rng.choice(pieces) for _ in range(rng.randint(1, 5))) for _ in range(count)]
    return fixed + drawn


class TestIntegerTokenParse:
    """``_quad_parts``, the integer parse shared by ``parse_quad_token`` and
    ray-set files, against the ``Fraction`` parse it replaces: the same
    values, and the same exception type and message for bad tokens."""

    def test_agrees_with_fraction_parse(self):
        ok = bad = 0
        for tok in _tokens(random.Random(21), 3000):
            try:
                want = _reference_quad_token(tok)
            except InvalidInputError as exc:
                bad += 1
                for parse in (serialize._quad_parts, parse_quad_token):
                    with pytest.raises(type(exc)) as got:
                        parse(tok)
                    assert str(got.value) == str(exc)
                continue
            ok += 1
            p, q, r, t = serialize._quad_parts(tok)
            assert q > 0 and t > 0
            assert QuadRational(Fraction(p, q), Fraction(r, t)) == want
            assert parse_quad_token(tok) == want
        assert ok > 300 and bad > 300

    @pytest.mark.parametrize("field", ["rational", "quad2"])
    def test_ray_files_agree_with_fraction_parse(self, field):
        """Entry tokens 're' and 're,im' in ray-set files: the loaded entry
        is the ``Fraction`` parse, or the load fails with its message, the
        rational-field sqrt2 error included."""
        rng = random.Random(field)
        tokens = [tok for tok in _tokens(rng, 400) if tok]  # a file has no empty token
        entries = tokens + [f"{rng.choice(tokens)},{rng.choice(tokens)}" for _ in range(800)]
        entries += ["1,2,3", ",", "1,", ",1"]
        ok = 0
        for tok in entries:
            text = f"rayset v1\ndimension 2\nfield {field}\nray a {tok} 1\n"
            try:
                parts = tok.split(",")
                if len(parts) > 2:
                    raise InvalidInputError(f"bad component {tok!r}")
                re, im = [_reference_quad_token(p) for p in parts] + [QuadRational(0)] * (2 - len(parts))
                if field == "rational" and (re.sqrt2 or im.sqrt2):
                    raise InvalidInputError(f"component {tok!r} uses sqrt2 in a rational-field ray set")
            except InvalidInputError as exc:
                with pytest.raises(InvalidInputError) as got:
                    load_rayset(text)
                assert str(got.value) == str(exc)
                continue
            ok += 1
            assert load_rayset(text).rays == ((QuadComplex(re, im), QuadComplex(1)),)
        assert ok > 50


_GOOD_TOKENS = ["0", "1", "-1", "1/2", "-3/4", "s2", "-s2", "1+s2",
                "1/2-1/3s2", "1,1", "s2,-1/2"]
_BAD_TOKENS = ["1/0", "0/0s2", ",", "1,2,3", "abc", "1e3", "-"]
_ODD_LINES = ["dimension abc", "dimension -1", "dimension", "dimension 3",
              "field", "field complex", "field rational", "contexts 1",
              "contexts x", "pairs 2", "pairs", "ray", "ray a", "ray a 1 0",
              "rayset v1", "# comment", "unknown 1"]


@st.composite
def _rayset_lines(draw):
    """A small ray-set body, well formed more often than not, with odd
    lines of directive keywords, labels and quad tokens inserted."""
    dim = draw(st.integers(2, 3))
    field = draw(st.sampled_from(["field quad2", "field rational"]))
    lines = [f"dimension {dim}", field]
    for label in "abcd"[: draw(st.integers(1, 4))]:
        tokens = draw(
            st.lists(
                st.sampled_from(_GOOD_TOKENS * 3 + _BAD_TOKENS),
                min_size=dim,
                max_size=dim,
            )
        )
        lines.append(" ".join(["ray", label, *tokens]))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(_ODD_LINES)))
    return lines


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_rayset_lines())
    def test_load_rayset_returns_or_raises_invalid_input(self, lines):
        """The parser returns a RaySet or raises InvalidInputError, nothing
        else."""
        try:
            rs = load_rayset("\n".join(["rayset v1", *lines]))
        except InvalidInputError:
            return
        assert isinstance(rs, RaySet)
