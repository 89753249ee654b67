"""Ray sets, orthogonality graphs, the coloring solver and its brute-force
cross-check, and per-context suitable perturbation."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kscolor.coloring import TruthValue
from kscolor.errors import InvalidInputError
from kscolor.fields import QuadComplex, QuadRational
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


def rational_rayset(vectors, dimension, labels=None):
    rays = []
    for vec in vectors:
        rays.append([QuadComplex(QuadRational(Fraction(x))) for x in vec])
    return RaySet(dimension, rays, labels)


BASIS3 = rational_rayset([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)


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

    @pytest.mark.parametrize("name", ["peres33", "peres24"])
    def test_matches_reference_on_builtins(self, name):
        rs = load_builtin(name)
        g = build_graph(rs)
        assert (g.pairs, g.neighbors, g.contexts) == _reference_graph(rs)


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
