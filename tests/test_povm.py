"""POVM coloring: sqrt2-sign trueness, suitability, witnessed falseness,
and perturbation of float targets into exactly suitable decompositions."""

import hashlib
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from kscolor import povm
from kscolor.cli import _rng_orthonormal
from kscolor.coloring import TruthValue
from kscolor.errors import (
    DegenerateInputError,
    InvalidInputError,
    NotApplicableError,
    ResourceLimitError,
)
from kscolor.fields import QuadComplex, QuadRational, rationalize
from kscolor.linalg import QuadHermitian, frob_dist2, psd_check
from kscolor.povm import (
    PovmDecomposition,
    PovmElement,
    _dist2,
    _dyadic,
    _element,
    _float_psd_within,
    classify_element,
    classify_with_witness,
    is_suitable,
    make_suitable_near,
    truth_sum,
)

HALF = Fraction(1, 2)


def silver_power(k):
    """(sqrt2 - 1)^k, exactly: tiny, with huge parts of opposite sign."""
    p, q = 1, 0
    for _ in range(k):
        p, q = 2 * q - p, p - q
    return QuadRational(p, q)


def identity_minus_tj(t, scale=1):
    """scale * (I - tJ), J the all-ones 2x2 matrix."""
    a = QuadComplex(scale * (1 - t))
    b = QuadComplex(scale * (-t))
    return QuadHermitian([[a, b], [b, a]])


def qc(rat=0, s2=0):
    return QuadComplex(QuadRational(Fraction(rat), Fraction(s2)))


def herm(entries):
    return QuadHermitian([[e if isinstance(e, QuadComplex) else qc(e) for e in row] for row in entries])


def diag(*vals):
    n = len(vals)
    rows = [[qc(0)] * n for _ in range(n)]
    for i, v in enumerate(vals):
        rows[i][i] = v if isinstance(v, QuadComplex) else qc(v)
    return QuadHermitian(rows)


# {I - (1/2)sqrt2 E11, (1/2)sqrt2 E11}: the second element carries the
# positive sqrt2 weight at (1,1) and is the unique TRUE member
SLICE = QuadHermitian(
    [
        [qc(0, HALF), qc(0), qc(0)],
        [qc(0), qc(0), qc(0)],
        [qc(0), qc(0), qc(0)],
    ]
)
REST = QuadHermitian(
    [
        [QuadComplex(QuadRational(1, -HALF)), qc(0), qc(0)],
        [qc(0), qc(1), qc(0)],
        [qc(0), qc(0), qc(1)],
    ]
)


class TestClassifyElement:
    def test_identity_is_not_true(self):
        assert classify_element(diag(1, 1, 1)) is TruthValue.FALSE

    def test_positive_sqrt2_component_is_true(self):
        a11 = QuadComplex(QuadRational(HALF, Fraction(1, 7)))
        assert classify_element(diag(a11, HALF, HALF)) is TruthValue.TRUE

    def test_negative_sqrt2_component_is_not_true(self):
        a11 = QuadComplex(QuadRational(HALF, Fraction(-1, 7)))
        assert classify_element(diag(a11, HALF, HALF)) is TruthValue.FALSE

    def test_psd_enforced_on_element_construction(self):
        with pytest.raises(InvalidInputError):
            PovmElement(diag(1, -1))

    def test_integer_sign_matches_a11(self):
        """The sign read from the cleared integers agrees with the sqrt2
        part of a11() on seeded diagonally dominant Q(sqrt2)-complex
        elements, a11's sqrt2 part positive, negative or zero."""
        rng = random.Random(20261101)

        def small():
            return Fraction(rng.randint(-4, 4), rng.randint(1, 9))

        seen = set()
        for _ in range(300):
            n = rng.randint(1, 3)
            scale = Fraction(rng.randint(1, 50), rng.randint(1, 10**6))
            rows = [[None] * n for _ in range(n)]
            for i in range(n):
                s2 = small() * rng.choice([0, 1, 1])
                rows[i][i] = QuadComplex(QuadRational(10 + small(), s2) * scale)
                for j in range(i + 1, n):
                    z = QuadComplex(QuadRational(small(), small()),
                                    QuadRational(small(), small()))
                    rows[i][j] = z * QuadComplex(scale / 4)
                    rows[j][i] = rows[i][j].conjugate()
            e = PovmElement(QuadHermitian(rows))
            want = TruthValue.TRUE if e.a11().sqrt2 > 0 else TruthValue.FALSE
            assert classify_element(e) is want
            seen.add((want, e.a11().sqrt2 == 0))
        assert seen == {(TruthValue.TRUE, False), (TruthValue.FALSE, False),
                        (TruthValue.FALSE, True)}


class TestDecomposition:
    def test_sum_must_be_exact_identity(self):
        with pytest.raises(InvalidInputError):
            PovmDecomposition([PovmElement(diag(HALF, HALF)), PovmElement(diag(HALF, Fraction(1, 3)))])

    def test_slice_example_is_suitable(self):
        d = PovmDecomposition([PovmElement(REST), PovmElement(SLICE)])
        assert is_suitable(d)
        assert classify_element(d[1]) is TruthValue.TRUE
        assert classify_element(d[0]) is TruthValue.FALSE
        assert truth_sum(d) == 1

    def test_identity_alone_is_not_suitable(self):
        d = PovmDecomposition([PovmElement(diag(1, 1, 1))])
        assert not is_suitable(d)
        with pytest.raises(NotApplicableError):
            truth_sum(d)


def quad_complex(re_rat, re_s2, im_rat, im_s2):
    return QuadComplex(QuadRational(re_rat, re_s2), QuadRational(im_rat, im_s2))


# E1 + E2 = I with every component of the (1,2) entry nonzero; E1 is split
# in thirds, so the sum check adds three elements.
_A = quad_complex(Fraction(1, 10), Fraction(1, 30), Fraction(1, 7), Fraction(1, 20))
_E1 = QuadHermitian([[qc(HALF, Fraction(1, 8)), _A],
                     [_A.conjugate(), qc(HALF, Fraction(-1, 16))]])
_E2 = QuadHermitian.identity(2) - _E1
_THREE = [_E1.scaled(Fraction(1, 3)), _E1.scaled(Fraction(2, 3)), _E2]
_PARTS = ("re.rat", "re.sqrt2", "im.rat", "im.sqrt2")


def _nudged(m: QuadHermitian, i: int, j: int, part: str, unit: Fraction):
    """m with one unit added to one component of entry (i, j), and its
    mirror (j, i) moved to match, so an off-diagonal nudge stays Hermitian."""
    bump = quad_complex(*(unit if p == part else 0 for p in _PARTS))
    rows = [list(r) for r in m.rows]
    rows[i][j] = rows[i][j] + bump
    if i != j:
        rows[j][i] = rows[j][i] + bump.conjugate()
    return QuadHermitian(rows)


# The smallest step the integer sum check sees: one unit over the lcm D of
# the three elements' denominators, which all differ.
_DENS = [e.cleared[1] for e in _THREE]
_UNIT = Fraction(1, math.lcm(*_DENS))


class TestDecompositionSum:
    """The exact sum to I is checked on each of the four components."""

    def test_denominators_differ(self):
        assert len(set(_DENS)) == 3

    @pytest.mark.parametrize("part", _PARTS)
    @pytest.mark.parametrize("i,j", [(0, 0), (1, 1), (0, 1), (1, 0)])
    @pytest.mark.parametrize("k", [0, 2])
    def test_one_unit_off_is_rejected(self, part, i, j, k):
        elems = list(_THREE)
        if i == j and part.startswith("im"):
            # A diagonal imaginary part cannot be nudged Hermitian-ly.
            with pytest.raises(InvalidInputError, match="not Hermitian"):
                _nudged(elems[k], i, j, part, Fraction(1, 1000))
            return
        elems[k] = _nudged(elems[k], i, j, part, Fraction(1, 1000))
        assert psd_check(elems[k])
        with pytest.raises(InvalidInputError, match="sum exactly"):
            PovmDecomposition(elems)

    def test_one_lcm_unit_off_is_rejected(self):
        """A sum off by 1/D in any coefficient slot, on a diagonal or an
        off-diagonal entry of any element, is one unit of the integer total."""
        for k in range(3):
            for part in _PARTS:
                for i, j in [(0, 0), (1, 1), (0, 1)] if part.startswith("re") else [(0, 1)]:
                    elems = list(_THREE)
                    elems[k] = _nudged(elems[k], i, j, part, _UNIT)
                    with pytest.raises(InvalidInputError, match="sum exactly"):
                        PovmDecomposition(elems)

    def test_reordered_decomposition_is_accepted(self):
        for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
            d = PovmDecomposition([_THREE[k] for k in order])
            assert [e.matrix for e in d] == [_THREE[k] for k in order]

    def test_every_witness_is_accepted(self):
        """Seeded elements a*P + b*I (P a Gaussian-integer projector, a in
        Q(sqrt2)): each FALSE witness sums to I by QuadHermitian addition,
        and PovmDecomposition accepts it again, in any order."""
        rng = random.Random(20261020)
        sizes = set()
        for _ in range(120):
            n = rng.randint(1, 4)
            v = [complex(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
            v[0] = v[0] or 1
            nv = int(sum(abs(z) ** 2 for z in v))
            a = QuadRational(Fraction(rng.randint(30, 40), 100),
                             Fraction(rng.randint(-12, 3), rng.randint(90, 110)))
            b = Fraction(rng.randint(1, 25), rng.randint(50, 100))
            rows = [[QuadComplex(a * Fraction(int((v[i] * v[j].conjugate()).real), nv)
                                 + (b if i == j else 0),
                                 a * Fraction(int((v[i] * v[j].conjugate()).imag), nv))
                     for j in range(n)] for i in range(n)]
            value, witness = classify_with_witness(QuadHermitian(rows))
            if witness is None:
                continue
            assert value is TruthValue.FALSE
            mats = [e.matrix for e in witness]
            assert sum(mats[1:], mats[0]) == QuadHermitian.identity(n)
            assert PovmDecomposition(mats[::-1]).elements == witness.elements[::-1]
            sizes.add(len({m.cleared[1] for m in mats}))
        assert 3 in sizes  # witnesses whose three denominators all differ


class TestClassifyWithWitness:
    def test_true_element_needs_no_witness(self):
        a11 = QuadComplex(QuadRational(HALF, Fraction(1, 7)))
        value, witness = classify_with_witness(diag(a11, HALF, HALF))
        assert value is TruthValue.TRUE
        assert witness is None

    def test_identity_has_no_witness(self):
        value, witness = classify_with_witness(diag(1, 1, 1))
        assert value is TruthValue.UNDETERMINED_NO_WITNESS
        assert witness is None

    def test_complement_of_e11_is_false_with_witness(self):
        value, witness = classify_with_witness(diag(0, 1, 1))
        assert value is TruthValue.FALSE
        assert witness is not None
        assert is_suitable(witness)
        assert any(e.matrix == diag(0, 1, 1) for e in witness)

    def test_saturated_diagonal_edge_case(self):
        value, witness = classify_with_witness(diag(1, HALF, HALF))
        assert value is TruthValue.UNDETERMINED_NO_WITNESS
        assert witness is None

    def test_partial_diagonal_is_false(self):
        value, witness = classify_with_witness(diag(HALF, 1, 1))
        assert value is TruthValue.FALSE
        assert is_suitable(witness)

    def test_rank1_complement_uses_scaled_split(self):
        # A = I - P for the projector P onto (1,1,0): complement is rank 1
        a = herm(
            [
                [HALF, -HALF, 0],
                [-HALF, HALF, 0],
                [0, 0, 1],
            ]
        )
        value, witness = classify_with_witness(a)
        assert value is TruthValue.FALSE
        assert witness is not None
        assert is_suitable(witness)
        total = QuadHermitian.zeros(3)
        for e in witness:
            total = total + e.matrix
        assert total == QuadHermitian.identity(3)

    def test_witness_membership(self):
        value, witness = classify_with_witness(diag(HALF, 1, 1))
        assert any(e.matrix == diag(HALF, 1, 1) for e in witness)

    @pytest.mark.parametrize("k", [3, 41, 1001])
    def test_tiny_complement_gets_a_witness(self, k):
        # I - tJ with t = (sqrt2 - 1)^k, k odd, is not TRUE; its complement
        # tJ is rank 1, so the slice fails and the scaled split must carry
        # a corner far below the binary64 range at k = 1001.
        a = identity_minus_tj(silver_power(k))
        value, witness = classify_with_witness(a)
        assert value is TruthValue.FALSE
        assert is_suitable(witness)
        assert any(e.matrix == a for e in witness)

    def test_psd_forces_vanishing_row_when_corner_is_zero(self):
        # mechanical core of the no-witness case: if a PSD matrix has zero
        # (1,1) entry, its first row and column vanish
        m = herm(
            [
                [0, Fraction(1, 5), 0],
                [Fraction(1, 5), 1, 0],
                [0, 0, 1],
            ]
        )
        assert not psd_check(m)
        ok = herm(
            [
                [0, 0, 0],
                [0, 1, 0],
                [0, 0, 1],
            ]
        )
        assert psd_check(ok)


def float_identity(n):
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


def random_float_povm(rng, n, m):
    """Random m-element POVM from a random orthonormal basis grouped into
    m bins and blended toward I/m."""
    basis = []
    while len(basis) < n:
        raw = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
        for u in basis:
            ip = sum(a.conjugate() * b for a, b in zip(u, raw))
            raw = [b - ip * a for a, b in zip(u, raw)]
        nrm = sum(abs(x) ** 2 for x in raw) ** 0.5
        if nrm > 1e-6:
            basis.append([x / nrm for x in raw])
    groups = [[] for _ in range(m)]
    order = list(range(n))
    rng.shuffle(order)
    for pos, k in enumerate(order):
        groups[pos % m].append(k)
    blend = 0.1 + 0.8 * rng.random()
    mats = []
    for grp in groups:
        mat = [[0j] * n for _ in range(n)]
        for k in grp:
            v = basis[k]
            for i in range(n):
                for j in range(n):
                    mat[i][j] += v[i] * v[j].conjugate()
        for i in range(n):
            for j in range(n):
                mat[i][j] *= 1.0 - blend
            mat[i][i] += blend / m
        mats.append(mat)
    return mats


# Test-only reference: the Fraction-entry distance certificate that the
# integer _dist2 replaced.
def reference_dist2(w: QuadHermitian, target) -> QuadRational:
    acc = QuadRational(0)
    for row, trow in zip(w.rows, target):
        for e, z in zip(row, trow):
            dr, di = e.re - Fraction(z.real), e.im - Fraction(z.imag)
            acc = acc + dr * dr + di * di
    return acc


def _draw_float(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return 0.0
    if kind == 1:  # subnormal
        return rng.choice((1, -1)) * rng.randint(1, 2**20) * 5e-324
    if kind == 2:  # tiny normal
        return rng.uniform(-1, 1) * 10.0 ** rng.randint(-307, -200)
    if kind == 3:  # near the top of the binary64 range
        return rng.uniform(-1.7, 1.7) * 1e308
    return rng.uniform(-1, 1)


def _draw_case(rng):
    """A lattice point over ``scale`` with a corner sqrt2 part, and a binary64
    target that is neither Hermitian nor near the point everywhere."""
    n = rng.randint(1, 4)
    scale = rng.randint(1, 10**12)
    base = [[complex(_draw_float(rng), _draw_float(rng)) for _ in range(n)]
            for _ in range(n)]
    point = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            z = base[i][j] if rng.random() < 0.5 else 0j
            x = round(Fraction(z.real) * scale) + rng.randint(-3, 3)
            y = 0 if i == j else round(Fraction(z.imag) * scale) + rng.randint(-3, 3)
            point[i][j], point[j][i] = (x, y), (x, -y)
    # non-Hermitian noise on the target
    target = [[z + complex(rng.uniform(-1e-8, 1e-8), rng.uniform(-1e-8, 1e-8))
               if rng.random() < 0.5 else z for z in row] for row in base]
    corner = rng.choice((0, 1, -1)) * Fraction(rng.randint(1, 10**6), rng.randint(1, 10**9))
    return point, scale, corner, target


def _element_ref(point, scale, corner):
    rows = [[QuadComplex(QuadRational(Fraction(x, scale)), QuadRational(Fraction(y, scale)))
             for x, y in row] for row in point]
    rows[0][0] = QuadComplex(QuadRational(Fraction(point[0][0][0], scale), corner))
    return QuadHermitian(rows)


def _as_quad(d2, point_scale, bits, cd):
    """The integer certificate (r, s) of ``_dist2`` as the exact d^2."""
    den = ((point_scale << bits) * cd) ** 2
    return QuadRational(Fraction(d2[0], den), Fraction(d2[1], den))


def reference_worst(targets, eps, allow_split=False):
    """Test-only reference: the Fraction construction of make_suitable_near
    (theta, L, lattice points, corner transfer), up to its worst d^2, each
    measured by reference_dist2 on Fraction entries."""
    m, n = len(targets), len(targets[0])
    dev = max(math.sqrt(sum(abs(t[i][j] - (i == j) / m) ** 2 for i in range(n)
                            for j in range(n))) for t in targets)
    theta = min(Fraction(1, 4), eps / rationalize(4 * (dev + 1), 100))
    scale = math.ceil(4 * m * n * max(m / theta, 1 / eps))
    points = []
    for t in targets[:-1]:
        point = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                h = (Fraction(t[i][j].real) + Fraction(t[j][i].real)) / 2
                hi = (Fraction(t[i][j].imag) - Fraction(t[j][i].imag)) / 2
                x = round(((1 - theta) * h + theta / m * (i == j)) * scale)
                point[i][j] = (x, round((1 - theta) * hi * scale))
        points.append(point)
    points.append([[(scale * (i == j) - sum(p[i][j][0] for p in points),
                     -sum(p[i][j][1] for p in points)) for j in range(n)] for i in range(n)])
    a11s = [p[0][0][0] for p in points]
    order = sorted(range(m), key=lambda k: (-a11s[k], k))
    donor = next((k for k in order[1:] if a11s[k] > 0), None)
    delta = theta / (8 * m)
    corners = [Fraction(0)] * m
    if donor is None:
        assert allow_split
        corners[order[0]] = -delta
    else:
        corners[order[0]], corners[donor] = delta, -delta
    dists = [reference_dist2(_element_ref(p, scale, c), t)
             for p, c, t in zip(points, corners, targets)]
    if donor is None:
        dists.append(QuadRational(2 * delta * delta))
    return max(dists)


class TestDistanceCertificate:
    """The integer _dist2 against the Fraction-entry reference, exactly."""

    @seed(20261019)
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=300, deadline=None, database=None)
    def test_matches_fraction_reference(self, s):
        point, scale, corner, target = _draw_case(random.Random(s))
        (ints,), bits = _dyadic([target])
        # The corner need not be in lowest terms: make_suitable_near's is not.
        f = 1 + s % 7
        cn, cd = corner.numerator * f, corner.denominator * f
        got = _as_quad(_dist2(point, scale, (cn, cd), ints, bits), scale, bits, cd)
        assert got == reference_dist2(_element_ref(point, scale, corner), target)
        assert _element(point, scale, (cn, cd)).rows == _element_ref(point, scale, corner).rows

    @pytest.mark.parametrize("n", [1, 3])
    def test_split_element(self, n):
        # The appended delta*sqrt2*E11 element against a zero target.
        delta = Fraction(1, 96)
        zero = [[0j] * n for _ in range(n)]
        (ints,), bits = _dyadic([zero])
        point = [[(0, 0)] * n for _ in range(n)]
        want = reference_dist2(diag(qc(0, delta), *[0] * (n - 1)), zero)
        assert want == QuadRational(2 * delta * delta)
        got = _dist2(point, 7, (1, 96), ints, bits)
        assert got == (2 * (7 << bits) ** 2, 0)  # the form make_suitable_near appends
        assert _as_quad(got, 7, bits, 96) == want

    def test_extreme_entries(self):
        target = [[complex(5e-324, -1.7e308), complex(1e-310, 2.2e-308)],
                  [complex(-1e308, 5e-324), complex(0.5, -4e-9)]]
        point = [[(3, 0), (-1, 2)], [(-1, -2), (5, 0)]]
        (ints,), bits = _dyadic([target])
        corner = Fraction(-1, 3)
        assert _as_quad(_dist2(point, 10, (-1, 3), ints, bits), 10, bits, 3) == reference_dist2(
            _element_ref(point, 10, corner), target)

    @pytest.mark.parametrize("n,m,allow_split", [(2, 2, False), (3, 4, False), (4, 3, False),
                                                 (3, 1, True)])
    def test_sum_miss_carries_the_reference_maximum(self, n, m, allow_split):
        # Binary64 targets that sum to I only to rounding: at eps 1e-300 the
        # last element, I minus the others, misses by the sum's error.
        targets = random_float_povm(random.Random(300 + 10 * n + m), n, m)
        eps = Fraction(1, 10**300)
        with pytest.raises(ResourceLimitError, match="lattice point lies at") as info:
            make_suitable_near(targets, eps, allow_split=allow_split)
        assert info.value.achieved_dist2 > eps * eps
        assert info.value.achieved_dist2 == reference_worst(targets, eps, allow_split)

    def test_psd_miss_carries_the_reference_maximum(self):
        # Exactly Hermitian dyadic targets summing exactly to I, the third
        # with eigenvalue -2^-30 (PSD to 1e-8): every distance is certified,
        # but the margin theta/m at eps 1e-12 cannot lift that element to PSD.
        t = 2.0 ** -30
        targets = [[[0.5, 0], [0, 0.5 + t]], [[0.5, 0], [0, 0.5]], [[0, 0], [0, -t]]]
        eps = Fraction(1, 10**12)
        with pytest.raises(ResourceLimitError, match="not PSD") as info:
            make_suitable_near(targets, eps)
        assert info.value.achieved_dist2 <= eps * eps
        assert info.value.achieved_dist2 == reference_worst(targets, eps)


class TestMakeSuitableNear:
    def test_two_half_identities(self):
        half_i = [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5]]
        dec = make_suitable_near([half_i, half_i], Fraction(1, 10**4))
        assert is_suitable(dec)
        assert truth_sum(dec) == 1
        total = QuadHermitian.zeros(3)
        for e in dec:
            assert psd_check(e.matrix)
            total = total + e.matrix
        assert total == QuadHermitian.identity(3)

    def test_identity_needs_split(self):
        with pytest.raises(DegenerateInputError):
            make_suitable_near([float_identity(3)], Fraction(1, 10**4))
        dec = make_suitable_near([float_identity(3)], Fraction(1, 10**4), allow_split=True)
        assert is_suitable(dec)
        assert len(dec) == 2

    def test_exactly_suitable_input_passes_through(self):
        d = PovmDecomposition([PovmElement(REST), PovmElement(SLICE)])
        assert make_suitable_near(d, Fraction(1, 10**6)) is d

    def test_exactly_suitable_element_list_passes_through(self):
        want = PovmDecomposition([PovmElement(REST), PovmElement(SLICE)])
        assert make_suitable_near([REST, PovmElement(SLICE)], Fraction(1, 10**6)) == want

    def test_exact_but_unsuitable_input_is_perturbed(self):
        d = PovmDecomposition(
            [PovmElement(diag(HALF, HALF, HALF)), PovmElement(diag(HALF, HALF, HALF))]
        )
        out = make_suitable_near(d, Fraction(1, 100))
        assert is_suitable(out)

    def test_distance_bound_exact(self):
        rng = random.Random(11)
        eps = Fraction(1, 100)
        targets = random_float_povm(rng, 3, 3)
        dec = make_suitable_near(targets, eps)
        assert is_suitable(dec)
        for e, t in zip(dec, targets):
            # rationalized-target comparison: rebuild the target exactly
            rows = []
            for i in range(3):
                row = []
                for j in range(3):
                    row.append(
                        QuadComplex(
                            QuadRational(Fraction(t[i][j].real)),
                            QuadRational(Fraction(t[i][j].imag)),
                        )
                    )
                rows.append(row)
            texact = QuadHermitian(rows)
            assert frob_dist2(e.matrix, texact) <= eps * eps

    def test_random_povms_all_dimensions(self):
        rng = random.Random(2)
        for n in (2, 3, 4):
            for m in (2, 3, 5):
                targets = random_float_povm(rng, n, m)
                dec = make_suitable_near(targets, Fraction(1, 100))
                assert is_suitable(dec)
                assert len(dec) == m
                total = QuadHermitian.zeros(n)
                for e in dec:
                    assert psd_check(e.matrix)
                    total = total + e.matrix
                assert total == QuadHermitian.identity(n)

    def test_rejects_bad_sum(self):
        bad = [[[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5]]]
        with pytest.raises(InvalidInputError):
            make_suitable_near(bad, Fraction(1, 100))

    def test_distance_certified_against_non_hermitian_input(self):
        # Hermitian only to 1e-8: the anti-Hermitian part alone puts every
        # exact Hermitian matrix at d^2 = 2 * (2.5e-9)^2 = 1.25e-17 or more.
        targets = [
            [[0.5, 0.1], [0.1 + 5e-9, 0.5]],
            [[0.5, -0.1], [-0.1 - 5e-9, 0.5]],
        ]
        eps = Fraction(1, 10**10)
        with pytest.raises(ResourceLimitError) as info:
            make_suitable_near(targets, eps)
        assert info.value.achieved_dist2 > eps * eps
        assert info.value.achieved_dist2 > Fraction(1, 10**17)
        dec = make_suitable_near(targets, Fraction(1, 100))
        assert is_suitable(dec)

    @pytest.mark.parametrize("i,j,z", [(0, 1, 0.1 + 2e-8j), (1, 0, 0.1 - 2e-8),
                                       (1, 1, 0.5 + 2e-8j)])
    def test_rejects_non_hermitian_target(self, i, j, z):
        # Off by 2e-8 above or below the diagonal, or an imaginary diagonal.
        targets = [[[0.5, 0.1], [0.1, 0.5]], [[0.5, -0.1], [-0.1, 0.5]]]
        targets[0][i][j] = z
        with pytest.raises(InvalidInputError, match="target 0 is not Hermitian to 1e-8"):
            make_suitable_near(targets, Fraction(1, 100))

    @pytest.mark.parametrize("r_side,s,miss", [(1, -2, False), (-1, 2, True)])
    def test_sqrt2_part_decides_the_bound(self, monkeypatch, r_side, s, miss):
        """d^2 = (r + s*sqrt2)/den with r/den just above eps^2 and s < 0, or
        just below and s > 0: only the sqrt2 part puts d^2 on its side."""
        eps = Fraction(1, 100)

        def at_bound(point, scale, corner, t, k):
            den = ((scale << k) * corner[1]) ** 2
            edge = den * eps * eps
            r = math.ceil(edge) + 1 if r_side > 0 else math.floor(edge) - 1
            at_bound.d2 = QuadRational(Fraction(r, den), Fraction(s, den))
            return r, s

        monkeypatch.setattr(povm, "_dist2", at_bound)
        targets = [[[0.5, 0], [0, 0.5]], [[0.5, 0], [0, 0.5]]]
        if not miss:
            assert is_suitable(make_suitable_near(targets, eps))
            return
        with pytest.raises(ResourceLimitError) as info:
            make_suitable_near(targets, eps)
        assert info.value.achieved_dist2 == at_bound.d2 > eps * eps

    def test_entry_modulus_beyond_binary64_is_invalid(self):
        # abs() of 1.5e308 + 1.5e308j overflows; the input is no POVM.
        big = complex(1.5e308, 1.5e308)
        targets = [[[1, big], [big.conjugate(), 1]], [[0j, 0j], [0j, 0j]]]
        with pytest.raises(InvalidInputError, match="overflow"):
            make_suitable_near(targets, Fraction(1, 100))

    @pytest.mark.parametrize("exact", [True, False], ids=["quad", "int"])
    def test_exact_entries_beyond_binary64_are_invalid(self, exact):
        # 10^400 and 1 - 10^400 sum to I but have no binary64 image.
        entries = [10**400, 1 - 10**400]
        targets = [QuadHermitian([[e]]) if exact else [[e]] for e in entries]
        with pytest.raises(InvalidInputError, match="overflow"):
            make_suitable_near(targets, "1/100")

    def test_exact_input_with_tiny_element(self):
        # {A/2, A/2, tJ}, A = I - tJ, t = (sqrt2 - 1)^40: exact, with two TRUE
        # elements, so it is perturbed through binary64 images of its entries.
        t = silver_power(40)
        half = identity_minus_tj(t, HALF)
        tj = QuadHermitian([[QuadComplex(t)] * 2] * 2)
        dec = make_suitable_near([half, half, tj], Fraction(1, 100))
        assert is_suitable(dec)
        assert len(dec) == 3


def _near_boundary(rng, n, low):
    """Binary64 rows of U diag(low, ...) U* plus anti-Hermitian noise, for a
    random unitary U and the other eigenvalues in (0.05, 0.95)."""
    u = _rng_orthonormal(rng, n)
    lam = [low] + [rng.uniform(0.05, 0.95) for _ in range(n - 1)]
    rows = [[sum(lam[k] * u[k][i] * u[k][j].conjugate() for k in range(n)) for j in range(n)]
            for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] += complex(rng.uniform(-1e-9, 1e-9), rng.uniform(-1e-9, 1e-9))
    return rows


def _exact_psd_within(rows, tol):
    """Test-only reference: H + s*I built from Fractions, by psd_check."""
    n = len(rows)
    s = Fraction(tol * max(1.0, max(abs(e) for r in rows for e in r)) * 2)
    re = [[(Fraction(rows[i][j].real) + Fraction(rows[j][i].real)) / 2 + s * (i == j)
           for j in range(n)] for i in range(n)]
    im = [[(Fraction(rows[i][j].imag) - Fraction(rows[j][i].imag)) / 2
           for j in range(n)] for i in range(n)]
    entries = [[QuadComplex(QuadRational(re[i][j]), QuadRational(im[i][j])) for j in range(n)]
               for i in range(n)]
    return psd_check(QuadHermitian(entries))


class TestInputPsd:
    """The short-integer fast path with the exact fallback decides as the
    exact test alone, also within delta of the PSD boundary."""

    def test_fast_path_and_fallback_match_the_exact_test(self, monkeypatch):
        calls = []

        def counted(w):
            calls.append(len(w))
            return psd_cleared(w)

        psd_cleared = povm._psd_cleared
        monkeypatch.setattr(povm, "_psd_cleared", counted)
        rng = random.Random(20261020)
        s = 2e-8  # every entry is below 1 in modulus
        seen = set()
        for _ in range(12):
            for n in (1, 2, 3, 5, 8):
                for low in (0.0, -0.3 * s, -0.9 * s, -0.999 * s, -1.001 * s, -1.1 * s, -5 * s):
                    rows = _near_boundary(rng, n, low)
                    (t,), k = _dyadic([rows])
                    calls.clear()
                    got = _float_psd_within(rows, t, k, 1e-8)
                    assert got == _exact_psd_within(rows, 1e-8)
                    seen.add((len(calls), got))
        # (1, True): the fast path proved PSD; (2, True): it declined and
        # the exact test proved PSD; (2, False): the exact test refuted it.
        assert seen == {(1, True), (2, True), (2, False)}

    def test_dyadic_short_entries_skip_the_fast_path(self, monkeypatch):
        # Entries with few bits need no rounding: the exact test decides alone.
        calls = []
        psd_cleared = povm._psd_cleared
        monkeypatch.setattr(povm, "_psd_cleared", lambda w: calls.append(w) or psd_cleared(w))
        rows = [[0.5, 0.25j], [-0.25j, 0.5]]
        (t,), k = _dyadic([rows])
        assert _float_psd_within(rows, t, k, 1e-8)
        assert len(calls) == 1


# make_suitable_near on the n = 32 rank-1 targets v v* of the seed-7
# orthonormal basis at eps 1e-4: the repr's sha256 (recorded with the
# Fraction certificate and exact input checks this output must match) and
# a time bound of 3x the slowest measured run.
HIGH_DIM_POVM = ("6c3bd1607c63807b86427efd1b212a12f2a2e63cf528426aebf285599a7a4407", 6.0)


def test_make_suitable_near_n32():
    digest, bound = HIGH_DIM_POVM
    basis = _rng_orthonormal(random.Random(7), 32)
    targets = [[[a * b.conjugate() for b in v] for a in v] for v in basis]
    start = time.perf_counter()
    dec = make_suitable_near(targets, Fraction(1, 10**4))
    elapsed = time.perf_counter() - start
    assert hashlib.sha256(repr(dec).encode()).hexdigest() == digest
    assert is_suitable(dec) and len(dec) == 32
    assert elapsed < bound
