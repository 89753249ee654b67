"""Truth predicates: ray trueness, frame suitability, the non-orthogonality
certificate for TRUE pairs, and matrix-level trueness with witness shifts."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from kscolor.coloring import (
    ProjectionRep,
    TruthValue,
    classify_decomposition,
    classify_in_frame,
    classify_projection_matrix,
    classify_ray,
    nonorthogonality_certificate,
    truth_sum,
    witness_shift,
)
from kscolor.errors import InvalidInputError, NotApplicableError
from kscolor.fields import GaussianRational, v3
from kscolor.linalg import Frame, GMatrix, GVector, gram_schmidt, inner_product

TRUE_RAY = GVector.from_reals(
    [Fraction(1, 3), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)]
)
TRUE_RAY_B = GVector.from_reals(
    [Fraction(2, 3), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5)]
)
# generic coordinates, so the rank-1 projector has no vanishing components
MATRIX_RAY = GVector.from_reals(
    [Fraction(1, 3), Fraction(1, 2), Fraction(2, 5), Fraction(1, 5), Fraction(1, 4), Fraction(2, 7)]
)
MATRIX_RAY_B = GVector.from_reals(
    [Fraction(2, 3), Fraction(1, 5), Fraction(1, 7), Fraction(2, 7), Fraction(3, 8), Fraction(1, 2)]
)


def gvec(*reals):
    return GVector.from_reals([Fraction(x) for x in reals])


class TestClassifyRay:
    def test_canonical_true_ray(self):
        assert classify_ray(TRUE_RAY) is TruthValue.TRUE

    def test_zero_coordinates_block_trueness(self):
        assert classify_ray(gvec(1, 0, 0, 0, 0, 0)) is TruthValue.UNDETERMINED

    def test_second_denominator_divisible_by_3_blocks(self):
        v = gvec(Fraction(1, 3), Fraction(1, 6), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        assert classify_ray(v) is TruthValue.UNDETERMINED

    def test_first_denominator_not_divisible_by_3_blocks(self):
        v = gvec(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        assert classify_ray(v) is TruthValue.UNDETERMINED

    def test_deeper_valuation_still_true(self):
        v = gvec(Fraction(1, 9), 1, 2, 3, 4, 5)
        assert classify_ray(v) is TruthValue.TRUE

    def test_scaling_by_powers_of_3_shifts_the_outcome(self):
        # scaling every coordinate by 3 moves v3 up by one everywhere
        scaled = TRUE_RAY.scaled(GaussianRational(3))
        assert classify_ray(scaled) is TruthValue.UNDETERMINED
        rescued = scaled.scaled(GaussianRational(Fraction(1, 3)))
        assert classify_ray(rescued) is TruthValue.TRUE


def reference_classify_ray(v: GVector) -> TruthValue:
    """The Fraction/v3 loop that the integer classify_ray replaced."""
    coords = v.real_coordinates()
    first = coords[0]
    if first == 0 or v3(first) > -1:
        return TruthValue.UNDETERMINED
    for c in coords[1:]:
        if c == 0 or v3(c) < 0:
            return TruthValue.UNDETERMINED
    return TruthValue.TRUE


def rand_three_adic(rng, val):
    """A nonzero rational of 3-adic valuation val, either sign, with a
    cofactor m prime to 3 in its denominator."""
    num = rng.choice((1, 2, 4, 5, 7, 10, 11, 13, 1000003)) * rng.choice((1, -1))
    den = rng.choice((1, 2, 5, 7, 8, 998244353))
    return Fraction(num, den) * Fraction(3) ** val


def rand_ray_near_truth(rng, n):
    """Coordinates that are TRUE, or TRUE but for one change: a zero part,
    a first valuation raised to >= 0, another lowered below 0, or the whole
    vector rescaled by a power of 3; plus plain random coordinates."""
    kind = rng.randrange(6)
    coords = [rand_three_adic(rng, -rng.randint(1, 4))]
    coords += [rand_three_adic(rng, rng.randint(0, 3)) for _ in range(2 * n - 1)]
    k = rng.randrange(2 * n)
    if kind == 5:
        coords = [rng.choice((Fraction(0), rand_three_adic(rng, rng.randint(-3, 3))))
                  for _ in range(2 * n)]
    elif kind == 1:
        coords[k] = Fraction(0)
    elif kind == 2:
        coords[0] = rand_three_adic(rng, rng.randint(0, 2))
    elif kind == 3 and k:
        coords[k] = rand_three_adic(rng, -rng.randint(1, 3))
    elif kind == 4:
        coords = [c * Fraction(3) ** rng.randint(-2, 2) for c in coords]
    if not any(coords):
        coords[-1] = Fraction(1)
    return coords


class TestClassifyRayAgainstReference:
    @seed(20261026)
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=500, deadline=None)
    def test_matches_reference(self, s):
        rng = random.Random(s)
        v = GVector.from_reals(rand_ray_near_truth(rng, rng.randint(2, 6)))
        assert classify_ray(v) is reference_classify_ray(v)

    def test_reference_cases_cover_both_verdicts(self):
        rng = random.Random(20261026)
        verdicts = {classify_ray(GVector.from_reals(rand_ray_near_truth(rng, 3)))
                    for _ in range(200)}
        assert verdicts == {TruthValue.TRUE, TruthValue.UNDETERMINED}


def completion_frame(first):
    """Exactly orthogonal frame with `first` as leg 1, via Gram-Schmidt
    against standard directions."""
    n = len(first)
    basis = []
    for k in range(1, n):
        coords = [Fraction(0)] * (2 * n)
        coords[2 * k] = Fraction(1)
        basis.append(GVector.from_reals(coords))
    return gram_schmidt([first] + basis)


class TestFrames:
    def test_suitable_frame_reads_true_false_false(self):
        frame = completion_frame(TRUE_RAY)
        values = classify_in_frame(frame)
        assert values[0] is TruthValue.TRUE
        assert values.count(TruthValue.TRUE) == 1
        assert all(v is TruthValue.FALSE for v in values[1:])

    def test_standard_basis_is_unsuitable(self):
        frame = Frame([gvec(1, 0, 0, 0, 0, 0), gvec(0, 0, 1, 0, 0, 0), gvec(0, 0, 0, 0, 1, 0)])
        assert classify_in_frame(frame) == [TruthValue.UNDETERMINED] * 3

    def test_truth_sum_of_suitable_frame_is_1(self):
        frame = completion_frame(TRUE_RAY)
        assert truth_sum(frame) == 1

    def test_truth_sum_is_order_independent(self):
        frame = completion_frame(TRUE_RAY)
        permuted = Frame([frame[2], frame[0], frame[1]])
        assert truth_sum(permuted) == 1

    def test_truth_sum_undefined_without_true_leg(self):
        frame = Frame([gvec(1, 0, 0, 0, 0, 0), gvec(0, 0, 1, 0, 0, 0), gvec(0, 0, 0, 0, 1, 0)])
        with pytest.raises(NotApplicableError):
            truth_sum(frame)


class TestNonorthogonalityCertificate:
    def test_self_pair(self):
        re, val = nonorthogonality_certificate(TRUE_RAY, TRUE_RAY)
        assert re == Fraction(49, 36)
        assert val == -2

    def test_cross_pair(self):
        re, val = nonorthogonality_certificate(TRUE_RAY, TRUE_RAY_B)
        assert re == Fraction(13, 18)
        assert val == -2

    def test_rejects_non_true_input(self):
        with pytest.raises(InvalidInputError):
            nonorthogonality_certificate(TRUE_RAY, gvec(1, 0, 0, 0, 0, 0))

    @given(
        st.integers(min_value=1, max_value=9999),
        st.lists(st.integers(min_value=1, max_value=9999), min_size=5, max_size=5),
        st.integers(min_value=1, max_value=9999),
        st.lists(st.integers(min_value=1, max_value=9999), min_size=5, max_size=5),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=1),
    )
    @settings(max_examples=300, deadline=None)
    def test_true_pairs_never_orthogonal(self, p1, rest1, p2, rest2, s1, s2):
        def mk(p, rest, sgn):
            num1 = -p if sgn else p
            coords = [Fraction(num1, 3 * (p % 7 + 1))]
            for k, r in enumerate(rest):
                den = r % 50 + 1
                while den % 3 == 0:
                    den += 1
                coords.append(Fraction((-1) ** k * r, den) * 3 ** (r % 3))
            return GVector.from_reals(coords)

        u = mk(p1, rest1, s1)
        v = mk(p2, rest2, s2)
        if classify_ray(u) is not TruthValue.TRUE or classify_ray(v) is not TruthValue.TRUE:
            return
        re, val = nonorthogonality_certificate(u, v)
        assert val <= -2
        assert re != 0
        assert inner_product(u, v) != GaussianRational(0)


def rank1_true_rep(vec) -> ProjectionRep:
    """Scaled rank-1 projector representative from a TRUE ray."""
    n = len(vec)
    rows = []
    for i in range(n):
        rows.append([vec[i] * vec[j].conjugate() for j in range(n)])
    return ProjectionRep(GMatrix(rows))


class TestProjectionRep:
    def test_accepts_scaled_projector(self):
        rep = rank1_true_rep(TRUE_RAY)
        assert rep.rank == 1

    def test_rejects_non_projection_shape(self):
        m = GMatrix(
            [
                [GaussianRational(1), GaussianRational(1)],
                [GaussianRational(1), GaussianRational(0)],
            ]
        )
        with pytest.raises(InvalidInputError):
            ProjectionRep(m)

    def test_projector_recovers_idempotent(self):
        rep = rank1_true_rep(TRUE_RAY)
        p = rep.projector()
        assert p @ p == p

    def test_from_ray_matches_manual_construction(self):
        rep = ProjectionRep.from_ray(TRUE_RAY)
        assert rep.rank == 1


class TestClassifyProjectionMatrix:
    def test_true_rank1_case(self):
        rep = rank1_true_rep(MATRIX_RAY)
        assert classify_projection_matrix(rep) is TruthValue.TRUE

    def test_repeated_coordinates_block_matrix_trueness(self):
        # equal coordinates make an off-diagonal imaginary part vanish, so
        # the ray can be TRUE while no rescaled matrix form qualifies
        rep = rank1_true_rep(TRUE_RAY)
        assert classify_ray(TRUE_RAY) is TruthValue.TRUE
        assert classify_projection_matrix(rep) is TruthValue.UNDETERMINED

    def test_zero_entries_block(self):
        rep = ProjectionRep.from_ray(gvec(1, 0, 0, 0, 0, 0))
        assert classify_projection_matrix(rep) is TruthValue.UNDETERMINED

    def test_witness_shift_restores_literal_divisibility(self):
        rep = rank1_true_rep(MATRIX_RAY)
        t = witness_shift(rep)
        m = rep.matrix.scaled(GaussianRational(t))
        a11 = m.rows[0][0].re
        assert v3(a11) == -2
        for i in range(m.n):
            for j in range(m.n):
                if i == 0 and j == 0:
                    continue
                for comp in (m.rows[i][j].re, m.rows[i][j].im):
                    if comp != 0:
                        assert v3(comp) >= -1
        # off-diagonal components all nonzero; diagonal imaginary parts exempt
        for i in range(m.n):
            for j in range(m.n):
                assert m.rows[i][j].re != 0
                if i != j:
                    assert m.rows[i][j].im != 0

    def test_valuation_gap_agrees_with_shift_oracle(self):
        # brute-force oracle: try t = 3^k for k in [-10, 10] and check the
        # literal divisible-by-9 form of the shifted matrix
        import random

        rng = random.Random(20260815)
        checked = 0
        agree = 0
        while checked < 250:
            coords = []
            for k in range(6):
                num = rng.randint(1, 60) * (-1 if rng.random() < 0.5 else 1)
                den = rng.randint(1, 60)
                coords.append(Fraction(num, den))
            try:
                vec = GVector.from_reals(coords)
                rep = ProjectionRep.from_ray(vec)
            except Exception:
                continue
            got = classify_projection_matrix(rep) is TruthValue.TRUE
            oracle = False
            for k in range(-10, 11):
                t = Fraction(3) ** k
                m = rep.matrix.scaled(GaussianRational(t))
                ok = True
                for i in range(m.n):
                    for j in range(m.n):
                        re, im = m.rows[i][j].re, m.rows[i][j].im
                        if re == 0 or (i != j and im == 0):
                            ok = False
                            break
                        comps = [re] if i == j else [re, im]
                        for c in comps:
                            if (i, j) == (0, 0):
                                if v3(c) > -2:
                                    ok = False
                            elif v3(c) < -1:
                                ok = False
                        if not ok:
                            break
                    if not ok:
                        break
                if ok:
                    oracle = True
                    break
            assert got is oracle
            checked += 1
            agree += 1
        assert agree == checked


class TestClassifyDecomposition:
    def test_true_plus_complement(self):
        rep = rank1_true_rep(MATRIX_RAY)
        frame = completion_frame(MATRIX_RAY)
        others = [ProjectionRep.from_ray(frame[1]), ProjectionRep.from_ray(frame[2])]
        values = classify_decomposition([rep] + others)
        assert values[0] is TruthValue.TRUE
        assert values.count(TruthValue.TRUE) == 1
        assert all(v is TruthValue.FALSE for v in values[1:])

    def test_standard_basis_all_undetermined(self):
        reps = [
            ProjectionRep.from_ray(gvec(1, 0, 0, 0, 0, 0)),
            ProjectionRep.from_ray(gvec(0, 0, 1, 0, 0, 0)),
            ProjectionRep.from_ray(gvec(0, 0, 0, 0, 1, 0)),
        ]
        assert classify_decomposition(reps) == [TruthValue.UNDETERMINED] * 3

    def test_rejects_non_decomposition(self):
        rep = rank1_true_rep(MATRIX_RAY)
        with pytest.raises(InvalidInputError):
            classify_decomposition([rep, rep, rep])

    def test_true_matrix_pairs_stay_non_orthogonal_after_shifts(self):
        rep_a = rank1_true_rep(MATRIX_RAY)
        rep_b = rank1_true_rep(MATRIX_RAY_B)
        ta, tb = witness_shift(rep_a), witness_shift(rep_b)
        prod = rep_a.matrix.scaled(GaussianRational(ta)) @ rep_b.matrix.scaled(
            GaussianRational(tb)
        )
        re_tr = prod.trace().re
        assert re_tr != 0
        assert v3(re_tr) <= -4
