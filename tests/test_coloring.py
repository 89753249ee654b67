"""Truth predicates: ray trueness, frame suitability, the non-orthogonality
certificate for TRUE pairs, and matrix-level trueness with witness shifts."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from kscolor.cli import _interleave, _rng_orthonormal
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
from kscolor.density import suitable_frame_near
from kscolor.errors import InvalidInputError, NotApplicableError
from kscolor.fields import GaussianRational, v3
from kscolor.linalg import Frame, GMatrix, GVector, gram_schmidt, inner_product, projector_of
from kscolor.serialize import gaussian_to_obj, projection_rep_to_obj

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
                rows = m.rows
                ok = True
                for i in range(m.n):
                    for j in range(m.n):
                        re, im = rows[i][j].re, rows[i][j].im
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

    def test_rank_obstruction(self):
        """No exact rank-r projector is TRUE when r is not 1 mod 3, under any
        positive rescaling (the proof is in classify_projection_matrix).
        Projectors are sums of leg projectors of Gram-Schmidt frames and of
        suitable frames, n = 2..5; some of rank 1 mod 3 are TRUE."""
        rng = random.Random(20261020)
        verdicts = {False: 0, True: 0}
        for trial in range(40):
            n = rng.randint(2, 5)
            if trial % 2:
                frame = gram_schmidt([rand_ray3(rng, n) for _ in range(n)])
            else:
                targets = [_interleave(v) for v in _rng_orthonormal(rng, n)]
                frame = suitable_frame_near(targets, Fraction(1, 10 ** rng.randint(2, 6))).object
            legs = [projector_of(leg) for leg in frame]
            for mask in range(1, 2**n):
                members = [p for k, p in enumerate(legs) if mask >> k & 1]
                p = sum(members[1:], members[0])
                for scale in (1, *(abs(rand_three_adic(rng, rng.randint(-3, 3))) for _ in range(3))):
                    rep = ProjectionRep(p.scaled(scale))
                    assert rep.rank == len(members)
                    if classify_projection_matrix(rep) is TruthValue.TRUE:
                        assert rep.rank % 3 == 1
                        verdicts[True] += 1
                    elif rep.rank % 3 == 1:
                        verdicts[False] += 1
        assert verdicts[True] and verdicts[False]


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


# Test-only references: the GaussianRational code of ProjectionRep,
# classify_projection_matrix (with _component_valuations), witness_shift and
# classify_decomposition that the integer versions replaced.  A reference
# representative is (rows, c, rank) with rows of GaussianRationals.


def ref_matmul(a, b):
    cols = list(zip(*b))
    out = []
    for row in a:
        line = []
        for col in cols:
            acc = GaussianRational(0)
            for x, y in zip(row, col):
                acc = acc + x * y
            line.append(acc)
        out.append(line)
    return out


def ref_scaled(a, c):
    return [[e * GaussianRational(c) for e in row] for row in a]


def reference_projection_rep(rows):
    n = len(rows)
    if all(e.is_zero() for row in rows for e in row):
        raise InvalidInputError("the zero matrix does not represent a projection")
    if any(rows[i][j] != rows[j][i].conjugate() for i in range(n) for j in range(i, n)):
        raise InvalidInputError("projection representative must be Hermitian")
    msq = ref_matmul(rows, rows)
    i, j = next((i, j) for i in range(n) for j in range(n) if not rows[i][j].is_zero())
    ratio = msq[i][j] * rows[i][j].inverse()
    if ratio.im != 0 or ratio.re <= 0:
        raise InvalidInputError("matrix does not satisfy M^2 = c*M with c > 0")
    c = ratio.re
    if msq != ref_scaled(rows, c):
        raise InvalidInputError("matrix does not satisfy M^2 = c*M")
    tr = GaussianRational(0)
    for k in range(n):
        tr = tr + rows[k][k]
    rank = tr.re / c
    if tr.im != 0 or rank.denominator != 1 or rank <= 0:
        raise InvalidInputError("trace/c must be a positive integer")
    return rows, c, int(rank)


def reference_component_valuations(rows):
    vals = []
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            if e.re == 0:
                return None
            if not (i == 0 and j == 0):
                vals.append(v3(e.re))
            if i != j:
                if e.im == 0:
                    return None
                vals.append(v3(e.im))
    return vals


def reference_classify(ref) -> TruthValue:
    rows = ref[0]
    a11 = rows[0][0].re
    if a11 == 0:
        return TruthValue.UNDETERMINED
    others = reference_component_valuations(rows)
    if others is None:
        return TruthValue.UNDETERMINED
    if v3(a11) <= min(others, default=v3(a11) + 1) - 1:
        return TruthValue.TRUE
    return TruthValue.UNDETERMINED


def reference_witness_shift(ref) -> Fraction:
    if reference_classify(ref) is not TruthValue.TRUE:
        raise InvalidInputError("witness shift is defined for TRUE representatives")
    return Fraction(3) ** (-2 - int(v3(ref[0][0][0].re)))


def reference_classify_decomposition(refs) -> list[TruthValue]:
    if not refs:
        raise InvalidInputError("empty decomposition")
    n = len(refs[0][0])
    if any(len(r[0]) != n for r in refs):
        raise InvalidInputError("decomposition members must share one dimension")
    zero = [[GaussianRational(0)] * n for _ in range(n)]
    for i in range(len(refs)):
        for j in range(len(refs)):
            if i != j and ref_matmul(refs[i][0], refs[j][0]) != zero:
                raise InvalidInputError(f"members {i} and {j} are not orthogonal")
    total = zero
    for rows, c, _ in refs:
        p = ref_scaled(rows, 1 / c)
        total = [[x + y for x, y in zip(rt, rp)] for rt, rp in zip(total, p)]
    if total != [[GaussianRational(int(i == j)) for j in range(n)] for i in range(n)]:
        raise InvalidInputError("projectors do not sum to the identity")
    base = [reference_classify(r) for r in refs]
    if TruthValue.TRUE not in base:
        return [TruthValue.UNDETERMINED] * len(refs)
    return [TruthValue.TRUE if b is TruthValue.TRUE else TruthValue.FALSE for b in base]


def outcome(f, *args):
    """f(*args), or the type and message of the InvalidInputError it raises."""
    try:
        return f(*args)
    except InvalidInputError as exc:
        return type(exc), str(exc)


def rand_gauss3(rng, zero_share=0.1):
    """A Gaussian rational whose parts carry powers of 3 in numerator or
    denominator, each part zero now and then."""
    def part():
        if rng.random() < zero_share:
            return Fraction(0)
        return rand_three_adic(rng, rng.randint(-3, 3))
    return GaussianRational(part(), part())


def rand_ray3(rng, n):
    while True:
        entries = [rand_gauss3(rng) for _ in range(n)]
        if any(not e.is_zero() for e in entries):
            return GVector(entries)


def outer_rows(vec, scale):
    """scale * vec vec* as rows of GaussianRationals."""
    ent = vec.entries
    return [[(a * b.conjugate()) * scale for b in ent] for a in ent]


def rand_candidate_rows(rng, n):
    """Rows that are a scaled rank-1 or rank-2 projection, a non-projection
    Hermitian matrix, a non-Hermitian matrix or zero."""
    if n == 1:
        return [[rng.choice((GaussianRational(rand_three_adic(rng, rng.randint(-2, 2))),
                             rand_gauss3(rng, 0.3)))]]
    kind = rng.randrange(8)
    v = rand_ray3(rng, n)
    scale = rng.choice((GaussianRational(rand_three_adic(rng, rng.randint(-2, 2))),
                        rand_gauss3(rng, 0), GaussianRational(1)))
    if kind <= 1:
        return outer_rows(v, scale)
    if kind == 2:
        frame = gram_schmidt([v] + [rand_ray3(rng, n) for _ in range(n - 1)])
        pa, pb = (outer_rows(leg, GaussianRational(1 / reference_norm2(leg)))
                  for leg in frame[:2])
        return [[(x + y) * scale for x, y in zip(ra, rb)] for ra, rb in zip(pa, pb)]
    if kind == 3:
        s = GaussianRational(reference_norm2(v))
        return [[(s if i == j else GaussianRational(0)) - e for j, e in enumerate(row)]
                for i, row in enumerate(outer_rows(v, 1))]
    if kind == 4:
        rows = outer_rows(v, 1)
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i][j] = rows[i][j] + GaussianRational(rand_three_adic(rng, 0))
        if i != j:
            rows[j][i] = rows[i][j].conjugate()
        return rows
    rows = [[rand_gauss3(rng, 0.3) for _ in range(n)] for _ in range(n)]
    if kind == 5:  # Hermitian, often with a zero (1,1) entry
        for i in range(n):
            rows[i][i] = GaussianRational(rows[i][i].re)
            for j in range(i):
                rows[i][j] = rows[j][i].conjugate()
    if kind == 7:
        return [[GaussianRational(0)] * n for _ in range(n)]
    return rows


def reference_norm2(v):
    acc = Fraction(0)
    for e in v.entries:
        acc += e.abs2()
    return acc


class TestProjectionAgainstReference:
    """ProjectionRep, classify_projection_matrix, witness_shift and
    classify_decomposition on the cleared integers against the
    GaussianRational code they replaced: results, reprs, serialized objects
    and error messages."""

    @seed(20261031)
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=400, deadline=None)
    def test_single_matrices(self, s):
        rng = random.Random(s)
        rows = rand_candidate_rows(rng, rng.randint(1, 4) if rng.random() < 0.2 else 3)
        got = outcome(ProjectionRep, GMatrix(rows))
        want = outcome(reference_projection_rep, rows)
        if isinstance(want, tuple) and len(want) == 2:
            assert got == want
            return
        ref_rows, c, rank = want
        assert (got.idem_scale, got.rank) == (c, rank)
        assert repr(got) == f"ProjectionRep(GMatrix({[list(r) for r in ref_rows]!r}))"
        assert projection_rep_to_obj(got) == {
            "kind": "projection",
            "matrix": [[gaussian_to_obj(e) for e in r] for r in ref_rows],
        }
        assert repr(got.projector()) == f"GMatrix({ref_scaled(ref_rows, 1 / c)!r})"
        assert classify_projection_matrix(got) is reference_classify(want)
        assert outcome(witness_shift, got) == outcome(reference_witness_shift, want)

    @seed(20261101)
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=150, deadline=None)
    def test_from_ray(self, s):
        rng = random.Random(s)
        v = rand_ray3(rng, rng.randint(2, 5))
        rep = ProjectionRep.from_ray(v)
        ref = reference_projection_rep(outer_rows(v, GaussianRational(1 / reference_norm2(v))))
        assert repr(rep) == f"ProjectionRep(GMatrix({[list(r) for r in ref[0]]!r}))"
        assert (rep.idem_scale, rep.rank) == (1, 1)
        assert classify_projection_matrix(rep) is reference_classify(ref)
        assert outcome(witness_shift, rep) == outcome(reference_witness_shift, ref)

    @seed(20261102)
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=150, deadline=None)
    def test_decompositions(self, s):
        rng = random.Random(s)
        n = rng.randint(2, 4)
        frame = gram_schmidt([rand_ray3(rng, n) for _ in range(n)])
        rows = [outer_rows(leg, GaussianRational(1 / reference_norm2(leg))) for leg in frame]
        kind = rng.randrange(5)
        if kind == 1:  # two legs merged into one rank-2 member
            rows[0:2] = [[[x + y for x, y in zip(ra, rb)] for ra, rb in zip(*rows[0:2])]]
        # each member scaled by 1 or by some |x|, and now and then negated
        rows = [ref_scaled(r, rng.choice((1, abs(x))) * (-1 if rng.random() < 0.03 else 1))
                for r, x in ((r, rand_three_adic(rng, rng.randint(-2, 2))) for r in rows)]
        if kind == 2:  # a member missing
            del rows[rng.randrange(n)]
        elif kind == 3:  # a member repeated
            rows.append(rows[rng.randrange(len(rows))])
        elif kind == 4:  # a member of another dimension
            rows.append(outer_rows(rand_ray3(rng, n + 1), 1))
        rng.shuffle(rows)
        members, refs = [], []
        for r in rows:
            ref = outcome(reference_projection_rep, r)
            got = outcome(ProjectionRep, GMatrix(r))
            if isinstance(ref, tuple) and len(ref) == 2:
                assert got == ref
                return
            members.append(got)
            refs.append(ref)
        assert outcome(classify_decomposition, members) == \
            outcome(reference_classify_decomposition, refs)
        assert outcome(classify_decomposition, []) == \
            outcome(reference_classify_decomposition, [])

    def test_cases_cover_every_outcome(self):
        """The single-matrix draws reach every reachable error, ranks 1 and 2
        and both verdicts.  trace/c is always a positive integer once
        M^2 = c*M holds for a Hermitian M, so that error is never drawn."""
        rng = random.Random(20261031)
        seen = set()
        for _ in range(400):
            rows = rand_candidate_rows(rng, 3)
            want = outcome(reference_projection_rep, rows)
            if len(want) == 2:
                seen.add(want[1])
            else:
                seen.add((want[2], reference_classify(want)))
        assert {(1, TruthValue.TRUE), (1, TruthValue.UNDETERMINED), (2, TruthValue.UNDETERMINED),
                "the zero matrix does not represent a projection",
                "projection representative must be Hermitian",
                "matrix does not satisfy M^2 = c*M with c > 0",
                "matrix does not satisfy M^2 = c*M"} <= seen


class TestProjectionPathGuard:
    """The projection path runs on integers: with GaussianRational arithmetic
    patched to raise, it still runs on a seeded Gram-Schmidt frame."""

    def test_no_gaussian_arithmetic(self, monkeypatch):
        rng = random.Random(20261103)
        while True:
            frame = gram_schmidt([rand_ray3(rng, 3) for _ in range(3)])
            if classify_projection_matrix(ProjectionRep.from_ray(frame[0])) is TruthValue.TRUE:
                break
        rows = [outer_rows(leg, 1) for leg in frame]
        want = [reference_projection_rep(r) for r in rows]
        want_shift = reference_witness_shift(want[0])
        want_colors = reference_classify_decomposition(want)

        def forbidden(*args):
            raise AssertionError("GaussianRational arithmetic on the projection path")

        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__neg__", "__truediv__", "inverse", "abs2", "conjugate"):
            monkeypatch.setattr(GaussianRational, name, forbidden)
        reps = [ProjectionRep(GMatrix(r)) for r in rows]
        rays = [ProjectionRep.from_ray(leg) for leg in frame]
        assert [(r.idem_scale, r.rank) for r in reps] == [(c, k) for _, c, k in want]
        assert [classify_projection_matrix(r) for r in rays] == \
            [TruthValue.TRUE, TruthValue.UNDETERMINED, TruthValue.UNDETERMINED]
        assert witness_shift(reps[0]) == want_shift
        assert classify_decomposition(reps) == classify_decomposition(rays) == want_colors
        assert want_colors == [TruthValue.TRUE, TruthValue.FALSE, TruthValue.FALSE]
