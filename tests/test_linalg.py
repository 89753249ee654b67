"""Exact vectors, frames, Gram-Schmidt, projectors, PSD decisions and
squared distances."""

import itertools
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from kscolor.errors import DegenerateInputError, InvalidInputError
from kscolor.fields import GaussianRational, QuadComplex, QuadRational, rationalize
from kscolor.linalg import (
    Frame,
    GMatrix,
    GVector,
    QuadHermitian,
    _cleared,
    _psd_cleared,
    frob_dist2,
    gram_schmidt,
    inner_product,
    norm2,
    projector_of,
    psd_check,
    ray_dist2,
    same_ray,
)
from kscolor.coloring import ProjectionRep
from kscolor.density import _gaussian_point, _true_point, false_ray_near
from kscolor.povm import (
    PovmElement,
    _dyadic,
    _float_psd_within,
    classify_with_witness,
    make_suitable_near,
)

small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=12)
seeds = st.integers(min_value=0, max_value=2**63 - 1)


def gvec(*reals):
    return GVector.from_reals([Fraction(x) for x in reals])


def herm_from_reals(rows):
    return QuadHermitian(
        [[QuadComplex(QuadRational(Fraction(x))) for x in row] for row in rows]
    )


# Test-only references: the Fraction-backed pivoted LDL* elimination and the
# float-target rationalization that psd_check and _float_psd_within replaced.


def reference_psd(a: QuadHermitian) -> bool:
    n = a.n
    work = [[a.entry(i, j) for j in range(n)] for i in range(n)]
    active = list(range(n))
    while active:
        pivot = None
        for i in active:
            s = work[i][i].re.sign()
            if s < 0:
                return False
            if s > 0 and pivot is None:
                pivot = i
        if pivot is None:
            # Zero diagonal block is PSD only if it is the zero block.
            return all(
                work[i][j].is_zero() for i in active for j in active
            )
        inv_p = work[pivot][pivot].re.inverse()
        rest = [i for i in active if i != pivot]
        col = {i: work[i][pivot] for i in rest}
        row = {j: work[pivot][j] for j in rest}
        scale = QuadComplex(inv_p)
        for i in rest:
            ci = col[i] * scale
            wi = work[i]
            for j in rest:
                wi[j] = wi[j] - ci * row[j]
        active = rest
    return True


def _rationalize_hermitian(rows: list[list[complex]], max_den: int) -> QuadHermitian:
    """Symmetrize and rationalize a float matrix into a QuadHermitian with
    all sqrt2-components zero."""
    n = len(rows)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            # Halve before adding, so finite entries near the float limit
            # do not overflow; halving is exact for normal floats.
            z = rows[i][j] / 2 + rows[j][i].conjugate() / 2
            re = rationalize(z.real, max_den)
            im = Fraction(0) if i == j else rationalize(z.imag, max_den)
            out[i][j] = QuadComplex(QuadRational(re), QuadRational(im))
            if i != j:
                out[j][i] = QuadComplex(QuadRational(re), QuadRational(-im))
    return QuadHermitian(out)


def reference_float_psd_within(rows: list[list[complex]], tol: float) -> bool:
    n = len(rows)
    scale = max(1.0, max(abs(e) for r in rows for e in r))
    shift = Fraction(rationalize(tol * scale * 2, 10 ** 12))
    quad = _rationalize_hermitian(rows, 10 ** 12)
    shifted = quad + QuadHermitian.identity(n).scaled(QuadRational(shift))
    return reference_psd(shifted)


# Test-only references for the vector kernel: the GaussianRational
# Gram-Schmidt loop that gram_schmidt replaced, the Fraction formulas of
# ray_dist2 and same_ray, and the GaussianRational loops of inner_product and
# norm2.


def reference_gram_schmidt(vectors: list[GVector]) -> list[GVector]:
    done: list[list[GaussianRational]] = []
    norms: list[Fraction] = []
    for v in vectors:
        w = list(v)
        for u, n2 in zip(done, norms):
            ip = GaussianRational(0)
            for a, b in zip(u, w):
                ip = ip + a.conjugate() * b
            if not ip.is_zero():
                coef = GaussianRational(ip.re / n2, ip.im / n2)
                w = [wb - coef * ua for wb, ua in zip(w, u)]
        if all(e.is_zero() for e in w):
            raise DegenerateInputError("input vectors are linearly dependent")
        done.append(w)
        norms.append(sum((e.abs2() for e in w), Fraction(0)))
    return [GVector(w) for w in done]


def reference_content_gram_schmidt(vectors: list[GVector]) -> list[tuple]:
    """The cleared-integer Gram-Schmidt that the exact division replaced:
    each update is divided by its content gcd(d, w).  Returns the legs'
    cleared forms, stopping before the first dependent input."""
    done, legs = [], []
    for v in vectors:
        w, d = v.cleared
        for u, iu, n2 in done:
            re = sum(a * c for a, c in zip(u, w))
            im = sum(b * c for b, c in zip(iu, w))
            if re or im:
                w = [n2 * c - re * a - im * b for c, a, b in zip(w, u, iu)]
                d *= n2
                g = math.gcd(d, *w)
                w = [c // g for c in w]
                d //= g
        if not any(w):
            break
        legs.append(GVector._of(w, d).cleared)
        g = math.gcd(*w)
        u = [c // g for c in w]
        iu = [c for k in range(0, len(u), 2) for c in (-u[k + 1], u[k])]
        done.append((u, iu, sum(c * c for c in u)))
    return legs


def reference_ray_dist2(u: GVector, v: GVector) -> Fraction:
    return 2 * (1 - Fraction(inner_product(u, v).abs2(), norm2(u) * norm2(v)))


def reference_inner_product(u: GVector, v: GVector) -> GaussianRational:
    acc = GaussianRational(0)
    for a, b in zip(u, v):
        acc = acc + a.conjugate() * b
    return acc


def reference_norm2(v: GVector) -> Fraction:
    acc = Fraction(0)
    for a in v:
        acc += a.abs2()
    return acc


def reference_same_ray(u: GVector, v: GVector) -> bool:
    n = len(u)
    return all(
        u[i] * v[j] == u[j] * v[i] for i in range(n) for j in range(i + 1, n)
    )


_PRIMES = (1000003, 998244353, 2**61 - 1)


def rand_gaussian(rng, zero_share=0.25):
    """A Gaussian rational whose parts have denominator 1, 3^k or a large
    prime (times a small cofactor), each part zero a quarter of the time."""
    def part():
        if rng.random() < zero_share:
            return Fraction(0)
        den = rng.choice((1, 3 ** rng.randint(1, 8), rng.choice(_PRIMES)))
        return Fraction(rng.randint(-10**6, 10**6) or 1, den * rng.randint(1, 4))
    return GaussianRational(part(), part())


def rand_gvector(rng, n):
    while True:
        entries = [rand_gaussian(rng) for _ in range(n)]
        if any(not e.is_zero() for e in entries):
            return GVector(entries)


def rand_scalar(rng):
    while True:
        s = rand_gaussian(rng, zero_share=0.4)
        if not s.is_zero():
            return s


def rand_quad(rng):
    """A Q(sqrt2) scalar with mixed denominators, zero a third of the time."""
    kind = rng.randrange(3)
    if kind == 0:
        return QuadRational(0)
    a = Fraction(rng.randint(-36, 36), rng.randint(1, 9))
    b = Fraction(rng.randint(-36, 36), rng.randint(1, 9)) if kind == 2 else 0
    return QuadRational(a, b)


def rand_complex(rng):
    return QuadComplex(rand_quad(rng), rand_quad(rng))


def rand_hermitian(rng, n):
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = QuadComplex(rand_quad(rng))
        for j in range(i + 1, n):
            z = rand_complex(rng)
            rows[i][j], rows[j][i] = z, z.conjugate()
    return rows


def rand_columns(rng, n, r):
    return [[rand_complex(rng) for _ in range(n)] for _ in range(r)]


def tiny_sqrt2(k):
    """(3 - 2*sqrt2)^k = (sqrt2 - 1)^(2k): positive, about 6^-k."""
    x = QuadRational(1)
    for _ in range(k):
        x = x * QuadRational(3, -2)
    return x


def rand_small(rng):
    if rng.randrange(2):
        return QuadRational(Fraction(1, rng.randint(1, 10 ** 6)))
    return tiny_sqrt2(rng.randint(1, 12))


def gram(cols, n):
    """B B* for the n-row matrix B whose columns are ``cols``."""
    rows = [[QuadComplex(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for c in cols:
                rows[i][j] = rows[i][j] + c[i] * c[j].conjugate()
    return rows


def lowered(rows, i, amount):
    out = [list(r) for r in rows]
    out[i][i] = out[i][i] - QuadComplex(amount)
    return QuadHermitian(out)


def tiny_sqrt2(k):
    """(3 - 2*sqrt2)^k = (sqrt2 - 1)^(2k): positive, about 6^-k."""
    x = QuadRational(1)
    for _ in range(k):
        x = x * QuadRational(3, -2)
    return x


class TestInnerProduct:
    def test_unit_with_itself(self):
        e1 = gvec(1, 0, 0, 0)
        assert inner_product(e1, e1) == GaussianRational(1)

    def test_orthogonal_basis_vectors(self):
        u = gvec(1, 0, 0, 0)
        v = gvec(0, 0, 1, 0)
        assert inner_product(u, v) == GaussianRational(0)

    def test_real_part_is_real_coordinate_dot(self):
        u = gvec(Fraction(1, 3), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        v = gvec(Fraction(2, 3), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5))
        got = inner_product(u, v)
        assert got.re == Fraction(47, 90)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            inner_product(gvec(1, 0, 0, 0), GVector.from_reals([1, 0, 0, 0, 0, 0]))

    def test_conjugate_symmetry(self):
        u = gvec(1, 2, -3, Fraction(1, 2))
        v = gvec(Fraction(2, 7), -1, 4, 5)
        assert inner_product(u, v) == inner_product(v, u).conjugate()

    @seed(20261023)
    @given(seeds)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, s):
        """The integer inner product and norm against the GaussianRational
        loops they replaced, for n <= 8."""
        rng = random.Random(s)
        n = rng.randint(2, 8)
        u, v = rand_gvector(rng, n), rand_gvector(rng, n)
        for x, y in ((u, v), (v, u), (u, u), (u, v.scaled(rand_scalar(rng)))):
            assert inner_product(x, y) == reference_inner_product(x, y)
        assert norm2(u) == reference_norm2(u)
        assert norm2(v) == reference_norm2(v)


class TestClearedForm:
    """GVector clears its real coordinates once, on construction."""

    @seed(20261024)
    @given(st.lists(
        st.one_of(st.integers(-10**6, 10**6), st.just(0),
                  st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9)),
        min_size=4, max_size=16,
    ).filter(lambda cs: len(cs) % 2 == 0 and any(cs)))
    @settings(max_examples=300, deadline=None)
    def test_slot_is_cleared_real_coordinates(self, coords):
        v = GVector.from_reals(coords)
        x, d = v.cleared
        assert (x, d) == _cleared(v.real_coordinates())
        assert all(isinstance(c, int) for c in x) and d >= 1
        assert [Fraction(c, d) for c in x] == [Fraction(c) for c in coords]

    def test_slot_is_immutable(self):
        v = gvec(1, 0, Fraction(-1, 3), 0)
        assert v.cleared == ((3, 0, -1, 0), 3)
        with pytest.raises(AttributeError):
            v.cleared = ((1, 0, 0, 0), 1)


def one_form_pool(rng, n):
    """Vectors of length n built every way a GVector can be built, with
    equal vectors reached by different paths."""
    pool = [rand_gvector(rng, n)]
    pool.append(GVector(pool[0].entries))
    ints = [rng.choice((0, rng.randint(-30, 30))) for _ in range(2 * n)]
    ints[rng.randrange(2 * n)] = rng.randint(1, 30) * rng.choice((1, -1))
    pool.append(GVector.from_reals(ints))
    pool.append(GVector.from_reals([Fraction(c, 3) * 3 for c in ints]))
    dyadic = [Fraction(c, 2 ** rng.randint(0, 60)) for c in ints]
    pool.append(GVector.from_reals(dyadic))
    pool.append(GVector.from_reals([float(c) for c in dyadic]))
    pool.append(GVector.from_reals(pool[0].real_coordinates()))
    s = rand_scalar(rng)
    pool += [pool[0].scaled(s), pool[0].scaled(s).scaled(1 / s.abs2() * s.conjugate())]
    try:
        pool += list(gram_schmidt([rand_gvector(rng, n) for _ in range(n)]))
    except DegenerateInputError:
        pass
    a = [rng.choice((0, rng.randint(-10**9, 10**9))) for _ in range(2 * n)]
    a[rng.randrange(2 * n)] = 1 + rng.randrange(10**9)
    scale = rng.randint(1, 10**6)
    pool += [_true_point(a, scale), _gaussian_point(a, scale)]
    pool.append(GVector.from_reals(pool[-2].real_coordinates()))
    target = [rng.uniform(-1, 1) for _ in range(2 * n)]
    target[rng.randrange(2 * n)] = 1.0
    res = false_ray_near(target, Fraction(1, rng.choice((10, 100, 10**4))))
    pool += [res.object, *res.witness]
    return pool


class TestOneForm:
    """``cleared`` is the only stored form, canonical whichever way the
    vector was built, so equality and hashing can read it."""

    @seed(20261025)
    @given(seeds)
    @settings(max_examples=150, deadline=None)
    def test_every_path_gives_the_canonical_form(self, s):
        rng = random.Random(s)
        pool = one_form_pool(rng, rng.randint(2, 5))
        for v in pool:
            x, d = v.cleared
            assert isinstance(x, tuple) and d > 0 and math.gcd(d, *x) == 1
        for u in pool:
            for v in pool:
                same = u.real_coordinates() == v.real_coordinates()
                assert (u == v) is same
                if same:
                    assert hash(u) == hash(v)

    def test_indexing_matches_entries(self):
        """``v[k]`` derives only the entries asked for; int, negative and
        slice indices, and the errors of bad ones, behave as on ``entries``."""
        rng = random.Random(20261104)
        for _ in range(200):
            n = rng.randint(2, 6)
            v = rand_gvector(rng, n)
            ent = v.entries
            for k in [*range(-n - 2, n + 2), True, np.int64(n - 1)]:
                if -n <= k < n:
                    assert type(v[k]) is GaussianRational and repr(v[k]) == repr(ent[k])
                else:
                    with pytest.raises(IndexError):
                        v[k]
            bounds = (None, *range(-n - 2, n + 3))
            for _ in range(20):
                sl = slice(rng.choice(bounds), rng.choice(bounds),
                           rng.choice((None, 1, 2, 3, -1, -2)))
                assert type(v[sl]) is tuple and repr(v[sl]) == repr(ent[sl])
        for bad, err in (("0", TypeError), (1.0, TypeError), (slice(None, None, 0), ValueError)):
            with pytest.raises(err):
                ent[bad]
            with pytest.raises(err):
                v[bad]

    def test_only_the_cleared_slot(self):
        v = GVector([GaussianRational(Fraction(1, 2)), GaussianRational(0, 3)])
        assert GVector.__slots__ == ("cleared",)
        assert v.cleared == ((1, 0, 0, 6), 2)
        assert v.entries == (GaussianRational(Fraction(1, 2)), GaussianRational(0, 3))
        assert GVector._of((2, 0, 0, 12), 4) == v
        with pytest.raises(InvalidInputError):
            GVector._of((0, 0, 0, 0), 5)
        with pytest.raises(InvalidInputError):
            GVector._of((1, 2), 1)


# Test-only references for QuadHermitian arithmetic: the entrywise QuadComplex
# code that the integer ``+``, ``-``, ``scaled`` and ``frob_dist2`` replaced.


def reference_add(a: QuadHermitian, b: QuadHermitian) -> list[list[QuadComplex]]:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)]


def reference_sub(a: QuadHermitian, b: QuadHermitian) -> list[list[QuadComplex]]:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)]


def reference_scaled(a: QuadHermitian, s: QuadRational) -> list[list[QuadComplex]]:
    return [[e * QuadComplex(s) for e in row] for row in a.rows]


def reference_frob_dist2(a: QuadHermitian, b: QuadHermitian) -> QuadRational:
    acc = QuadRational(0)
    for ra, rb in zip(a.rows, b.rows):
        for x, y in zip(ra, rb):
            acc = acc + (x - y).abs2()
    return acc


def rand_quad_nonzero(rng):
    """A Q(sqrt2) scalar with a nonzero sqrt2 part most of the time."""
    while True:
        s = QuadRational(Fraction(rng.randint(-36, 36), rng.randint(1, 9)),
                         Fraction(rng.randint(-36, 36), rng.randint(1, 9)))
        if not s.is_zero():
            return s


def rand_float_povm(rng, n, m):
    """m float targets I/m + H_k with Hermitian H_k summing to zero, each
    small enough to keep its target positive definite."""
    hs = [[[0j] * n for _ in range(n)] for _ in range(m)]
    for k in range(m - 1):
        for i in range(n):
            hs[k][i][i] = rng.uniform(-1, 1) / (8 * m * n)
            for j in range(i + 1, n):
                z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / (8 * m * n)
                hs[k][i][j], hs[k][j][i] = z, z.conjugate()
    for i in range(n):
        for j in range(n):
            hs[-1][i][j] = -sum(h[i][j] for h in hs[:-1])
    return [[[h[i][j] + (i == j) / m for j in range(n)] for i in range(n)] for h in hs]


def matrix_pool(rng, n):
    """n by n matrices built every way a QuadHermitian can be built, with
    equal matrices reached by different paths."""
    ints = [[0] * n for _ in range(n)]
    fracs = [[Fraction(0)] * n for _ in range(n)]
    quads = [[QuadRational(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            ints[i][j] = ints[j][i] = rng.randint(-9, 9)
            fracs[i][j] = fracs[j][i] = Fraction(rng.randint(-99, 99), rng.randint(1, 30))
            quads[i][j] = quads[j][i] = rand_quad(rng)
    a = QuadHermitian(rand_hermitian(rng, n))
    b = QuadHermitian(rand_hermitian(rng, n))
    s = rand_quad_nonzero(rng)
    pool = [QuadHermitian(ints), QuadHermitian(fracs), QuadHermitian(quads), a, b,
            QuadHermitian(a.rows), QuadHermitian.identity(n), QuadHermitian.zeros(n),
            QuadHermitian([[int(i == j) for j in range(n)] for i in range(n)]),
            QuadHermitian([[Fraction(0)] * n for _ in range(n)]),
            a + b, a - b, b - a, (a + b) - b, a - a, a + QuadHermitian.zeros(n),
            a.scaled(s), a.scaled(s).scaled(1 / s), a.scaled(0), a.scaled(2),
            a + a, QuadHermitian(fracs).scaled(Fraction(1, 3))]
    m = rng.randint(1, 4)
    dec = make_suitable_near(rand_float_povm(rng, n, m), Fraction(1, rng.choice((10, 10**4))),
                             allow_split=True)
    for e in dec:
        pool.append(e.matrix)
        _, witness = classify_with_witness(e)
        if witness is not None:
            pool += [w.matrix for w in witness]
    return pool


class TestMatrixForm:
    """``cleared`` is the only stored form of a QuadHermitian, canonical
    whichever way the matrix was built, so equality and hashing can read it;
    ``+``, ``-``, ``scaled`` and ``frob_dist2`` on it match the entrywise
    QuadComplex code."""

    @seed(20261027)
    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_every_path_gives_the_canonical_form(self, s):
        rng = random.Random(s)
        n = rng.randint(1, 4)
        pool = matrix_pool(rng, n)
        for m in pool:
            x, d = m.cleared
            assert isinstance(x, tuple) and len(x) == 4 * n * n
            assert all(isinstance(c, int) for c in x) and d > 0 and math.gcd(d, *x) == 1
        rows = [m.rows for m in pool]
        for u, u_rows in zip(pool, rows):
            for v, v_rows in zip(pool, rows):
                same = u_rows == v_rows
                assert (u == v) is same
                if same:
                    assert hash(u) == hash(v)

    @seed(20261028)
    @given(seeds)
    @settings(max_examples=200, deadline=None)
    def test_arithmetic_matches_reference(self, s):
        rng = random.Random(s)
        n = rng.randint(1, 4)
        a, b = QuadHermitian(rand_hermitian(rng, n)), QuadHermitian(rand_hermitian(rng, n))
        s = rng.choice((rand_quad_nonzero(rng), rand_quad(rng)))
        assert [list(r) for r in (a + b).rows] == reference_add(a, b)
        assert [list(r) for r in (a - b).rows] == reference_sub(a, b)
        assert [list(r) for r in a.scaled(s).rows] == reference_scaled(a, s)
        assert frob_dist2(a, b) == reference_frob_dist2(a, b)
        assert (a - b).is_zero() is (a == b)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_identity_and_zeros(self, n):
        one, zero = QuadComplex(1), QuadComplex(0)
        want = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        assert QuadHermitian.identity(n).rows == want
        assert QuadHermitian.zeros(n).rows == tuple((zero,) * n for _ in range(n))
        assert QuadHermitian.zeros(n).is_zero() and not QuadHermitian.identity(n).is_zero()

    def test_only_the_cleared_slot(self):
        m = QuadHermitian([[Fraction(1, 2), QuadComplex(QuadRational(0, 1), 3)],
                           [QuadComplex(QuadRational(0, 1), -3), QuadRational(0, Fraction(1, 4))]])
        assert QuadHermitian.__slots__ == ("cleared",)
        assert m.cleared == ((2, 0, 0, 0, 0, 4, 12, 0, 0, 4, -12, 0, 0, 1, 0, 0), 4)
        assert m.n == 2 and m.entry(1, 1) == QuadComplex(QuadRational(0, Fraction(1, 4)))
        assert QuadHermitian._of([4, 0, 0, 0, 0, 8, 24, 0, 0, 8, -24, 0, 0, 2, 0, 0], 8) == m
        with pytest.raises(AttributeError):
            m.cleared = ((1, 0, 0, 0), 1)

    @pytest.mark.parametrize("x", [
        (1, 0, 1, 0),
        (1, 0, 0, 1),
        (1, 0, 0, 0, 0, 1, 2, 0, 0, 1, 2, 0, 1, 0, 0, 0),
        (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0),
        (1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0),
    ])
    def test_of_rejects_non_hermitian(self, x):
        with pytest.raises(InvalidInputError, match="not Hermitian"):
            QuadHermitian._of(x, 1)

    @pytest.mark.parametrize("x", [(), (1, 0, 0), (1,) * 8, (1,) * 12])
    def test_of_rejects_non_square_lengths(self, x):
        with pytest.raises(InvalidInputError, match="square"):
            QuadHermitian._of(x, 1)

    @pytest.mark.parametrize("rows", [5, "ab", [[None]], [[1.5]], [[1, 2], [2]], []])
    def test_junk_matrices_raise_invalid_input(self, rows):
        with pytest.raises(InvalidInputError):
            QuadHermitian(rows)
        with pytest.raises(InvalidInputError):
            PovmElement(rows)


# Test-only references for GMatrix: the GaussianRational row code that the
# integer ``+``, ``@``, ``scaled``, ``trace``, ``is_hermitian`` and
# ``projector_of`` replaced.  Each takes and returns rows of GaussianRationals.


def reference_gm_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def reference_gm_matmul(a, b):
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


def reference_gm_scaled(a, s):
    s = GaussianRational._coerce(s)
    return [[e * s for e in row] for row in a]


def reference_gm_trace(a):
    acc = GaussianRational(0)
    for i in range(len(a)):
        acc = acc + a[i][i]
    return acc


def reference_gm_is_hermitian(a):
    n = len(a)
    return all(a[i][j] == a[j][i].conjugate() for i in range(n) for j in range(i, n))


def reference_projector_of(v: GVector):
    inv_n2 = GaussianRational(1 / reference_norm2(v))
    ent = v.entries
    return [[(a * b.conjugate()) * inv_n2 for b in ent] for a in ent]


def reference_gm_repr(rows) -> str:
    return f"GMatrix({[list(r) for r in rows]!r})"


def rand_gmatrix_rows(rng, n):
    """Rows of a random n by n Gaussian rational matrix: Hermitian, general,
    a scaled rank-1 projector (n >= 2), or zero."""
    kind = rng.randrange(4)
    if kind == 3:
        return [[GaussianRational(0)] * n for _ in range(n)]
    if kind == 2 and n >= 2:
        return reference_gm_scaled(reference_projector_of(rand_gvector(rng, n)), rand_scalar(rng))
    rows = [[rand_gaussian(rng) for _ in range(n)] for _ in range(n)]
    if kind == 0:
        for i in range(n):
            rows[i][i] = GaussianRational(rows[i][i].re)
            for j in range(i):
                rows[i][j] = rows[j][i].conjugate()
    return rows


def gmatrix_pool(rng, n):
    """n by n matrices built every way a GMatrix can be built, with equal
    matrices reached by different paths."""
    a, b = GMatrix(rand_gmatrix_rows(rng, n)), GMatrix(rand_gmatrix_rows(rng, n))
    ints = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    fracs = [[Fraction(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(n)]
             for _ in range(n)]
    s = rand_scalar(rng)
    v = rand_gvector(rng, n) if n >= 2 else None
    pool = [a, b, GMatrix(a.rows), GMatrix(ints), GMatrix(fracs),
            GMatrix([[GaussianRational(e) for e in row] for row in fracs]),
            GMatrix.identity(n), GMatrix.zeros(n),
            GMatrix([[int(i == j) for j in range(n)] for i in range(n)]),
            GMatrix([[Fraction(0)] * n for _ in range(n)]),
            a + b, b + a, a @ b, b @ a, a @ GMatrix.identity(n), a + GMatrix.zeros(n),
            a.scaled(s), a.scaled(s).scaled(1 / s.abs2() * s.conjugate()), a.scaled(0),
            a.scaled(2), a + a, GMatrix(fracs).scaled(Fraction(1, 3)),
            GMatrix._of(*a.cleared), pickle.loads(pickle.dumps(b))]
    if v is not None:
        rep = ProjectionRep.from_ray(v)
        pool += [projector_of(v), projector_of(v.scaled(s)), rep.matrix, rep.projector(),
                 GMatrix(reference_projector_of(v)), rep.projector() @ rep.projector()]
    return pool


class TestGMatrixForm:
    """``cleared`` is the only stored form of a GMatrix, canonical whichever
    way the matrix was built, so equality and hashing can read it; ``+``,
    ``@``, ``scaled``, ``trace``, ``is_hermitian`` and ``projector_of`` on it
    match the GaussianRational row code."""

    @seed(20261029)
    @given(seeds)
    @settings(max_examples=80, deadline=None)
    def test_every_path_gives_the_canonical_form(self, s):
        rng = random.Random(s)
        n = rng.randint(1, 4)
        pool = gmatrix_pool(rng, n)
        for m in pool:
            x, d = m.cleared
            assert isinstance(x, tuple) and len(x) == 2 * n * n
            assert all(isinstance(c, int) for c in x) and d > 0 and math.gcd(d, *x) == 1
            assert _cleared([q for row in m.rows for e in row for q in (e.re, e.im)]) == (x, d)
        rows = [m.rows for m in pool]
        for u, ru in zip(pool, rows):
            for v, rv in zip(pool, rows):
                assert (u == v) is (ru == rv)
                if ru == rv:
                    assert hash(u) == hash(v)

    @seed(20261030)
    @given(seeds)
    @settings(max_examples=300, deadline=None)
    def test_arithmetic_matches_reference(self, s):
        rng = random.Random(s)
        n = rng.randint(1, 4)
        ra, rb = rand_gmatrix_rows(rng, n), rand_gmatrix_rows(rng, n)
        a, b = GMatrix(ra), GMatrix(rb)
        t = rng.choice((rand_scalar(rng), rand_gaussian(rng), rng.randint(-3, 3)))
        assert repr(a) == reference_gm_repr(ra)
        assert [list(r) for r in a.rows] == ra
        assert a.entry(n - 1, 0) == ra[n - 1][0] and a.entry(-1, -1) == ra[-1][-1]
        assert repr(a + b) == reference_gm_repr(reference_gm_add(ra, rb))
        assert repr(a @ b) == reference_gm_repr(reference_gm_matmul(ra, rb))
        assert repr(a.scaled(t)) == reference_gm_repr(reference_gm_scaled(ra, t))
        assert a.trace() == reference_gm_trace(ra)
        assert repr(a.trace()) == repr(reference_gm_trace(ra))
        assert a.is_hermitian() is reference_gm_is_hermitian(ra)
        assert a.is_zero() is all(e.is_zero() for row in ra for e in row)
        if n >= 2:
            v = rand_gvector(rng, n)
            assert repr(projector_of(v)) == reference_gm_repr(reference_projector_of(v))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_identity_and_zeros(self, n):
        one, zero = GaussianRational(1), GaussianRational(0)
        want = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        assert GMatrix.identity(n).rows == want
        assert GMatrix.zeros(n).rows == tuple((zero,) * n for _ in range(n))
        assert GMatrix.zeros(n).is_zero() and not GMatrix.identity(n).is_zero()
        assert GMatrix.identity(n).cleared[1] == GMatrix.zeros(n).cleared[1] == 1

    def test_only_the_cleared_slot(self):
        m = GMatrix([[Fraction(1, 2), GaussianRational(0, 3)],
                     [GaussianRational(0, -3), Fraction(1, 4)]])
        assert GMatrix.__slots__ == ("cleared",)
        assert m.cleared == ((2, 0, 0, 12, 0, -12, 1, 0), 4)
        assert m.n == 2 and m.entry(1, 1) == GaussianRational(Fraction(1, 4))
        assert GMatrix._of([4, 0, 0, 24, 0, -24, 2, 0], 8) == m
        with pytest.raises(AttributeError):
            m.cleared = ((1, 0), 1)
        with pytest.raises(IndexError):
            m.entry(2, 0)

    @pytest.mark.parametrize("x", [(), (1,), (1, 0, 0), (1,) * 4, (1,) * 6, (1,) * 10])
    def test_of_rejects_non_square_lengths(self, x):
        with pytest.raises(InvalidInputError, match="square"):
            GMatrix._of(x, 1)

    @pytest.mark.parametrize("rows", [[[None]], [[1.5]], [[1, 2], [2]], [], [[]]])
    def test_junk_matrices_raise_invalid_input(self, rows):
        with pytest.raises(InvalidInputError):
            GMatrix(rows)

    def test_mismatched_sizes_do_not_combine(self):
        a, b = GMatrix.identity(2), GMatrix.identity(3)
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a @ b
        with pytest.raises(TypeError):
            a + QuadHermitian.identity(2)
        assert a != QuadHermitian.identity(2)


class TestGramSchmidt:
    def test_standard_basis_fixed(self):
        legs = [gvec(1, 0, 0, 0, 0, 0), gvec(0, 0, 1, 0, 0, 0), gvec(0, 0, 0, 0, 1, 0)]
        out = gram_schmidt(legs)
        assert list(out) == legs

    def test_textbook_two_dimensional_case(self):
        v1 = gvec(1, 0, 1, 0)
        v2 = gvec(0, 0, 1, 0)
        out = gram_schmidt([v1, v2])
        assert out[0] == v1
        assert out[1] == gvec(Fraction(-1, 2), 0, Fraction(1, 2), 0)

    def test_first_leg_passes_through_unchanged(self):
        v1 = gvec(Fraction(1, 3), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        v2 = gvec(1, 1, 0, 2)
        out = gram_schmidt([v1, v2])
        assert out[0] == v1

    def test_dependent_input_rejected(self):
        with pytest.raises(DegenerateInputError):
            gram_schmidt([gvec(1, 0, 1, 0), gvec(2, 0, 2, 0)])

    def test_input_of_another_length_rejected(self):
        # a longer second input used to be cut to the first one's length
        with pytest.raises(InvalidInputError, match="one ambient dimension"):
            gram_schmidt([gvec(1, 0, 0, 0), gvec(1, 0, 1, 0, 1, 0)])

    @given(st.lists(st.lists(small_fracs, min_size=6, max_size=6), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_outputs_exactly_orthogonal(self, rows):
        try:
            legs = [GVector.from_reals(r) for r in rows]
            out = gram_schmidt(legs)
        except (InvalidInputError, DegenerateInputError):
            return
        for i in range(3):
            for j in range(i + 1, 3):
                assert inner_product(out[i], out[j]) == GaussianRational(0)


class TestVectorKernelAgainstReference:
    """gram_schmidt, ray_dist2 and same_ray on cleared integers against the
    GaussianRational references they replaced."""

    @seed(20261020)
    @given(seeds)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, s):
        rng = random.Random(s)
        # dims 6-12 cost the Fraction reference up to 0.4 s each: one in ten
        n = rng.randint(2, 5) if rng.random() < 0.9 else rng.randint(6, 12)
        vectors = [rand_gvector(rng, n) for _ in range(n)]
        case = rng.randrange(3)
        if case == 1:
            # a complex rescaling of an earlier input: one ray twice
            k = rng.randrange(1, n)
            vectors[k] = vectors[rng.randrange(k)].scaled(rand_scalar(rng))
        elif case == 2:
            # a Gaussian-rational combination of the earlier inputs
            k = rng.randrange(1, n)
            combo = [GaussianRational(0)] * n
            for v in vectors[:k]:
                c = rand_scalar(rng)
                combo = [a + c * b for a, b in zip(combo, v)]
            if any(not e.is_zero() for e in combo):
                vectors[k] = GVector(combo)
        try:
            want = reference_gram_schmidt(vectors)
        except DegenerateInputError:
            with pytest.raises(DegenerateInputError):
                gram_schmidt(vectors)
        else:
            got = gram_schmidt(vectors)
            assert list(got) == want
            assert repr(got) == f"Frame({want!r})"

        u = vectors[0]
        others = vectors[1:] + [u.scaled(rand_scalar(rng))]
        bumped = list(u)
        k = rng.randrange(n)
        bumped[k] = bumped[k] + rand_scalar(rng)
        if any(not e.is_zero() for e in bumped):
            others.append(GVector(bumped).scaled(rand_scalar(rng)))
        for v in others:
            assert ray_dist2(u, v) == reference_ray_dist2(u, v)
            assert ray_dist2(v, u) == reference_ray_dist2(v, u)
            assert same_ray(u, v) is reference_same_ray(u, v)
            assert same_ray(v, u) is reference_same_ray(v, u)

    def test_rescaled_ray_is_same_ray_at_distance_zero(self):
        u = gvec(Fraction(1, 3), 0, Fraction(-2, 1000003), Fraction(5, 9), 0, 1)
        v = u.scaled(GaussianRational(Fraction(-7, 27), Fraction(2, 998244353)))
        assert same_ray(u, v) and same_ray(v, u)
        assert ray_dist2(u, v) == 0

    def test_dependent_complex_combination_rejected(self):
        u = gvec(1, 2, 0, Fraction(1, 3), 4, 0)
        v = gvec(0, 0, Fraction(1, 81), 1, 1, -1)
        w = GVector(
            a * GaussianRational(2, -1) + b * GaussianRational(Fraction(1, 7), 3)
            for a, b in zip(u, v)
        )
        with pytest.raises(DegenerateInputError):
            gram_schmidt([u, v, w])


def _vector_of_height(rng, n, bits):
    """A vector whose parts are 0 a quarter of the time, else a random
    numerator of the given bit length over a random denominator of it."""
    def part():
        if rng.random() < 0.25:
            return Fraction(0)
        return Fraction(rng.getrandbits(bits) - 2 ** (bits - 1) or 1, rng.getrandbits(bits) | 1)
    while True:
        reals = [part() for _ in range(2 * n)]
        if any(reals):
            return GVector.from_reals(reals)


def _orthogonal_inputs(rng, n):
    """n exactly orthogonal vectors, each rescaled by a Gaussian rational and
    shuffled: every projection in Gram-Schmidt is zero."""
    legs = [leg.scaled(rand_scalar(rng)) for leg in gram_schmidt([rand_gvector(rng, n) for _ in range(n)])]
    rng.shuffle(legs)
    return legs


class TestGramSchmidtAgainstContentReduction:
    """gram_schmidt by exact division gives every leg the cleared form that
    the content-reduced update gave, and refuses a dependent input at the
    same position, with DegenerateInputError."""

    @staticmethod
    def _legs_built(monkeypatch, vectors):
        """The cleared forms of the legs gram_schmidt builds before it
        returns or raises, and the error it raised, if any."""
        built = []
        of = GVector._of.__func__

        def spy(cls, x, d):
            v = of(cls, x, d)
            built.append(v.cleared)
            return v

        with monkeypatch.context() as m:
            m.setattr(GVector, "_of", classmethod(spy))
            try:
                gram_schmidt(vectors)
            except DegenerateInputError as exc:
                return built, exc
        return built, None

    @pytest.mark.parametrize("kind", ["gaussian", "orthogonal", "mixed", "tall", "short"])
    def test_legs_match_reference(self, kind, monkeypatch):
        rng = random.Random(f"gram-schmidt-{kind}")
        for n in range(2, 9):
            for _ in range(6 if n <= 5 else 2):
                if kind == "gaussian":
                    vectors = [rand_gvector(rng, n) for _ in range(n)]
                elif kind == "orthogonal":
                    vectors = _orthogonal_inputs(rng, n)
                elif kind == "mixed":
                    # some projections zero, some not
                    vectors = _orthogonal_inputs(rng, n)
                    for k in rng.sample(range(n), n // 2):
                        vectors[k] = rand_gvector(rng, n)
                elif kind == "tall":
                    vectors = [_vector_of_height(rng, n, 96) for _ in range(n)]
                else:
                    vectors = [_vector_of_height(rng, n, 2) for _ in range(n)]
                want = reference_content_gram_schmidt(vectors)
                built, exc = self._legs_built(monkeypatch, vectors)
                assert built == want
                assert (exc is None) == (len(want) == n)
                if exc is None:
                    assert [leg.cleared for leg in gram_schmidt(vectors)] == want

    @pytest.mark.parametrize("n", range(2, 9))
    def test_dependent_inputs_refused_at_the_same_position(self, n, monkeypatch):
        rng = random.Random(n)
        v, w = rand_gvector(rng, n), rand_gvector(rng, n)
        s = rand_scalar(rng)
        cases = [[v, v.scaled(2), w], [v, w, GVector([a + b for a, b in zip(v, w)])],
                 [v, w, GVector([a + s * b for a, b in zip(v, w)])]]
        # a combination of the earlier inputs at a random later position
        k = rng.randrange(1, n)
        prefix = [rand_gvector(rng, n) for _ in range(k)]
        combo = [GaussianRational(0)] * n
        for u in prefix:
            c = rand_scalar(rng)
            combo = [a + c * b for a, b in zip(combo, u)]
        if any(not e.is_zero() for e in combo):
            cases.append(prefix + [GVector(combo)])
        for case in cases:
            vectors = (case + [rand_gvector(rng, n) for _ in range(n)])[:n]
            want = reference_content_gram_schmidt(vectors)
            if len(want) == n:  # n = 2 cuts [v, w, v + w] to [v, w]
                continue
            built, exc = self._legs_built(monkeypatch, vectors)
            assert isinstance(exc, DegenerateInputError)
            assert built == want


# An exact frame whose entries are all nonzero, with legs 0 and 2 real and
# unequal denominators on every leg: the rows of the 4x4 Fourier matrix
# scaled by 1/3, 2/5, 7 and (1 + 2i)/1024.
_FOURIER4 = [
    [GaussianRational(1), GaussianRational(1), GaussianRational(1), GaussianRational(1)],
    [GaussianRational(1), GaussianRational(0, 1), GaussianRational(-1), GaussianRational(0, -1)],
    [GaussianRational(1), GaussianRational(-1), GaussianRational(1), GaussianRational(-1)],
    [GaussianRational(1), GaussianRational(0, -1), GaussianRational(-1), GaussianRational(0, 1)],
]
_FOURIER4_SCALES = [
    GaussianRational(Fraction(1, 3)),
    GaussianRational(Fraction(2, 5)),
    GaussianRational(7),
    GaussianRational(Fraction(1, 1024), Fraction(2, 1024)),
]


def fourier4_legs():
    return [
        [e * s for e in row] for row, s in zip(_FOURIER4, _FOURIER4_SCALES)
    ]


class TestFrameCheck:
    def test_accepts_legs_with_unequal_denominators(self):
        legs = [GVector(row) for row in fourier4_legs()]
        assert len({math.lcm(*(q.denominator for q in leg.real_coordinates()))
                    for leg in legs}) == 4
        assert list(Frame(legs)) == legs

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("coord", range(4))
    @pytest.mark.parametrize("leg", range(4))
    def test_rejects_one_nudged_component(self, leg, coord, part):
        rows = fourier4_legs()
        nudge = Fraction(1, 1000)
        rows[leg][coord] = rows[leg][coord] + (
            GaussianRational(nudge) if part == "re" else GaussianRational(0, nudge)
        )
        # every entry is nonzero, so the nudged leg leaves every other leg;
        # the check names the first pair in order
        first = (0, 1) if leg < 2 else (0, leg)
        with pytest.raises(InvalidInputError, match=rf"legs {first[0]} and {first[1]} are not orthogonal"):
            Frame(GVector(row) for row in rows)


class TestFrame:
    def test_rejects_non_orthogonal_legs(self):
        with pytest.raises(InvalidInputError):
            Frame([gvec(1, 0, 0, 0), gvec(1, 0, 1, 0)])

    def test_size_must_match_dimension(self):
        with pytest.raises(InvalidInputError):
            Frame([gvec(1, 0, 0, 0, 0, 0), gvec(0, 0, 1, 0, 0, 0)])

    def test_legs_given_as_entry_lists_are_coerced(self):
        g = GaussianRational
        frame = Frame([[g(1), g(0)], [g(0), g(1)]])
        assert list(frame) == [gvec(1, 0, 0, 0), gvec(0, 0, 1, 0)]
        assert Frame([[1, 0], [0, Fraction(1, 2)]]) == Frame(
            [gvec(1, 0, 0, 0), gvec(0, 0, Fraction(1, 2), 0)]
        )

    @pytest.mark.parametrize("legs", [
        [["a", "b"], ["c", "d"]],
        [[1.5, 0], [0, 1]],
        [1, 2],
        [None, None],
        [[GaussianRational(1)], [GaussianRational(0)]],
    ])
    def test_junk_legs_raise_invalid_input(self, legs):
        with pytest.raises(InvalidInputError):
            Frame(legs)
        with pytest.raises(InvalidInputError):
            gram_schmidt(legs)


class TestProjector:
    def test_standard_vector(self):
        p = projector_of(gvec(1, 0, 0, 0, 0, 0))
        want = GMatrix(
            [
                [GaussianRational(1), GaussianRational(0), GaussianRational(0)],
                [GaussianRational(0), GaussianRational(0), GaussianRational(0)],
                [GaussianRational(0), GaussianRational(0), GaussianRational(0)],
            ]
        )
        assert p == want

    def test_diagonal_vector_gives_halves(self):
        p = projector_of(gvec(1, 0, 1, 0))
        assert all(e == GaussianRational(Fraction(1, 2)) for row in p.rows for e in row)

    def test_idempotent_and_hermitian(self):
        v = gvec(Fraction(1, 3), Fraction(1, 2), Fraction(-2, 5), 1, 2, Fraction(1, 7))
        p = projector_of(v)
        assert p @ p == p
        assert p.is_hermitian()

    def test_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            GVector.from_reals([0, 0, 0, 0])


class TestPsd:
    def test_identity(self):
        assert psd_check(herm_from_reals([[1, 0], [0, 1]]))

    def test_indefinite_diagonal(self):
        assert not psd_check(herm_from_reals([[1, 0], [0, -1]]))

    def test_sqrt2_aware_diagonal(self):
        m = QuadHermitian(
            [
                [QuadComplex(QuadRational(1, Fraction(-1, 2))), QuadComplex(QuadRational(0))],
                [QuadComplex(QuadRational(0)), QuadComplex(QuadRational(1))],
            ]
        )
        assert psd_check(m)
        worse = QuadHermitian(
            [
                [QuadComplex(QuadRational(1, -1)), QuadComplex(QuadRational(0))],
                [QuadComplex(QuadRational(0)), QuadComplex(QuadRational(1))],
            ]
        )
        assert not psd_check(worse)

    def test_zero_pivot_with_nonzero_row_fails(self):
        # [[0, 1], [1, 0]] has eigenvalues +-1
        assert not psd_check(herm_from_reals([[0, 1], [1, 0]]))

    def test_rank_deficient_psd_passes(self):
        assert psd_check(herm_from_reals([[1, 1], [1, 1]]))
        assert psd_check(herm_from_reals([[0, 0], [0, 0]]))

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_float_eigenvalue_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        b = rng.integers(-6, 7, size=(n, n)) + 1j * rng.integers(-6, 7, size=(n, n))
        h = b + b.conj().T
        if rng.integers(0, 2):
            h = (b @ b.conj().T).astype(complex)  # PSD by construction
        m = QuadHermitian(
            [
                [
                    QuadComplex(
                        QuadRational(Fraction(int(h[i, j].real))),
                        QuadRational(Fraction(int(h[i, j].imag))),
                    )
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )
        eig_min = float(np.linalg.eigvalsh(h).min())
        if abs(eig_min) < 1e-6:
            return
        assert psd_check(m) is (eig_min > 0)


def cleared(rows):
    """Integer 4-tuples of the matrix times the lcm of its denominators."""
    parts = [[(e.re.rat, e.re.sqrt2, e.im.rat, e.im.sqrt2) for e in r] for r in rows]
    scale = math.lcm(*(q.denominator for r in parts for t in r for q in t))
    return [[tuple(int(q * scale) for q in t) for t in r] for r in parts]


def determinant(rows):
    n = len(rows)
    acc = QuadComplex(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = QuadComplex(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        acc = acc + term
    return acc


class TestPsdAgainstReference:
    """psd_check against the Fraction LDL* reference on 1x1 to 5x5
    matrices, with exact answers where the construction fixes one."""

    @given(seeds)
    @settings(max_examples=300, deadline=None)
    def test_random_hermitian(self, seed):
        rng = random.Random(seed)
        m = QuadHermitian(rand_hermitian(rng, rng.randint(1, 5)))
        assert psd_check(m) is reference_psd(m)

    @given(seeds)
    @settings(max_examples=150, deadline=None)
    def test_gram_matrices_of_every_rank_are_psd(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        m = QuadHermitian(gram(rand_columns(rng, n, rng.randint(0, n)), n))
        assert psd_check(m) and reference_psd(m)

    @given(seeds)
    @settings(max_examples=150, deadline=None)
    def test_singular_gram_lowered_on_its_kernel_is_not_psd(self, seed):
        # Columns orthogonal to v with v_0 = 1 put v in the kernel, so
        # lowering entry (0, 0) by any amount makes v* M v negative.
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        v = [QuadComplex(1)] + [rand_complex(rng) for _ in range(n - 1)]
        inv_vv = QuadComplex(sum((x.abs2() for x in v), QuadRational(0)).inverse())
        cols = []
        for c in rand_columns(rng, n, rng.randint(0, n - 1)):
            ip = sum((x.conjugate() * y for x, y in zip(v, c)), QuadComplex(0))
            cols.append([y - ip * inv_vv * x for x, y in zip(v, c)])
        m = lowered(gram(cols, n), 0, rand_small(rng))
        assert not psd_check(m) and not reference_psd(m)

    @given(seeds)
    @settings(max_examples=150, deadline=None)
    def test_gram_lowered_by_a_small_amount(self, seed):
        # One column scaled by a small s leaves an eigenvalue of order s^2;
        # lowering by another small amount squared lands on either side.
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        cols = rand_columns(rng, n, n)
        s = QuadComplex(rand_small(rng))
        cols[-1] = [x * s for x in cols[-1]]
        d = rand_small(rng)
        m = lowered(gram(cols, n), rng.randrange(n), d * d)
        assert psd_check(m) is reference_psd(m)

    @given(seeds)
    @settings(max_examples=150, deadline=None)
    def test_zero_diagonal_block(self, seed):
        # Zero the diagonal on the index set S and the S-block off the
        # diagonal except one entry z; sometimes decouple S from the rest.
        # The result is PSD exactly when every row in S vanishes.
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        rows = gram(rand_columns(rng, n, rng.randint(0, n)), n)
        block = rng.sample(range(n), rng.randint(2, n))
        decouple = rng.randrange(2)
        for i in block:
            for j in range(n):
                if j == i or j in block or decouple:
                    rows[i][j] = rows[j][i] = QuadComplex(0)
        z = rand_complex(rng)
        rows[block[0]][block[1]], rows[block[1]][block[0]] = z, z.conjugate()
        m = QuadHermitian(rows)
        expect = all(rows[i][j].is_zero() for i in block for j in range(n))
        assert psd_check(m) is expect
        assert reference_psd(m) is expect

    @given(seeds)
    @settings(max_examples=100, deadline=None)
    def test_last_bareiss_pivot_is_the_determinant(self, seed):
        # For a positive definite matrix every diagonal stays positive, so
        # pivots run in order and the last one is the determinant of the
        # cleared matrix (Sylvester's identity).
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        rows = gram(rand_columns(rng, n, n), n)
        for i in range(n):
            rows[i][i] = rows[i][i] + QuadComplex(1)
        w = cleared(rows)
        det = determinant(
            [[QuadComplex(QuadRational(a, b), QuadRational(c, d)) for a, b, c, d in r] for r in w]
        )
        assert _psd_cleared(w)
        assert w[-1][-1] == (det.re.rat, det.re.sqrt2, 0, 0)


def float_psd_within(rows: list[list[complex]], tol: float) -> bool:
    """_float_psd_within on the ``_dyadic`` integers of one target."""
    (t,), k = _dyadic([rows])
    return _float_psd_within(rows, t, k, tol)


class TestFloatPsdAgainstReference:
    """_float_psd_within against the reference fed by the symmetrized
    QuadHermitian rationalization it replaced."""

    def test_tolerance_boundary(self):
        # The shift is 2e-8 for entries of size <= 1.
        assert float_psd_within([[1 + 0j, 0j], [0j, -1e-9 + 0j]], 1e-8)
        assert not float_psd_within([[1 + 0j, 0j], [0j, -4e-8 + 0j]], 1e-8)

    @given(seeds)
    @settings(max_examples=300, deadline=None)
    def test_tweaked_rank_one_projectors(self, seed):
        # Rank-1 projectors moved by +-1e-9 to 4e-8 at one entry, around
        # the 2e-8 shift, plus non-Hermitian noise below 1e-9.
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        size = rng.uniform(1e-9, 4e-8) * rng.choice((1, -1))
        v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
        nrm = math.sqrt(sum(abs(x) ** 2 for x in v))
        rows = [[a * b.conjugate() / nrm ** 2 for b in v] for a in v]
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i][j] += size
        if i != j:
            rows[j][i] += size
        for r in rows:
            for k in range(n):
                r[k] += complex(rng.uniform(-1e-9, 1e-9), rng.uniform(-1e-9, 1e-9))
        assert float_psd_within(rows, 1e-8) is reference_float_psd_within(rows, 1e-8)


class TestDistances:
    def test_frob_same_is_zero(self):
        a = herm_from_reals([[1, 2], [2, 5]])
        assert frob_dist2(a, a) == QuadRational(0)

    def test_frob_identity_to_zero(self):
        assert frob_dist2(
            QuadHermitian.identity(3), QuadHermitian.zeros(3)
        ) == QuadRational(3)

    def test_frob_swapped_diagonal(self):
        a = herm_from_reals([[1, 0], [0, 0]])
        b = herm_from_reals([[0, 0], [0, 1]])
        assert frob_dist2(a, b) == QuadRational(2)

    def test_frob_gmatrix_variant(self):
        # frob_dist2 takes only QuadHermitian; a GMatrix is rejected.
        with pytest.raises(InvalidInputError, match="two QuadHermitian"):
            frob_dist2(GMatrix.identity(2), GMatrix.zeros(2))
        with pytest.raises(InvalidInputError, match="two QuadHermitian"):
            frob_dist2(GMatrix.identity(2), QuadHermitian.zeros(2))

    def test_ray_dist_is_scale_and_phase_invariant(self):
        u = gvec(Fraction(1, 3), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        v = gvec(1, 2, -1, Fraction(1, 5))
        base = ray_dist2(u, v)
        assert ray_dist2(u.scaled(GaussianRational(-3)), v) == base
        assert ray_dist2(u.scaled(GaussianRational(0, 2)), v) == base

    def test_ray_dist_zero_iff_same_ray(self):
        u = gvec(1, 0, 2, 0)
        v = gvec(2, 0, 4, 0)
        w = gvec(1, 0, -2, 0)
        assert ray_dist2(u, v) == 0
        assert same_ray(u, v)
        assert ray_dist2(u, w) != 0
        assert not same_ray(u, w)

    def test_orthogonal_rays_are_maximally_far(self):
        u = gvec(1, 0, 0, 0)
        v = gvec(0, 0, 1, 0)
        assert ray_dist2(u, v) == 2


class TestNorm2:
    def test_matches_inner_product(self):
        v = gvec(Fraction(1, 3), 1, 2, Fraction(-1, 2))
        assert norm2(v) == inner_product(v, v).re
