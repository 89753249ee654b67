"""Exact scalar arithmetic: valuations, rationalization, denominator repair,
and the Q(sqrt2) / Gaussian-rational field types."""

import math
import random
import time
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kscolor.density import false_ray_near, nearest_true_ray, suitable_frame_near
from kscolor.errors import InvalidInputError
from kscolor.fields import (
    INF,
    GaussianRational,
    QuadComplex,
    QuadRational,
    _coerce_eps,
    adjust_denominator,
    rationalize,
    v3,
)
from kscolor.kscheck import load_builtin, perturb_to_suitable
from kscolor.povm import make_suitable_near

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=10**4
).filter(lambda x: x != 0)


class TestV3:
    def test_examples(self):
        assert v3(Fraction(4, 9)) == -2
        assert v3(Fraction(6, 5)) == 1
        assert v3(Fraction(1, 2)) == 0

    def test_zero_is_infinite(self):
        assert v3(Fraction(0)) == INF
        assert v3(0) == INF

    def test_signs_do_not_matter(self):
        assert v3(Fraction(-1, 3)) == -1
        assert v3(Fraction(-27)) == 3

    def test_threshold_readings(self):
        # denominator divisible by 3 <=> v3 <= -1; by 9 <=> v3 <= -2
        assert v3(Fraction(1, 3)) <= -1
        assert v3(Fraction(1, 9)) <= -2
        assert v3(Fraction(1, 18)) <= -2
        assert v3(Fraction(2, 6)) == -1

    @given(rationals, rationals)
    def test_additive_on_products(self, x, y):
        assert v3(x * y) == v3(x) + v3(y)

    @given(rationals, rationals)
    def test_ultrametric_on_sums(self, x, y):
        if x + y == 0:
            return
        lo = min(v3(x), v3(y))
        assert v3(x + y) >= lo
        if v3(x) != v3(y):
            assert v3(x + y) == lo


class TestRationalize:
    def test_examples(self):
        assert rationalize(0.333333333, 100) == Fraction(1, 3)
        assert rationalize(0.5, 10) == Fraction(1, 2)
        assert rationalize(1.41421356, 1000) == Fraction(1393, 985)

    def test_integer_and_negative(self):
        assert rationalize(4.0, 10) == 4
        assert rationalize(-0.25, 100) == Fraction(-1, 4)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            rationalize(float("inf"), 10)
        with pytest.raises(InvalidInputError):
            rationalize(float("nan"), 10)

    def test_rejects_bad_cap(self):
        with pytest.raises(InvalidInputError):
            rationalize(0.5, 0)

    @given(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.integers(min_value=1, max_value=500),
    )
    def test_bound_holds(self, x, max_den):
        r = rationalize(x, max_den)
        assert 1 <= r.denominator <= max_den
        assert abs(Fraction(x) - r) * r.denominator * max_den <= 1

    def test_bound_verified_exhaustively_small(self):
        # independent check against every denominator <= max_den
        for x in (0.123, 0.718, 2.5001, -0.333, 0.999):
            for max_den in (1, 7, 50, 500):
                r = rationalize(x, max_den)
                fx = Fraction(x)
                assert abs(fx - r) * r.denominator * max_den <= 1
                # no fraction with a smaller denominator is closer AND
                # admissible unless rationalize's own bound already failed
                best = min(
                    (
                        Fraction(round(x * q), q)
                        for q in range(1, max_den + 1)
                    ),
                    key=lambda c: (abs(fx - c), c.denominator),
                )
                assert abs(fx - r) <= abs(fx - best) or (
                    abs(fx - r) * r.denominator * max_den <= 1
                )


def _adjust_by_retry(r: Fraction, want_div3: bool, eps: Fraction) -> tuple[Fraction, int]:
    """``adjust_denominator`` as a retry loop, and its number of passes (0
    when r is returned unchanged): from the smallest N the bounds allow, N
    grows until the candidate's reduced denominator and distance qualify."""
    if (r.denominator % 3 == 0) == want_div3:
        return r, 0
    p, q = r.numerator, r.denominator
    inv_eps = math.ceil(1 / eps)
    if want_div3:
        n = max(1, math.ceil(Fraction(inv_eps, 3 * q)))
        candidate = lambda n: Fraction(3 * n * p + 1, 3 * n * q)
    else:
        n = max(1, math.ceil(Fraction(inv_eps - 1, q)),
                math.ceil((Fraction(abs(p), q) / eps - 1) / q))
        candidate = lambda n: Fraction(n * p, n * q + 1)
    passes = 1
    while (candidate(n).denominator % 3 == 0) != want_div3 or abs(candidate(n) - r) > eps:
        n += 1
        passes += 1
    return candidate(n), passes


class TestAdjustDenominator:
    def test_make_denominator_divisible_by_3(self):
        out = adjust_denominator(Fraction(1), True, Fraction(1, 2))
        assert out == Fraction(4, 3)
        assert out.denominator % 3 == 0
        assert abs(out - 1) <= Fraction(1, 2)

    def test_make_denominator_not_divisible_by_3(self):
        out = adjust_denominator(Fraction(1, 3), False, Fraction(1, 10))
        assert out == Fraction(3, 10)
        assert out.denominator % 3 != 0
        assert abs(out - Fraction(1, 3)) <= Fraction(1, 10)

    def test_already_satisfying_value_unchanged(self):
        assert adjust_denominator(Fraction(2, 7), False, Fraction(1, 10)) == Fraction(2, 7)

    def test_rejects_zero(self):
        with pytest.raises(InvalidInputError):
            adjust_denominator(Fraction(0), True, Fraction(1, 2))

    @given(
        rationals,
        st.booleans(),
        st.fractions(min_value="1/100000", max_value=1, max_denominator=10**6),
    )
    def test_contract(self, r, want_div3, eps):
        out = adjust_denominator(r, want_div3, eps)
        assert out != 0
        assert abs(out - r) <= eps
        if want_div3:
            assert out.denominator % 3 == 0
        else:
            assert out.denominator % 3 != 0

    def test_tiny_epsilon(self):
        r = Fraction(22, 7)
        eps = Fraction(1, 10**9)
        for want in (True, False):
            out = adjust_denominator(r, want, eps)
            assert abs(out - r) <= eps
            assert (out.denominator % 3 == 0) is want

    def test_matches_the_retry_loop(self):
        """The closed form equals the loop that starts at the same N and
        increments it until the candidate qualifies, on 2,400 seeded
        inputs: denominators carrying 3^0 to 3^3, |p| up to 10^12 of both
        signs, eps from 10^-15 to 5, both targets.  The loop never takes a
        second pass."""
        rng = random.Random(28)
        passes = set()
        for case in range(2400):
            k = case % 4
            # p and m prime to 3, so the reduced denominator keeps 3^k
            p, m = rng.choice((-1, 1)) * rng.randint(1, 10**12), rng.randint(1, 10**6)
            r = Fraction(p + (p % 3 == 0), 3**k * (m + (m % 3 == 0)))
            assert v3(r) == -k
            eps = Fraction(rng.randint(1, 5000), 1000 * 10 ** rng.randint(0, 12))
            for want in (True, False):
                ref, n_passes = _adjust_by_retry(r, want, eps)
                assert adjust_denominator(r, want, eps) == ref, (r, want, eps)
                passes.add(n_passes)
        assert passes == {0, 1}


# Every public construction that takes an epsilon, called with valid other
# arguments (a float POVM that is not exactly suitable, so make_suitable_near
# reaches its epsilon).
_EPS_TAKERS = {
    "nearest_true_ray": lambda e: nearest_true_ray([1.0, 0, 0, 0], e),
    "false_ray_near": lambda e: false_ray_near([1.0, 0, 0, 0], e),
    "suitable_frame_near": lambda e: suitable_frame_near(
        [[1.0, 0, 0, 0], [0, 0, 1.0, 0]], e),
    "make_suitable_near": lambda e: make_suitable_near(
        [[[0.6, 0.1], [0.1, 0.4]], [[0.4, -0.1], [-0.1, 0.6]]], e),
    "perturb_to_suitable": lambda e: perturb_to_suitable(load_builtin("peres33"), e),
}


class TestEpsilonValidation:
    """A non-finite, non-numeric or non-positive epsilon is InvalidInputError
    everywhere, never a bare ValueError, OverflowError or TypeError."""

    @pytest.mark.parametrize(
        "eps", [math.nan, math.inf, -math.inf, "abc", None, 0, -0.0],
        ids=["nan", "inf", "-inf", "abc", "None", "0", "-0.0"],
    )
    @pytest.mark.parametrize("name", sorted(_EPS_TAKERS))
    def test_bad_epsilon_is_invalid_input(self, name, eps):
        with pytest.raises(InvalidInputError, match="eps"):
            _EPS_TAKERS[name](eps)

    def test_rational_text_and_float_are_read_exactly(self):
        want = nearest_true_ray([1.0, 0, 0, 0], Fraction(1, 100))
        for eps in ("1/100", "0.01"):
            assert nearest_true_ray([1.0, 0, 0, 0], eps) == want
        assert suitable_frame_near([[1.0, 0, 0, 0], [0, 0, 1.0, 0]], 0.5) == \
            suitable_frame_near([[1.0, 0, 0, 0], [0, 0, 1.0, 0]], Fraction(1, 2))

    @pytest.mark.parametrize("reader", [
        QuadRational, GaussianRational, _coerce_eps, lambda s: rationalize(s, 10),
    ], ids=["QuadRational", "GaussianRational", "_coerce_eps", "rationalize"])
    def test_decimal_exponent_is_bounded(self, reader):
        """Text with an exponent beyond +-10^5 is refused before Fraction
        expands it (1e-3000000 took 1.5 s and 1e-1000000 built a 3.3-Mbit
        denominator); a moderate exponent still reads."""
        start = time.perf_counter()
        with pytest.raises(InvalidInputError, match="exponent"):
            reader("1e-200000")
        assert time.perf_counter() - start < 1.0
        assert reader("1e-5000") is not None


class TestQuadRational:
    def test_conjugate_product(self):
        x = QuadRational(1, 1) * QuadRational(1, -1)
        assert x == QuadRational(-1, 0)

    def test_inverse_of_sqrt2(self):
        assert QuadRational(0, 1).inverse() == QuadRational(0, Fraction(1, 2))

    def test_mixed_addition(self):
        got = QuadRational(Fraction(1, 2)) + QuadRational(0, Fraction(1, 7))
        assert got == QuadRational(Fraction(1, 2), Fraction(1, 7))

    def test_product_rule(self):
        a = QuadRational(Fraction(2, 3), Fraction(1, 5))
        b = QuadRational(Fraction(-1, 2), Fraction(3, 7))
        got = a * b
        assert got.rat == a.rat * b.rat + 2 * a.sqrt2 * b.sqrt2
        assert got.sqrt2 == a.rat * b.sqrt2 + a.sqrt2 * b.rat

    def test_zero_inverse_rejected(self):
        with pytest.raises(InvalidInputError):
            QuadRational(0).inverse()

    def test_exact_sign_against_float(self):
        cases = [
            QuadRational(1, Fraction(-1, 2)),   # 1 - 0.707... > 0
            QuadRational(-1, Fraction(3, 4)),   # -1 + 1.06... > 0
            QuadRational(Fraction(7, 5), -1),   # 1.4 - 1.414... < 0
            QuadRational(0, 0),
        ]
        for q in cases:
            f = q.to_float()
            if q.sign() == 0:
                assert f == 0
            else:
                assert (f > 0) is (q.sign() > 0)

    @given(
        st.fractions(min_value=-9, max_value=9, max_denominator=50),
        st.fractions(min_value=-9, max_value=9, max_denominator=50),
    )
    def test_inverse_roundtrip(self, a, b):
        q = QuadRational(a, b)
        if q.sign() == 0:
            return
        assert q * q.inverse() == QuadRational(1)

    def test_ordering_is_exact_near_ties(self):
        # 1393/985 is a close rational approach to sqrt(2) from below
        assert QuadRational(Fraction(1393, 985)) < QuadRational(0, 1)
        assert QuadRational(Fraction(99, 70)) > QuadRational(0, 1)


class TestComplexScalars:
    def test_gaussian_product(self):
        # (1+2i)(3-i) = 5 + 5i
        got = GaussianRational(1, 2) * GaussianRational(3, -1)
        assert got == GaussianRational(5, 5)

    def test_gaussian_inverse(self):
        z = GaussianRational(Fraction(3, 7), Fraction(-2, 5))
        assert z * z.inverse() == GaussianRational(1)

    def test_abs2_matches_conjugate_product(self):
        z = GaussianRational(Fraction(1, 3), Fraction(1, 2))
        assert z.abs2() == (z.conjugate() * z).re

    def test_quad_complex_embeds_gaussian(self):
        z = QuadComplex.from_gaussian(GaussianRational(1, -2))
        assert z.re == QuadRational(1)
        assert z.im == QuadRational(-2)

    def test_quad_complex_product_with_sqrt2(self):
        # (sqrt2 + i) * (sqrt2 - i) = 2 + 1 = 3
        a = QuadComplex(QuadRational(0, 1), QuadRational(1))
        b = QuadComplex(QuadRational(0, 1), QuadRational(-1))
        assert a * b == QuadComplex(QuadRational(3))

    def test_abs2_nonnegative(self):
        z = QuadComplex(QuadRational(1, -1), QuadRational(Fraction(1, 3), 2))
        assert z.abs2().sign() >= 0

    def test_float_views(self):
        q = QuadRational(1, 1)
        assert math.isclose(q.to_float(), 1 + math.sqrt(2))
        z = GaussianRational(Fraction(1, 2), Fraction(1, 4))
        assert z.to_complex() == complex(0.5, 0.25)

    @pytest.mark.parametrize("k", [1, 2, 40, 41, 1000])
    def test_to_float_without_cancellation_or_overflow(self, k):
        # (sqrt2 - 1)^k = p + q*sqrt2 with |p| and |q| near (1 + sqrt2)^k / 2:
        # the value is tiny, its parts are huge and of opposite sign.
        p, q = 1, 0
        for _ in range(k):
            p, q = 2 * q - p, p - q
        ref = p + q * Fraction(math.isqrt(2 * 10**2000), 10**1000)
        assert QuadRational(p, q).to_float() == float(ref)



def _frac(rng):
    return Fraction(0) if rng.random() < 0.2 else Fraction(rng.randint(-60, 60), rng.randint(1, 40))


def _scalar(rng):
    """An int or a Fraction, for the other side of an operation."""
    return rng.randint(-9, 9) if rng.random() < 0.5 else _frac(rng)


def _add(x, y):
    return tuple(_add(a, b) for a, b in zip(x, y)) if isinstance(x, tuple) else x + y


def _times(k, x):
    return tuple(_times(k, a) for a in x) if isinstance(x, tuple) else k * x


def _neg(x):
    return _times(-1, x)


def _pair_mul(x, y, square, mul):
    """(a + bu)(c + du) = (ac + bd*u^2) + (ad + bc)u, on parts (a, b) and (c, d)."""
    (a, b), (c, d) = x, y
    return _add(mul(a, c), _times(square, mul(b, d))), _add(mul(a, d), mul(b, c))


def _rat_mul(p, q):
    return p * q


def _quad_mul(x, y):
    return _pair_mul(x, y, 2, _rat_mul)


def _embed(k):
    return Fraction(k), Fraction(0)


# A scalar type beside its reference model: values as nested tuples of
# Fractions, products by the plain formula.
_Domain = namedtuple("_Domain", "make parts mul draw embed")
_DOMAINS = {
    "QuadRational": _Domain(
        lambda p: QuadRational(*p), lambda v: (v.rat, v.sqrt2), _quad_mul,
        lambda rng: (_frac(rng), _frac(rng)), _embed),
    "GaussianRational": _Domain(
        lambda p: GaussianRational(*p), lambda v: (v.re, v.im),
        lambda x, y: _pair_mul(x, y, -1, _rat_mul),
        lambda rng: (_frac(rng), _frac(rng)), _embed),
    "QuadComplex": _Domain(
        lambda p: QuadComplex(QuadRational(*p[0]), QuadRational(*p[1])),
        lambda v: ((v.re.rat, v.re.sqrt2), (v.im.rat, v.im.sqrt2)),
        lambda x, y: _pair_mul(x, y, -1, _quad_mul),
        lambda rng: ((_frac(rng), _frac(rng)), (_frac(rng), _frac(rng))),
        lambda k: (_embed(k), _embed(0))),
}


class TestScalarContract:
    """The three two-part scalars against plain Fraction formulas, on seeded
    draws, and the edges of their contract: embeddings, foreign types,
    reprs and bad-part messages."""

    @pytest.mark.parametrize("name", sorted(_DOMAINS))
    def test_ring_operations_match_the_formulas(self, name):
        dom = _DOMAINS[name]
        rng = random.Random(f"scalar-contract-{name}")
        for _ in range(150):
            x, y, k = dom.draw(rng), dom.draw(rng), _scalar(rng)
            a, b, kk = dom.make(x), dom.make(y), dom.embed(k)
            cases = [
                (a + b, _add(x, y)), (a - b, _add(x, _neg(y))), (a * b, dom.mul(x, y)),
                (-a, _neg(x)),
                (a + k, _add(x, kk)), (k + a, _add(kk, x)),
                (a - k, _add(x, _neg(kk))), (k - a, _add(kk, _neg(x))),
                (a * k, dom.mul(x, kk)), (k * a, dom.mul(kk, x)),
            ]
            for got, want in cases:
                assert type(got) is type(a)
                assert dom.parts(got) == want
            assert (a == b) == (x == y)
            assert a.is_zero() == (not a) == (dom.make(x) == 0)

    @pytest.mark.parametrize("name", sorted(_DOMAINS))
    def test_embedded_scalars_equal_and_hash_alike(self, name):
        dom = _DOMAINS[name]
        rng = random.Random(f"scalar-embed-{name}")
        for _ in range(100):
            k = _scalar(rng)
            v = dom.make(dom.embed(k))
            assert v == k and k == v and hash(v) == hash(k)
            assert v != k + 1 and hash(v) == hash(dom.make(dom.embed(k)))
        assert hash(QuadRational(3)) == hash(3)

    def test_quad_complex_equals_and_hashes_as_what_it_embeds(self):
        rng = random.Random("scalar-embed-complex")
        for _ in range(100):
            q = QuadRational(_frac(rng), _frac(rng))
            g = GaussianRational(_frac(rng), _frac(rng))
            for inner, outer in ((q, QuadComplex(q)), (g, QuadComplex.from_gaussian(g))):
                assert outer == inner and inner == outer and hash(outer) == hash(inner)
            assert (QuadComplex(q) == QuadComplex(q, 1)) is False

    def test_foreign_types(self):
        q, g, c = QuadRational(1), GaussianRational(1), QuadComplex(1)
        for v in (q, g, c):
            assert v.__eq__("x") is NotImplemented
            for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
                assert getattr(v, op)("x") is NotImplemented
                assert getattr(v, op)(1.0) is NotImplemented
        assert q.__eq__(g) is NotImplemented and g.__eq__(q) is NotImplemented
        assert (q == g) is False
        with pytest.raises(TypeError):
            g * q
        with pytest.raises(TypeError):
            q + "x"
        with pytest.raises(TypeError, match="cannot interpret str as QuadRational"):
            q < "x"
        with pytest.raises(TypeError):
            q >= None

    def test_no_division_or_ordering_beyond_each_type(self):
        c, g = QuadComplex(1), GaussianRational(1)
        assert not hasattr(c, "inverse")
        with pytest.raises(TypeError):
            c / c
        assert not hasattr(GaussianRational, "__rtruediv__")
        with pytest.raises(TypeError):
            1 / g
        with pytest.raises(TypeError):
            g < g
        assert 1 / QuadRational(0, 1) == QuadRational(0, Fraction(1, 2))

    def test_literal_reprs(self):
        q = QuadRational(Fraction(1, 3), -2)
        assert repr(q) == "QuadRational(Fraction(1, 3), Fraction(-2, 1))"
        assert repr(GaussianRational(Fraction(-1, 2), 5)) == (
            "GaussianRational(Fraction(-1, 2), Fraction(5, 1))")
        assert repr(QuadComplex(q)) == (
            "QuadComplex(QuadRational(Fraction(1, 3), Fraction(-2, 1)), "
            "QuadRational(Fraction(0, 1), Fraction(0, 1)))")

    @pytest.mark.parametrize("make, message", [
        (lambda: QuadRational(math.inf), "rational part must be finite, got inf"),
        (lambda: QuadRational(0, math.nan), "sqrt2 coefficient must be finite, got nan"),
        (lambda: QuadRational("1/0"), "cannot parse rational part: '1/0'"),
        (lambda: GaussianRational("x"), "cannot parse real part: 'x'"),
        (lambda: GaussianRational(0, [1]), "imaginary part must be rational or float, got list"),
        (lambda: QuadComplex(0, -math.inf), "rational part must be finite, got -inf"),
    ])
    def test_bad_part_messages(self, make, message):
        with pytest.raises(InvalidInputError) as exc:
            make()
        assert str(exc.value) == message
