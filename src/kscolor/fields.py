"""Exact scalar arithmetic.

Four scalar domains, all exact:

* rationals, represented by ``fractions.Fraction``;
* ``QuadRational``, real numbers of the form a + b*sqrt(2) with rational a, b;
* ``GaussianRational``, complex numbers with rational real and imaginary parts;
* ``QuadComplex``, complex numbers whose real and imaginary parts are
  QuadRational.

On top of these the module provides the 3-adic valuation ``v3``, best rational
approximation of machine reals (``rationalize``), and denominator adjustment
(``adjust_denominator``), which nudges a rational by at most a prescribed
amount while forcing its reduced denominator to be, or not to be, divisible
by three.  ``format_fraction`` writes a rational as text, with a clean error
past CPython's digit limit.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidInputError, ResourceLimitError

INF = math.inf
# floor(sqrt2 * 2^96) / 2^96, within 2^-96 of sqrt2.
_SQRT2 = Fraction(math.isqrt(2 << 192), 1 << 96)


def format_fraction(x: Fraction) -> str:
    """``str(x)``, with ResourceLimitError where CPython refuses to convert
    an integer of more than 4300 digits (its default limit) to text."""
    try:
        return str(x)
    except ValueError:
        raise ResourceLimitError("a number has too many digits to print") from None


def _v3_int(n: int) -> int:
    v = 0
    while n % 3 == 0:
        n //= 3
        v += 1
    return v


def v3(x) -> "int | float":
    """3-adic valuation of a rational; +infinity for zero.

    For x = p/q in lowest terms this is the exponent of 3 in p minus the
    exponent of 3 in q.  Negative valuation means the reduced denominator is
    divisible by 3; valuation <= -2 means divisible by 9.
    """
    if isinstance(x, int):
        if x == 0:
            return INF
        return _v3_int(abs(x))
    if isinstance(x, Fraction):
        if x == 0:
            return INF
        return _v3_int(abs(x.numerator)) - _v3_int(x.denominator)
    raise InvalidInputError(f"v3 expects an exact rational, got {type(x).__name__}")


def _coerce_fraction(x, what: str) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise InvalidInputError(f"{what} must be finite, got {x!r}")
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"cannot parse {what}: {x!r}") from exc
    raise InvalidInputError(f"{what} must be rational or float, got {type(x).__name__}")


def _coerce_eps(eps) -> Fraction:
    """eps read exactly, as ``_coerce_fraction`` does; it must be positive."""
    eps = _coerce_fraction(eps, "eps")
    if eps <= 0:
        raise InvalidInputError("eps must be positive")
    return eps


def _last_convergent(x: Fraction, max_den: int) -> Fraction:
    # Continued fraction convergents p_k/q_k of x; return the last one with
    # q_k <= max_den.  That convergent always satisfies
    # |x - p/q| <= 1/(q * q_next) < 1/(q * max_den).
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = x.numerator, x.denominator
    while d:
        a = n // d
        p2, q2 = a * p1 + p0, a * q1 + q0
        if q2 > max_den:
            break
        p0, q0, p1, q1 = p1, q1, p2, q2
        n, d = d, n - a * d
    return Fraction(p1, q1)


def rationalize(x, max_den: int) -> Fraction:
    """Rational approximation of x with denominator at most max_den,
    guaranteed to satisfy |x - result| <= 1/(den * max_den).

    The overall best approximation (via the mediant search of
    limit_denominator) is returned whenever it meets that bound; in the rare
    case it does not, the last continued fraction convergent is returned
    instead, which always does.
    """
    if not isinstance(max_den, int) or max_den < 1:
        raise InvalidInputError(f"max_den must be a positive integer, got {max_den!r}")
    fx = _coerce_fraction(x, "rationalize target")
    best = fx.limit_denominator(max_den)
    if best == fx:
        return best
    if abs(fx - best) * best.denominator * max_den <= 1:
        return best
    return _last_convergent(fx, max_den)


def adjust_denominator(r, want_div3: bool, eps) -> Fraction:
    """Move r by at most eps so its reduced denominator is (or is not)
    divisible by 3.

    If r already satisfies the divisibility requirement it is returned
    unchanged.  Otherwise the result is p''/q'' with q'' = 3*N*q'' scheme:
    for the divisible case p'' = 3*N*p + 1, q'' = 3*N*q, and for the
    non-divisible case p'' = N*p, q'' = N*q + 1, where N is the smallest
    positive integer making q'' at least 1/eps and the exact displacement at
    most eps, incremented further if reduction spoils the divisibility.
    The result is never zero.
    """
    r = _coerce_fraction(r, "adjust_denominator input")
    if r == 0:
        raise InvalidInputError("adjust_denominator requires a nonzero input")
    eps = _coerce_eps(eps)

    div3 = r.denominator % 3 == 0
    if div3 == want_div3:
        return r

    p, q = r.numerator, r.denominator
    inv_eps = math.ceil(1 / eps)
    if want_div3:
        # displacement is exactly 1/(3*N*q)
        n = max(1, math.ceil(Fraction(inv_eps, 3 * q)))
        while True:
            cand = Fraction(3 * n * p + 1, 3 * n * q)
            if cand.denominator % 3 == 0 and abs(cand - r) <= eps:
                return cand
            n += 1
    else:
        # displacement is exactly |p| / (q * (N*q + 1))
        n = max(
            1,
            math.ceil(Fraction(inv_eps - 1, q)),
            math.ceil((Fraction(abs(p), q) / eps - 1) / q),
        )
        while True:
            cand = Fraction(n * p, n * q + 1)
            if cand.denominator % 3 != 0 and abs(cand - r) <= eps:
                return cand
            n += 1


def _sqrt2_sign(a, b) -> int:
    """Exact sign of a + b*sqrt(2) for rational (or integer) a and b."""
    if a >= 0 and b >= 0:
        return 0 if a == b == 0 else 1
    if a <= 0 and b <= 0:
        return -1
    # Opposite signs: the larger of a^2 and 2b^2 wins; a tie is impossible.
    return 1 if (a * a > 2 * b * b) == (a > 0) else -1


class QuadRational:
    """Exact real number a + b*sqrt(2) with rational a and b.

    Representation is unique, so equality is componentwise.  Ordering uses
    the sign of a + b*sqrt(2), decided exactly by comparing a^2 with 2*b^2
    when a and b have opposite signs.
    """

    __slots__ = ("rat", "sqrt2")

    def __init__(self, rat=0, sqrt2=0):
        object.__setattr__(self, "rat", _coerce_fraction(rat, "rational part"))
        object.__setattr__(self, "sqrt2", _coerce_fraction(sqrt2, "sqrt2 coefficient"))

    def __setattr__(self, name, value):
        raise AttributeError("QuadRational is immutable")

    def __reduce__(self):
        return QuadRational, (self.rat, self.sqrt2)

    @classmethod
    def _coerce(cls, x) -> "QuadRational":
        if isinstance(x, QuadRational):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        raise TypeError(f"cannot interpret {type(x).__name__} as QuadRational")

    def __add__(self, other):
        try:
            o = QuadRational._coerce(other)
        except TypeError:
            return NotImplemented
        return QuadRational(self.rat + o.rat, self.sqrt2 + o.sqrt2)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            o = QuadRational._coerce(other)
        except TypeError:
            return NotImplemented
        return QuadRational(self.rat - o.rat, self.sqrt2 - o.sqrt2)

    def __rsub__(self, other):
        try:
            o = QuadRational._coerce(other)
        except TypeError:
            return NotImplemented
        return QuadRational(o.rat - self.rat, o.sqrt2 - self.sqrt2)

    def __neg__(self):
        return QuadRational(-self.rat, -self.sqrt2)

    def __mul__(self, other):
        try:
            o = QuadRational._coerce(other)
        except TypeError:
            return NotImplemented
        return QuadRational(
            self.rat * o.rat + 2 * self.sqrt2 * o.sqrt2,
            self.rat * o.sqrt2 + self.sqrt2 * o.rat,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadRational":
        # 1/(a + b*sqrt2) = (a - b*sqrt2) / (a^2 - 2 b^2); the norm vanishes
        # only at zero because sqrt2 is irrational.
        norm = self.rat * self.rat - 2 * self.sqrt2 * self.sqrt2
        if norm == 0:
            raise InvalidInputError("division by zero QuadRational")
        return QuadRational(self.rat / norm, -self.sqrt2 / norm)

    def __truediv__(self, other):
        try:
            o = QuadRational._coerce(other)
        except TypeError:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        try:
            o = QuadRational._coerce(other)
        except TypeError:
            return NotImplemented
        return o * self.inverse()

    def is_zero(self) -> bool:
        return self.rat == 0 and self.sqrt2 == 0

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(2): -1, 0 or 1."""
        return _sqrt2_sign(self.rat, self.sqrt2)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadRational(other)
        if not isinstance(other, QuadRational):
            return NotImplemented
        return self.rat == other.rat and self.sqrt2 == other.sqrt2

    def __hash__(self):
        if self.sqrt2 == 0:
            return hash(self.rat)
        return hash((self.rat, self.sqrt2))

    def __lt__(self, other):
        o = QuadRational._coerce(other)
        return (self - o).sign() < 0

    def __le__(self, other):
        o = QuadRational._coerce(other)
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = QuadRational._coerce(other)
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = QuadRational._coerce(other)
        return (self - o).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __bool__(self):
        return not self.is_zero()

    def to_float(self) -> float:
        """a + b*sqrt2 rounded to binary64, to about 96 bits before rounding.

        Parts of opposite sign go through (a^2 - 2b^2)/(a - b*sqrt2), whose
        numerator is exact and whose denominator adds like-signed terms, so
        nothing cancels; all of it is rational, so large parts of a small
        value never overflow.
        """
        a, b = self.rat, self.sqrt2
        if not b:
            return float(a)
        if a and (a < 0) != (b < 0):
            return float((a * a - 2 * b * b) / (a - b * _SQRT2))
        return float(a + b * _SQRT2)

    def __repr__(self):
        return f"QuadRational({self.rat!r}, {self.sqrt2!r})"

    def __str__(self):
        if self.sqrt2 == 0:
            return str(self.rat)
        s2 = f"{'+' if self.sqrt2 > 0 else '-'}{abs(self.sqrt2)}s2"
        if self.rat == 0 and self.sqrt2 > 0:
            return f"{self.sqrt2}s2" if self.sqrt2 != 1 else "s2"
        if self.rat == 0:
            return f"-{abs(self.sqrt2)}s2" if self.sqrt2 != -1 else "-s2"
        return f"{self.rat}{s2}"


QUAD_ZERO = QuadRational(0)


class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _coerce_fraction(re, "real part"))
        object.__setattr__(self, "im", _coerce_fraction(im, "imaginary part"))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    @classmethod
    def _coerce(cls, x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        raise TypeError(f"cannot interpret {type(x).__name__} as GaussianRational")

    def __add__(self, other):
        try:
            o = GaussianRational._coerce(other)
        except TypeError:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            o = GaussianRational._coerce(other)
        except TypeError:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        try:
            o = GaussianRational._coerce(other)
        except TypeError:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        try:
            o = GaussianRational._coerce(other)
        except TypeError:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.abs2()
        if n == 0:
            raise InvalidInputError("division by zero GaussianRational")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        try:
            o = GaussianRational._coerce(other)
        except TypeError:
            return NotImplemented
        return self * o.inverse()

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


class QuadComplex:
    """Exact complex number whose real and imaginary parts live in Q(sqrt2)."""

    __slots__ = ("re", "im")

    def __init__(self, re=QUAD_ZERO, im=QUAD_ZERO):
        if not isinstance(re, QuadRational):
            re = QuadRational(re)
        if not isinstance(im, QuadRational):
            im = QuadRational(im)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("QuadComplex is immutable")

    def __reduce__(self):
        return QuadComplex, (self.re, self.im)

    @classmethod
    def from_gaussian(cls, z: GaussianRational) -> "QuadComplex":
        return cls(QuadRational(z.re), QuadRational(z.im))

    @classmethod
    def _coerce(cls, x) -> "QuadComplex":
        if isinstance(x, QuadComplex):
            return x
        if isinstance(x, QuadRational):
            return cls(x)
        if isinstance(x, GaussianRational):
            return cls.from_gaussian(x)
        if isinstance(x, (int, Fraction)):
            return cls(QuadRational(x))
        raise TypeError(f"cannot interpret {type(x).__name__} as QuadComplex")

    def __add__(self, other):
        try:
            o = QuadComplex._coerce(other)
        except TypeError:
            return NotImplemented
        return QuadComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            o = QuadComplex._coerce(other)
        except TypeError:
            return NotImplemented
        return QuadComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        try:
            o = QuadComplex._coerce(other)
        except TypeError:
            return NotImplemented
        return QuadComplex(o.re - self.re, o.im - self.im)

    def __neg__(self):
        return QuadComplex(-self.re, -self.im)

    def __mul__(self, other):
        try:
            o = QuadComplex._coerce(other)
        except TypeError:
            return NotImplemented
        return QuadComplex(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "QuadComplex":
        return QuadComplex(self.re, -self.im)

    def abs2(self) -> QuadRational:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def __eq__(self, other):
        try:
            o = QuadComplex._coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im.is_zero():
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    def to_complex(self) -> complex:
        return complex(self.re.to_float(), self.im.to_float())

    def __repr__(self):
        return f"QuadComplex({self.re!r}, {self.im!r})"
