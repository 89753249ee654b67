"""Exact scalar arithmetic.

Four scalar domains, all exact:

* rationals, represented by ``fractions.Fraction``;
* ``QuadRational``, real numbers of the form a + b*sqrt(2) with rational a, b;
* ``GaussianRational``, complex numbers with rational real and imaginary parts;
* ``QuadComplex``, complex numbers whose real and imaginary parts are
  QuadRational.

The last three are two-part numbers a + b*u on one immutable base, whose
binary operators read the other operand by one rule, ``_operand``.

On top of these the module provides the 3-adic valuation ``v3``, best rational
approximation of machine reals (``rationalize``), and denominator adjustment
(``adjust_denominator``), which nudges a rational by at most a prescribed
amount while forcing its reduced denominator to be, or not to be, divisible
by three.  ``format_fraction`` writes a rational as text, with a clean error
past CPython's digit limit.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from ._record import Frozen
from .errors import InvalidInputError, ResourceLimitError

INF = math.inf
# sqrt2 is about S/E = floor(sqrt2 * 2^96) / 2^96, within 2^-96.
_S, _E = math.isqrt(2 << 192), 1 << 96
# Largest |exponent| of decimal text such as "1e-5": Fraction expands
# 10**|exponent| exactly, so "1e-10000000" alone takes seconds and 4 MB.
_MAX_EXPONENT = 10 ** 5
_EXPONENT = re.compile(r"[eE][+-]?([\d_]+)\s*\Z")


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


def _check_exponent(s: str) -> None:
    """Refuse decimal text whose exponent is beyond +-10^5 before
    ``Fraction`` expands it."""
    exp = _EXPONENT.search(s)
    digits = exp.group(1).replace("_", "").lstrip("0") if exp else ""
    if len(digits) > 6 or digits and int(digits) > _MAX_EXPONENT:
        raise InvalidInputError(f"decimal exponent beyond +-10^5: {s!r}")


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
        _check_exponent(x)
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

    If r = p/q (lowest terms) already satisfies the divisibility requirement
    it is returned unchanged.  Otherwise the result is (3Np + 1)/(3Nq) for
    the divisible case and Np/(Nq + 1) for the non-divisible one, where N is
    the smallest positive integer making the denominator before reduction
    at least 1/eps and the exact displacement at most eps; the comments
    prove that this first candidate always qualifies.  The result is never
    zero.
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
        # 3 never divides 3Np + 1, so the 3 of 3Nq stays in the reduced
        # denominator; the displacement 1/(3Nq) <= 1/inv_eps <= eps.
        n = max(1, math.ceil(Fraction(inv_eps, 3 * q)))
        return Fraction(3 * n * p + 1, 3 * n * q)
    # 3 | q implies 3 does not divide Nq + 1; the displacement is
    # |p|/(q(Nq + 1)), at most eps as N >= (|p|/(q eps) - 1)/q.
    n = max(
        1,
        math.ceil(Fraction(inv_eps - 1, q)),
        math.ceil((Fraction(abs(p), q) / eps - 1) / q),
    )
    return Fraction(n * p, n * q + 1)


def _quad_ratio(a: int, b: int, d: int) -> tuple[int, int]:
    """Integers p and q != 0 with p/q = (a + b*sqrt2)/d to about 96 bits,
    for integers a, b and d > 0.

    Parts of opposite sign go through (a^2 - 2b^2)/(a - b*sqrt2), whose
    numerator is exact and whose denominator adds like-signed terms, so
    nothing cancels; it is all integers, so large parts of a small value
    never overflow.
    """
    if not b:
        return a, d
    if a and (a < 0) != (b < 0):
        return (a * a - 2 * b * b) * _E, d * (a * _E - b * _S)
    return a * _E + b * _S, d * _E


def _sqrt2_sign(a, b) -> int:
    """Exact sign of a + b*sqrt(2) for rational (or integer) a and b."""
    if a >= 0 and b >= 0:
        return 0 if a == b == 0 else 1
    if a <= 0 and b <= 0:
        return -1
    # Opposite signs: the larger of a^2 and 2b^2 wins; a tie is impossible.
    return 1 if (a * a > 2 * b * b) == (a > 0) else -1


_new = object.__new__
_set = object.__setattr__


def _operand(op):
    """``op(self, o)`` for the other operand o read by ``self._coerce``, or
    NotImplemented where it cannot be read, so Python tries the reflection."""
    @functools.wraps(op)
    def method(self, other):
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        return op(self, o)
    return method


class _Pair(Frozen):
    """Exact number a + b*u with a and b in a field F and u*u = ``_square``,
    which is not a square in F, so the parts (a, b) are unique to the value:
    ``==`` reads them, and a value with b = 0 hashes as a does.

    A subclass names its two parts in ``__slots__``, sets ``_square`` and
    the types ``_embeds`` reads as (x, 0), and reads its arguments into
    parts in ``__init__``, which ends in ``_store``.  The arithmetic here
    builds every result by ``_of``, from parts that need no reading.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # The member descriptors of the two named slots, under shared names:
        # self._a reads the first part and _set(self, "_a", x) stores it.
        cls._a, cls._b = [cls.__dict__[n] for n in cls.__slots__]

    def _store(self, a, b):
        _set(self, "_a", a)
        _set(self, "_b", b)

    @classmethod
    def _of(cls, a, b):
        v = _new(cls)
        v._store(a, b)
        return v

    def __reduce__(self):
        return type(self), (self._a, self._b)

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, cls):
            return x
        if isinstance(x, cls._embeds):
            return cls(x)
        raise TypeError(f"cannot interpret {type(x).__name__} as {cls.__name__}")

    @_operand
    def __add__(self, o):
        return self._of(self._a + o._a, self._b + o._b)

    __radd__ = __add__

    @_operand
    def __sub__(self, o):
        return self._of(self._a - o._a, self._b - o._b)

    @_operand
    def __rsub__(self, o):
        return self._of(o._a - self._a, o._b - self._b)

    def __neg__(self):
        return self._of(-self._a, -self._b)

    @_operand
    def __mul__(self, o):
        a, b, c, d = self._a, self._b, o._a, o._b
        # (a + bu)(c + du) = (ac + bd*u^2) + (ad + bc)u, with u^2 = 2 or -1
        first = a * c + 2 * b * d if self._square == 2 else a * c - b * d
        return self._of(first, a * d + b * c)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def __bool__(self):
        return bool(self._a) or bool(self._b)

    @_operand
    def __eq__(self, o):
        return self._a == o._a and self._b == o._b

    def __hash__(self):
        if not self._b:
            return hash(self._a)
        return hash((self._a, self._b))

    def __repr__(self):
        return f"{type(self).__name__}({self._a!r}, {self._b!r})"


@functools.total_ordering
class QuadRational(_Pair):
    """Exact real number a + b*sqrt(2) with rational a and b.

    Ordering uses the sign of a + b*sqrt(2), decided exactly by comparing
    a^2 with 2*b^2 when a and b have opposite signs.
    """

    __slots__ = ("rat", "sqrt2")
    _square = 2
    _embeds = (int, Fraction)

    def __init__(self, rat=0, sqrt2=0):
        self._store(_coerce_fraction(rat, "rational part"), _coerce_fraction(sqrt2, "sqrt2 coefficient"))

    def inverse(self) -> "QuadRational":
        # 1/(a + b*sqrt2) = (a - b*sqrt2) / (a^2 - 2 b^2); the norm vanishes
        # only at zero because sqrt2 is irrational.
        norm = self.rat * self.rat - 2 * self.sqrt2 * self.sqrt2
        if norm == 0:
            raise InvalidInputError("division by zero QuadRational")
        return self._of(self.rat / norm, -self.sqrt2 / norm)

    @_operand
    def __truediv__(self, o):
        return self * o.inverse()

    @_operand
    def __rtruediv__(self, o):
        return o * self.inverse()

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(2): -1, 0 or 1."""
        return _sqrt2_sign(self.rat, self.sqrt2)

    def __lt__(self, other):
        return (self - QuadRational._coerce(other)).sign() < 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def to_float(self) -> float:
        """a + b*sqrt2 rounded to binary64: one correctly rounded division
        of the ``_quad_ratio`` integers."""
        (a, p), (b, q) = self.rat.as_integer_ratio(), self.sqrt2.as_integer_ratio()
        num, den = _quad_ratio(a * q, b * p, p * q)
        return num / den

    def __str__(self):
        """The compact token that ``serialize.parse_quad_token`` reads:
        '3', '-1/2', 's2', '-s2', '3/4s2', '1+s2', '1/2-1/3s2'."""
        a, b = self.rat, self.sqrt2
        if not b:
            return format_fraction(a)
        s2 = "s2" if b == 1 else "-s2" if b == -1 else f"{format_fraction(b)}s2"
        if not a:
            return s2
        return f"{format_fraction(a)}{'+' if b > 0 else ''}{s2}"


QUAD_ZERO = QuadRational(0)


class GaussianRational(_Pair):
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")
    _square = -1
    _embeds = (int, Fraction)

    def __init__(self, re=0, im=0):
        self._store(_coerce_fraction(re, "real part"), _coerce_fraction(im, "imaginary part"))

    def conjugate(self) -> "GaussianRational":
        return self._of(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.abs2()
        if n == 0:
            raise InvalidInputError("division by zero GaussianRational")
        return self._of(self.re / n, -self.im / n)

    @_operand
    def __truediv__(self, o):
        return self * o.inverse()

    def to_complex(self) -> complex:
        return complex(self.re, self.im)


class QuadComplex(_Pair):
    """Exact complex number whose real and imaginary parts live in Q(sqrt2)."""

    __slots__ = ("re", "im")
    _square = -1
    _embeds = (QuadRational, int, Fraction)

    def __init__(self, re=QUAD_ZERO, im=QUAD_ZERO):
        self._store(re if isinstance(re, QuadRational) else QuadRational(re),
                    im if isinstance(im, QuadRational) else QuadRational(im))

    @classmethod
    def from_gaussian(cls, z: GaussianRational) -> "QuadComplex":
        return cls(QuadRational(z.re), QuadRational(z.im))

    @classmethod
    def _coerce(cls, x) -> "QuadComplex":
        if isinstance(x, QuadComplex):
            return x
        if isinstance(x, GaussianRational):
            return cls.from_gaussian(x)
        return super()._coerce(x)

    def conjugate(self) -> "QuadComplex":
        return self._of(self.re, -self.im)

    def abs2(self) -> QuadRational:
        return self.re * self.re + self.im * self.im

    def to_complex(self) -> complex:
        return complex(self.re.to_float(), self.im.to_float())
