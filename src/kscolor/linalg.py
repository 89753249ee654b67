"""Exact linear algebra over the Gaussian rationals and over Q(sqrt2).

Vectors and matrices are immutable.  Rays are stored unnormalized: scaling a
vector by a nonzero scalar does not change the ray it represents, and every
operation that compares rays does so through a scale and phase invariant:
the squared projector distance ``ray_dist2`` or the ray key ``_ray_key``.

Every exact check runs on cleared integers.  ``_cleared`` multiplies a
sequence of rationals by the lcm d of their denominators (a positive scale,
so rays, orthogonality, projector distances and PSD are unchanged); it is
the one clearing helper, and ``_round_div`` the one rounding rule.

``GVector``, ``GMatrix`` and ``QuadHermitian`` share one stored form
(``_ClearedForm``, the ``Record`` key of ``==`` and ``hash``): ``cleared``,
their rational parts as integers over one canonical denominator.
- A ``GVector`` stores its 2n real coordinates.  ``inner_product``,
  ``norm2``, ``ray_dist2``, ``gram_schmidt`` (which builds its legs from its
  integers) and the ``Frame`` orthogonality check take integer dot products
  on them; ``same_ray`` compares the canonical ray keys ``_ray_key`` makes.
- ``GMatrix`` and ``QuadHermitian`` share one square base, ``_Square``: the
  shape check, ``identity``, ``zeros``, ``rows``, ``+`` and ``repr`` over
  ``_width`` integers per entry, (re, im) or the 4 Q(sqrt2) coefficients.
  ``_sums_to_identity`` checks a sum to I over one lcm, and ``_pair_times``
  is the ``scaled`` of all three types.  ``@``, ``trace``, ``is_hermitian``
  and ``projector_of`` run on a ``GMatrix``; ``-``, ``frob_dist2`` and
  ``psd_check`` on a ``QuadHermitian``, whose ``psd_check`` eliminates
  fraction-free in Z[sqrt2] + iZ[sqrt2] (Bareiss, Math. Comp. 22, 1968).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from operator import mul

from ._record import Items, Record
from .errors import DegenerateInputError, InvalidInputError
from .fields import (
    GaussianRational,
    QuadComplex,
    QuadRational,
    _coerce_fraction,
    _sqrt2_sign,
)


def _coerce_gaussian(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise InvalidInputError(f"matrix/vector entries must be GaussianRational, got {type(x).__name__}")


def _cleared(coords: Iterable) -> tuple[tuple[int, ...], int]:
    """Exact coordinates (Fractions, ints or binary64 floats) times the lcm d
    of their denominators, and d.  For the real coordinates (re1, im1, re2,
    im2, ...) of a vector these are integers on the same ray."""
    ratios = [c.as_integer_ratio() for c in coords]
    scale = math.lcm(*[den for _, den in ratios])
    return tuple([num * (scale // den) for num, den in ratios]), scale


def _round_div(p: int, q: int) -> int:
    """p/q rounded to an integer with ties to even, for q > 0: the rule of
    ``round(Fraction(p, q))``."""
    k, r = divmod(p, q)
    return k + (2 * r > q or (2 * r == q and k % 2 == 1))


class _ClearedForm(Record):
    """The stored form shared by ``GVector``, ``GMatrix`` and
    ``QuadHermitian``: ``cleared`` = (x, d), the value's rational parts as
    integers x over one d > 0 with gcd(d, x) = 1, unique to the value, so it
    is the ``Record`` key.  Each subclass builds every value by its ``_of``,
    which validates x and ends in ``_store``."""

    __slots__ = ()

    @classmethod
    def _store(cls, x: Sequence[int], d: int):
        """The value x/d in lowest terms, for integers x and d > 0."""
        g = math.gcd(d, *x)
        v = object.__new__(cls)
        object.__setattr__(v, "cleared", (tuple([c // g for c in x]), d // g))
        return v

    def _key(self) -> tuple:
        return self.cleared

    def __reduce__(self):
        return type(self)._of, self.cleared

    def is_zero(self) -> bool:
        return not any(self.cleared[0])


def _gaussians(x: Sequence[int], d: int) -> list[GaussianRational]:
    """The Gaussian rationals of cleared (re, im) pairs x over d."""
    return [GaussianRational(Fraction(a, d), Fraction(b, d)) for a, b in zip(x[::2], x[1::2])]


def _pair_times(x: Sequence[int], s) -> tuple[list[int], int]:
    """Cleared pairs (a, b) of x times the two-part scalar s = p + qu, as
    integers over the denominator of s: (a + bu)(p + qu) = (ap + bq*u^2) +
    (aq + bp)u, with u^2 = ``s._square``."""
    (p, q), den = _cleared((s._a, s._b))
    u2 = s._square
    return [c for a, b in zip(x[::2], x[1::2]) for c in (a * p + u2 * b * q, a * q + b * p)], den


class GVector(_ClearedForm):
    """Vector in C^n with GaussianRational entries, n >= 2, not all zero.

    ``cleared`` is the only stored form: the 2n real coordinates (re1, im1,
    re2, im2, ...) as integers x over one denominator d.  Entries and real
    coordinates are derived from it on each read, ``v[k]`` only entry k.
    """

    __slots__ = ("cleared",)

    def __new__(cls, entries: Iterable) -> "GVector":
        ent = [_coerce_gaussian(e) for e in entries]
        return cls._of(*_cleared([q for e in ent for q in (e.re, e.im)]))

    @classmethod
    def _of(cls, x: Sequence[int], d: int) -> "GVector":
        """The vector x/d, for integers x and d > 0; the one constructor."""
        if len(x) < 4:
            raise InvalidInputError("vectors must have at least 2 entries")
        if not any(x):
            raise InvalidInputError("the zero vector does not represent a ray")
        return cls._store(x, d)

    @classmethod
    def from_reals(cls, coords: Sequence) -> "GVector":
        """Build a vector from 2n interleaved real coordinates
        (re1, im1, re2, im2, ...)."""
        coords = list(coords)
        if len(coords) % 2 != 0 or len(coords) < 4:
            raise InvalidInputError("expected an even number (>= 4) of real coordinates")
        return cls._of(*_cleared([_coerce_fraction(c, "real coordinate") for c in coords]))

    @property
    def entries(self) -> tuple[GaussianRational, ...]:
        return tuple(_gaussians(*self.cleared))

    def real_coordinates(self) -> tuple[Fraction, ...]:
        """The 2n real coordinates (re1, im1, re2, im2, ...)."""
        x, d = self.cleared
        return tuple([Fraction(c, d) for c in x])

    def scaled(self, s) -> "GVector":
        x, den = _pair_times(self.cleared[0], GaussianRational._coerce(s))
        if not any(x):
            raise InvalidInputError("cannot scale a ray representative by zero")
        return GVector._of(x, self.cleared[1] * den)

    def __len__(self):
        return len(self.cleared[0]) // 2

    def __getitem__(self, k):
        x, d = self.cleared
        at = range(0, len(x), 2)[k]
        if isinstance(at, range):
            return tuple(_gaussians([c for j in at for c in x[j : j + 2]], d))
        return GaussianRational(Fraction(x[at], d), Fraction(x[at + 1], d))

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        return f"GVector({list(self.entries)!r})"


def _as_vector(v) -> GVector:
    """v if it is a GVector, else GVector(v); junk raises InvalidInputError."""
    if isinstance(v, GVector):
        return v
    try:
        return GVector(v)
    except TypeError:
        raise InvalidInputError(f"expected a vector, got {type(v).__name__}") from None


def _times_i(x: Sequence[int]) -> list[int]:
    """i times a cleared vector: (re, im) -> (-im, re) at each coordinate."""
    return [c for k in range(0, len(x), 2) for c in (-x[k + 1], x[k])]


def _inner(x: Sequence[int], ix: Sequence[int], y: Sequence[int]) -> tuple[int, int]:
    """Real and imaginary part of the Hermitian inner product <x, y> of two
    cleared vectors, given ix = i*x: they are the dot products x.y and ix.y."""
    return sum(map(mul, x, y)), sum(map(mul, ix, y))


def _project_out(p: Sequence[int], c: Sequence[int]) -> tuple[list[int], int]:
    """|p|^2 c - <p, c> p and |p|^2, for cleared vectors p != 0 and c: c
    minus its projection onto p, times |p|^2, refused if 0 as by Gram-Schmidt."""
    ip = _times_i(p)
    re, im = _inner(p, ip, c)
    n2 = sum(map(mul, p, p))
    out = [n2 * a - re * b - im * e for a, b, e in zip(c, p, ip)]
    if not any(out):
        raise DegenerateInputError("input vectors are linearly dependent")
    return out, n2


def inner_product(u: GVector, v: GVector) -> GaussianRational:
    """Hermitian inner product, conjugate linear in the first argument."""
    if len(u) != len(v):
        raise InvalidInputError("inner product of vectors of different lengths")
    (x, dx), (y, dy) = u.cleared, v.cleared
    re, im = _inner(x, _times_i(x), y)
    return GaussianRational(Fraction(re, dx * dy), Fraction(im, dx * dy))


def norm2(v: GVector) -> Fraction:
    """Squared norm <v, v>, an exact positive rational."""
    x, d = v.cleared
    return Fraction(sum(map(mul, x, x)), d * d)


def _ray_dist2(x: Sequence[int], y: Sequence[int]) -> Fraction:
    """``ray_dist2`` of two cleared vectors of one length."""
    re, im = _inner(x, _times_i(x), y)
    norms = sum(map(mul, x, x)) * sum(map(mul, y, y))
    return Fraction(2 * (norms - re * re - im * im), norms)


def _ray_key(v: GVector) -> tuple[int, ...]:
    """The canonical key of the ray of v: the primitive integer vector of
    conj(v_k) * v, where v_k is the first nonzero entry of v.  Scaling v by
    lambda scales conj(v_k) * v by |lambda|^2 > 0, so two vectors have one
    key exactly when they are proportional over the Gaussian rationals."""
    x = v.cleared[0]
    k = next(k for k in range(0, len(x), 2) if x[k] or x[k + 1])
    p, q = x[k], x[k + 1]
    y = [c for k in range(0, len(x), 2)
         for c in (p * x[k] + q * x[k + 1], p * x[k + 1] - q * x[k])]
    g = math.gcd(*y)
    return tuple([c // g for c in y])


def same_ray(u: GVector, v: GVector) -> bool:
    """Whether u and v represent the same projective ray (exactly
    proportional over the Gaussian rationals): equal ``_ray_key``s."""
    return _ray_key(u) == _ray_key(v)


def ray_dist2(u: GVector, v: GVector) -> Fraction:
    """Squared Frobenius distance between the rank-1 projectors onto u and v.

    Equals 2 * (1 - |<u,v>|^2 / (<u,u> <v,v>)), an exact rational in [0, 2],
    invariant under rescaling either argument.
    """
    if len(u) != len(v):
        raise InvalidInputError("ray distance of vectors of different lengths")
    return _ray_dist2(u.cleared[0], v.cleared[0])


class Frame(Items):
    """An exactly orthogonal set of n nonzero vectors in C^n.

    Legs are kept unnormalized; orthogonality is verified exactly on
    construction.
    """

    __slots__ = _fields = ("legs",)

    def __init__(self, legs: Iterable[GVector]):
        legs = tuple(_as_vector(leg) for leg in legs)
        if not legs:
            raise InvalidInputError("a frame needs at least one leg")
        dim = len(legs[0])
        if any(len(leg) != dim for leg in legs):
            raise InvalidInputError("frame legs must share one ambient dimension")
        if len(legs) != dim:
            raise InvalidInputError(
                f"a frame in dimension {dim} needs exactly {dim} legs, got {len(legs)}"
            )
        for i, leg in enumerate(legs):
            x = leg.cleared[0]
            ix = _times_i(x)
            for j in range(i + 1, len(legs)):
                if _inner(x, ix, legs[j].cleared[0]) != (0, 0):
                    raise InvalidInputError(f"legs {i} and {j} are not orthogonal")
        object.__setattr__(self, "legs", legs)

    @property
    def dimension(self) -> int:
        return len(self.legs)

    def __repr__(self):
        return f"Frame({list(self.legs)!r})"


def gram_schmidt(vectors: Sequence[GVector]) -> Frame:
    """Exact Gram-Schmidt orthogonalization without normalization.

    The first output leg equals the first input verbatim; leg k lies in the
    span of inputs 1..k.  Linearly dependent inputs raise
    DegenerateInputError.

    Each input runs as integers x over one denominator d (its ``cleared``
    form), fraction-free.  With D_0 = 1 and D_j the Gram determinant of the
    first j inputs' x, y <- (D_j y - <W_j, x> W_j) / D_{j-1} for each earlier
    leg j, from y = x, makes y D_j times x minus its projection onto the
    first j inputs; W_k is the last y, |W_k|^2 = D_{k-1} D_k, and leg k is
    W_k / (D_{k-1} d).  Each entry of y is a determinant of integers
    (Sylvester's identity), so the division is exact (Bareiss, Math. Comp.
    22, 1968) and no gcd is taken; y and D_j are determinants of order j + 1
    and j, so their heights grow linearly in k.  A zero projection
    <W_j, x> = 0 only rescales, y <- D_j y / D_{j-1}.
    """
    vectors = [_as_vector(v) for v in vectors]
    if not vectors:
        raise InvalidInputError("gram_schmidt needs at least one vector")
    dim = len(vectors[0])
    if len(vectors) != dim:
        raise InvalidInputError(
            f"gram_schmidt in dimension {dim} needs exactly {dim} vectors"
        )
    done: list[tuple[list[int], list[int], int, int]] = []
    legs = []
    det = 1  # D_{k-1}: the loop over ``done`` ends on it
    for v in vectors:
        if len(v) != dim:
            raise InvalidInputError("frame legs must share one ambient dimension")
        x, d = v.cleared
        y = x
        for w, iw, prev, det in done:
            re, im = _inner(w, iw, x)
            if re or im:
                y = [(det * c - re * a - im * b) // prev for c, a, b in zip(y, w, iw)]
            else:
                y = [det * c // prev for c in y]
        if not any(y):
            raise DegenerateInputError("input vectors are linearly dependent")
        legs.append(GVector._of(y, det * d))
        done.append((y, _times_i(y), det, sum(map(mul, y, y)) // det))
    return Frame(legs)


def _matmul(x: Sequence[int], y: Sequence[int], n: int) -> list[int]:
    """The product of two n by n matrices of cleared (re, im) pairs, row by
    row: entry (i, j) is <z, row i of x> for z the conjugate of column j of y."""
    cols = []
    for j in range(0, 2 * n, 2):
        z = [c for k in range(j, len(y), 2 * n) for c in (y[k], -y[k + 1])]
        cols.append((z, _times_i(z)))
    return [c for k in range(0, len(x), 2 * n) for z, iz in cols
            for c in _inner(z, iz, x[k : k + 2 * n])]


class _Square(_ClearedForm):
    """The base of ``GMatrix`` and ``QuadHermitian``: a nonempty square
    matrix whose ``cleared`` integers hold ``_width`` parts per entry, row by
    row.  ``_of`` checks the shape and the subclass's ``_check``; rows are
    derived from ``entry`` on each read."""

    __slots__ = ()

    @classmethod
    def _of(cls, x: Sequence[int], d: int):
        """The matrix x/d, for integers x and d > 0; the one constructor."""
        w = cls._width
        n = math.isqrt(len(x) // w)
        if n < 1 or w * n * n != len(x):
            raise InvalidInputError("matrix must be square and nonempty")
        cls._check(x, n)
        return cls._store(x, d)

    @staticmethod
    def _check(x: Sequence[int], n: int) -> None:
        """Refuse integers x that are no matrix of the subclass."""

    @classmethod
    def identity(cls, n: int):
        w = cls._width
        return cls._of([int(k % (w * n + w) == 0) for k in range(w * n * n)], 1)

    @classmethod
    def zeros(cls, n: int):
        return cls._of([0] * (cls._width * n * n), 1)

    @property
    def n(self) -> int:
        return math.isqrt(len(self.cleared[0]) // self._width)

    @property
    def rows(self) -> tuple:
        n = self.n
        return tuple(tuple(self.entry(i, j) for j in range(n)) for i in range(n))

    def _plus(self, other, sign: int):
        """self + sign*other on the integers, over the lcm of the denominators."""
        if type(other) is not type(self) or len(other.cleared[0]) != len(self.cleared[0]):
            return NotImplemented
        (x, dx), (y, dy) = self.cleared, other.cleared
        d = math.lcm(dx, dy)
        p, q = d // dx, sign * (d // dy)
        return self._of([a * p + b * q for a, b in zip(x, y)], d)

    def __add__(self, other):
        return self._plus(other, 1)

    def __repr__(self):
        return f"{type(self).__name__}({[list(r) for r in self.rows]!r})"


def _sums_to_identity(mats: Sequence[_Square]) -> bool:
    """Whether matrices of one type and size sum exactly to I: the sum of
    x_k*(D/d_k) is D*I over D = lcm(d_k), on the cleared forms (x_k, d_k)."""
    forms = [m.cleared for m in mats]
    w, n = mats[0]._width, mats[0].n
    den = math.lcm(*[d for _, d in forms])
    total = [sum(c) for c in zip(*[[a * (den // d) for a in x] for x, d in forms])]
    return total == [den * (k % (w * n + w) == 0) for k in range(w * n * n)]


class GMatrix(_Square):
    """Square matrix over the Gaussian rationals.

    ``cleared`` is the only stored form: (re, im) of each entry, row by row,
    as integers x over one denominator d.  ``+``, ``@``, ``scaled``,
    ``trace`` and ``is_hermitian`` run on it; rows and entries are derived
    on each read.
    """

    __slots__ = ("cleared",)
    _width = 2

    def __new__(cls, rows: Iterable[Iterable]) -> "GMatrix":
        rs = [[_coerce_gaussian(e) for e in row] for row in rows]
        if any(len(r) != len(rs) for r in rs):
            raise InvalidInputError("matrix must be square and nonempty")
        return cls._of(*_cleared([q for r in rs for e in r for q in (e.re, e.im)]))

    def entry(self, i: int, j: int) -> GaussianRational:
        (x, d), n = self.cleared, self.n
        k = 2 * (n * range(n)[i] + range(n)[j])  # IndexError out of range, as rows[i][j]
        return _gaussians(x[k : k + 2], d)[0]

    def __matmul__(self, other):
        if not isinstance(other, GMatrix) or other.n != self.n:
            return NotImplemented
        (x, dx), (y, dy) = self.cleared, other.cleared
        return GMatrix._of(_matmul(x, y, self.n), dx * dy)

    def scaled(self, s) -> "GMatrix":
        x, den = _pair_times(self.cleared[0], GaussianRational._coerce(s))
        return GMatrix._of(x, self.cleared[1] * den)

    def trace(self) -> GaussianRational:
        (x, d), n = self.cleared, self.n
        return GaussianRational(Fraction(sum(x[:: 2 * n + 2]), d),
                                Fraction(sum(x[1 :: 2 * n + 2]), d))

    def is_hermitian(self) -> bool:
        x, n = self.cleared[0], self.n
        for i in range(n):
            for j in range(i, n):
                k, t = 2 * (n * i + j), 2 * (n * j + i)
                if x[k] != x[t] or x[k + 1] != -x[t + 1]:
                    return False
        return True


def projector_of(v: GVector) -> GMatrix:
    """Rank-1 orthogonal projector onto the ray of v, exact: x x* / |x|^2
    on the cleared integers x of v, whose denominator cancels."""
    x = v.cleared[0]
    z = list(zip(x[::2], x[1::2]))
    return GMatrix._of([c for a, b in z for p, q in z for c in (a * p + b * q, b * p - a * q)],
                       sum(map(mul, x, x)))


class QuadHermitian(_Square):
    """Hermitian matrix with QuadComplex entries, verified exactly.

    ``cleared`` is the only stored form: (re.rat, re.sqrt2, im.rat, im.sqrt2)
    of each entry, row by row, as integers x over one d > 0 with
    gcd(d, x) = 1.  ``+``, ``-`` and ``scaled`` run on it; rows and entries
    are derived on each read.
    """

    __slots__ = ("cleared",)
    _width = 4

    def __new__(cls, rows: Iterable[Iterable]) -> "QuadHermitian":
        try:
            rs = [[QuadComplex._coerce(e) for e in row] for row in rows]
        except TypeError:
            raise InvalidInputError("matrix entries must be exact QuadComplex values") from None
        if any(len(r) != len(rs) for r in rs):
            raise InvalidInputError("matrix must be square and nonempty")
        return cls._of(*_cleared([q for r in rs for e in r
                                  for q in (e.re.rat, e.re.sqrt2, e.im.rat, e.im.sqrt2)]))

    @staticmethod
    def _check(x: Sequence[int], n: int) -> None:
        """Entry (j, i) must be (a, b, -c, -e) where entry (i, j) is (a, b, c, e)."""
        for i in range(n):
            for j in range(i, n):
                a, b, c, e = x[4 * (n * i + j) : 4 * (n * i + j) + 4]
                if tuple(x[4 * (n * j + i) : 4 * (n * j + i) + 4]) != (a, b, -c, -e):
                    raise InvalidInputError(f"not Hermitian at entry ({i}, {j})")

    def entry(self, i: int, j: int) -> QuadComplex:
        (x, d), n = self.cleared, self.n
        k = 4 * (n * range(n)[i] + range(n)[j])  # IndexError out of range, as rows[i][j]
        return QuadComplex(QuadRational(Fraction(x[k], d), Fraction(x[k + 1], d)),
                           QuadRational(Fraction(x[k + 2], d), Fraction(x[k + 3], d)))

    def __sub__(self, other):
        return self._plus(other, -1)

    def scaled(self, s) -> "QuadHermitian":
        """Scale by a real QuadRational (keeps the matrix Hermitian)."""
        x, den = _pair_times(self.cleared[0], s if isinstance(s, QuadRational) else QuadRational(s))
        return QuadHermitian._of(x, self.cleared[1] * den)


def psd_check(a: QuadHermitian) -> bool:
    """Exact positive semidefiniteness of a Q(sqrt2)-complex Hermitian matrix.

    Its ``cleared`` integers are the matrix times a positive scale (so PSD
    is unchanged), in Z[sqrt2] + iZ[sqrt2].  Elimination
    pivots on any positive diagonal entry; a negative one disproves PSD, and
    an all-zero diagonal block must vanish.  Each step is the fraction-free
    (Bareiss) update w_ij <- (p*w_ij - w_ik*w_kj) / p_prev for the pivot p
    and the one before it (1 at first).  By Sylvester's identity the result
    is a minor of the cleared matrix, so the division is exact: times
    g - h*sqrt2 for p_prev = g + h*sqrt2, then by the integer g^2 - 2h^2.
    That minor is the leading principal minor of the pivots (positive) times
    the Schur complement entry, so signs and zeros are the Schur complement's.
    """
    n, x = a.n, a.cleared[0]
    return _psd_cleared(
        [[x[k : k + 4] for k in range(4 * n * i, 4 * n * (i + 1), 4)] for i in range(n)]
    )


def _psd_cleared(w: list[list[tuple]]) -> bool:
    """The elimination of ``psd_check`` on the cleared integer 4-tuples.
    Overwrites w."""
    active = list(range(len(w)))
    g0, h0 = 1, 0
    while active:
        pivot = None
        for i in active:
            sign = _sqrt2_sign(w[i][i][0], w[i][i][1])
            if sign < 0:
                return False
            if sign > 0 and pivot is None:
                pivot = i
        if pivot is None:
            return not any(any(w[i][j]) for i in active for j in active)
        active.remove(pivot)
        wk = w[pivot]
        g, h = wk[pivot][0], wk[pivot][1]
        norm = g0 * g0 - 2 * h0 * h0
        for x, i in enumerate(active):
            wi = w[i]
            a, b, c, d = wi[pivot]
            for j in active[x:]:
                e, f, s, t = wk[j]
                p, q, u, v = wi[j]
                # (g + h*sqrt2)*w_ij - w_ik*w_kj, real and imaginary parts
                # each as (integer, sqrt2 coefficient).
                r0 = g * p + 2 * h * q - (a * e + 2 * b * f - c * s - 2 * d * t)
                r1 = g * q + h * p - (a * f + b * e - c * t - d * s)
                i0 = g * u + 2 * h * v - (a * s + 2 * b * t + c * e + 2 * d * f)
                i1 = g * v + h * u - (a * t + b * s + c * f + d * e)
                y = (
                    (r0 * g0 - 2 * r1 * h0) // norm,
                    (r1 * g0 - r0 * h0) // norm,
                    (i0 * g0 - 2 * i1 * h0) // norm,
                    (i1 * g0 - i0 * h0) // norm,
                )
                wi[j] = y
                w[j][i] = (y[0], y[1], -y[2], -y[3])
        g0, h0 = g, h
    return True


def frob_dist2(a: QuadHermitian, b: QuadHermitian) -> QuadRational:
    """Squared Frobenius distance between two QuadHermitian matrices, an
    exact QuadRational."""
    if not (isinstance(a, QuadHermitian) and isinstance(b, QuadHermitian)):
        raise InvalidInputError("frob_dist2 expects two QuadHermitian")
    if a.n != b.n:
        raise InvalidInputError("matrix size mismatch")
    # |a + b*sqrt2|^2 = a^2 + 2b^2 + 2ab*sqrt2 for each coefficient pair.
    x, d = (a - b).cleared
    rat = sum(map(mul, x, x)) + sum(c * c for c in x[1::2])
    s2 = 2 * sum(map(mul, x[::2], x[1::2]))
    return QuadRational(Fraction(rat, d * d), Fraction(s2, d * d))
