"""Truth-value colorings of rays, frames, and projection matrices.

A ray representative v in C^n with 2n real coordinates (r1, ..., r2n) is
TRUE when every coordinate is nonzero, v3(r1) <= -1, and v3(ri) >= 0 for all
i >= 2.  Trueness is a property of the representative, not of the ray: some
rescaling of a ray may be TRUE while others are not.

Two TRUE representatives are never orthogonal: the real part of their inner
product has 3-adic valuation v3(r1) + v3(r1') <= -2 and is therefore nonzero.
``nonorthogonality_certificate`` returns that exact real part together with
its valuation.  As a consequence an exactly orthogonal frame contains at most
one TRUE leg, so frames are colored TRUE/FALSE when one leg is TRUE and
UNDETERMINED otherwise.

A projection is represented by a Hermitian matrix M with M^2 = c*M for a
positive rational c.  The matrix coloring calls M TRUE when every component
(real and imaginary parts of every entry, except the identically zero
diagonal imaginary parts) is nonzero and the (1,1) entry's valuation is at
least one below the valuation of every other component.  Both the
projection test and the coloring read the cleared integers of M: its
common denominator d shifts every valuation by v3(d), so d cancels from the
gap, and only ``witness_shift`` adds it back.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from ._record import Record
from .errors import InvalidInputError, NotApplicableError
from .fields import _v3_int, v3
from .linalg import Frame, GMatrix, GVector, _matmul, _sums_to_identity, inner_product, projector_of


class TruthValue(enum.Enum):
    TRUE = "TRUE"
    FALSE = "FALSE"
    UNDETERMINED = "UNDETERMINED"
    UNDETERMINED_NO_WITNESS = "UNDETERMINED-NO-WITNESS"

    def __str__(self):
        return self.value


def classify_ray(v: GVector) -> TruthValue:
    """Color a single ray representative TRUE or UNDETERMINED.

    On the cleared form (x, d), v3(x_k/d) = v3(x_k) - v3(d): TRUE iff x_1 != 0
    with v3(x_1) < v3(d) and every other x_k != 0 with v3(x_k) >= v3(d).
    GVector rejects the zero vector, so every input is a representative.
    """
    (first, *rest), d = v.cleared
    k = _v3_int(d)
    if first == 0 or _v3_int(abs(first)) >= k:
        return TruthValue.UNDETERMINED
    for c in rest:
        if c == 0 or _v3_int(abs(c)) < k:
            return TruthValue.UNDETERMINED
    return TruthValue.TRUE


def _color_orthogonal(base: list[TruthValue]) -> list[TruthValue]:
    """TRUE/FALSE when one member of an exactly orthogonal set is TRUE on
    its own, all UNDETERMINED when none is."""
    n_true = base.count(TruthValue.TRUE)
    if n_true == 0:
        return [TruthValue.UNDETERMINED] * len(base)
    if n_true > 1:
        # Impossible for exactly orthogonal members; guarded for safety.
        raise AssertionError("two TRUE members in an orthogonal set")
    return [
        TruthValue.TRUE if b is TruthValue.TRUE else TruthValue.FALSE for b in base
    ]


def classify_in_frame(frame: Frame) -> list[TruthValue]:
    """Color every leg of an exactly orthogonal frame.

    When some leg is TRUE it is unique (no two TRUE representatives are
    orthogonal) and all other legs are FALSE.  When no leg is TRUE the whole
    frame is UNDETERMINED.
    """
    return _color_orthogonal([classify_ray(leg) for leg in frame])


def truth_sum(frame: Frame) -> int:
    """Number of TRUE legs in a suitable frame; always 1.

    Raises NotApplicableError when the frame has no TRUE leg, since the
    one-per-frame identity only applies to suitable frames.
    """
    values = classify_in_frame(frame)
    total = sum(1 for t in values if t is TruthValue.TRUE)
    if total == 0:
        raise NotApplicableError("frame has no TRUE leg; truth sum undefined")
    return total


def nonorthogonality_certificate(u: GVector, v: GVector) -> tuple[Fraction, int]:
    """Exact evidence that two TRUE representatives are not orthogonal.

    Returns (re, val) where re is the real part of <u, v> and val = v3(re).
    For TRUE inputs val <= -2 always holds, so re is nonzero.
    """
    if classify_ray(u) is not TruthValue.TRUE or classify_ray(v) is not TruthValue.TRUE:
        raise InvalidInputError("both representatives must be TRUE")
    re = inner_product(u, v).re
    val = v3(re)
    return re, int(val)


class ProjectionRep(Record):
    """Hermitian matrix M with M^2 = c*M for an exact rational c > 0.

    The matrix M/c is an orthogonal projector; M itself is the stored
    representative, and trueness depends on the representative.  ``rank`` is
    trace(M)/c, a positive integer.

    The test runs on the cleared form (x, d) of M: with sq = x*x, M^2 = c*M
    exactly when sq = (c*d)*x, and trace(M)/c = trace(x)/(c*d).  c*d is read
    off the first nonzero entry of x.
    """

    __slots__ = ("matrix", "idem_scale", "rank")
    _fields = ("matrix",)

    def __init__(self, matrix: GMatrix):
        if not isinstance(matrix, GMatrix):
            matrix = GMatrix(matrix)
        if matrix.is_zero():
            raise InvalidInputError("the zero matrix does not represent a projection")
        if not matrix.is_hermitian():
            raise InvalidInputError("projection representative must be Hermitian")
        (x, d), n = matrix.cleared, matrix.n
        sq = _matmul(x, x, n)
        k = next(k for k in range(0, len(x), 2) if x[k] or x[k + 1])
        (a, b), (p, q) = x[k : k + 2], sq[k : k + 2]
        # sq_k / x_k = (p + qi)(a - bi) / (a^2 + b^2)
        if q * a != p * b or p * a + q * b <= 0:
            raise InvalidInputError("matrix does not satisfy M^2 = c*M with c > 0")
        cd = Fraction(p * a + q * b, a * a + b * b)
        if any(s * cd.denominator != cd.numerator * t for s, t in zip(sq, x)):
            raise InvalidInputError("matrix does not satisfy M^2 = c*M")
        rank = sum(x[:: 2 * n + 2]) / cd  # the diagonal is real: M is Hermitian
        if rank.denominator != 1 or rank <= 0:
            raise InvalidInputError("trace/c must be a positive integer")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "idem_scale", cd / d)
        object.__setattr__(self, "rank", int(rank))

    def projector(self) -> GMatrix:
        """The idempotent projector M / c."""
        return self.matrix.scaled(1 / self.idem_scale)

    @classmethod
    def from_ray(cls, v: GVector) -> "ProjectionRep":
        return cls(projector_of(v))

    def __repr__(self):
        return f"ProjectionRep({self.matrix!r})"


def _a11_gap(m: GMatrix) -> "int | None":
    """v3(x_11) for the cleared integers x of m when every component other
    than the diagonal imaginary parts (zero for a Hermitian matrix) is
    nonzero and v3(x_11) is below the valuation of every other one, else
    None.  v3(x/d) = v3(x) - v3(d), so d cancels from the gap."""
    x, n = m.cleared[0], m.n
    diag_im = range(1, len(x), 2 * n + 2)
    vals = [_v3_int(abs(c)) if c else None for k, c in enumerate(x) if k not in diag_im]
    if None in vals or vals[0] >= min(vals[1:], default=vals[0] + 1):
        return None
    return vals[0]


def classify_projection_matrix(rep: ProjectionRep) -> TruthValue:
    """Color a projection representative TRUE or UNDETERMINED.

    TRUE requires every component nonzero and v3(a11) <= v3(x) - 1 for every
    other component x; equivalently a11's denominator carries strictly more
    powers of 3 than any other component's.  The test reads the cleared
    integers of the matrix, since their common denominator cancels.

    Only a projector P of rank r = 1 (mod 3) can be TRUE.  The gap ignores
    scale, so if P is TRUE, k = v3(P11) is below every other valuation.
    Idempotency gives P11 = P11^2 + sum_{j>1} |P1j|^2, of valuation 2k, so
    k = 0; mod 3 then P11 = P11^2 = 1, and r = trace P = P11 = 1.
    """
    if _a11_gap(rep.matrix) is None:
        return TruthValue.UNDETERMINED
    return TruthValue.TRUE


def witness_shift(rep: ProjectionRep) -> Fraction:
    """The scale 3^(-2 - v3(a11)) attached to a TRUE matrix coloring.

    With t the returned value, the (1,1) real part of t*M has valuation
    exactly -2 while every other component has valuation >= -1: only the
    (1,1) denominator is divisible by 9.  v3(a11) = v3(x_11) - v3(d) on the
    cleared form (x, d).
    """
    val = _a11_gap(rep.matrix)
    if val is None:
        raise InvalidInputError("witness shift is defined for TRUE representatives")
    return Fraction(3) ** (-2 - val + _v3_int(rep.matrix.cleared[1]))


def classify_decomposition(reps: "list[ProjectionRep]") -> list[TruthValue]:
    """Color the members of an exact projective decomposition of identity.

    Requires sum of M_i/c_i to be the identity and M_i M_j = 0 for i != j.
    With a TRUE member present it is unique and the rest are FALSE; with no
    TRUE member all are UNDETERMINED.
    """
    if not reps:
        raise InvalidInputError("empty decomposition")
    n = reps[0].matrix.n
    if any(r.matrix.n != n for r in reps):
        raise InvalidInputError("decomposition members must share one dimension")
    # (M_i M_j)* = M_j M_i, so one order of each pair suffices.
    xs = [r.matrix.cleared[0] for r in reps]
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            if any(_matmul(xs[i], xs[j], n)):
                raise InvalidInputError(f"members {i} and {j} are not orthogonal")
    if not _sums_to_identity([r.projector() for r in reps]):
        raise InvalidInputError("projectors do not sum to the identity")

    return _color_orthogonal([classify_projection_matrix(r) for r in reps])
