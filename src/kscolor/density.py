"""Dense constructions: nearby true rays, suitable frames, and false rays.

Given machine-precision targets and a positive epsilon, these operations
return exact objects (vectors over the Gaussian rationals, exactly orthogonal
frames) whose distance to the target is verified by exact rational
arithmetic, never by floating comparison.  Distance is the squared Frobenius
distance between normalized projectors (``ray_dist2``), measured against the
exact binary64 input (``Fraction(float)`` is exact); for frames, the maximum
over legs.  A TRUE-ray target that is the binary64 image of a TRUE rational
vector is passed through as that vector, with distance 0.

Each construction is one rounding onto an integer lattice at a scale fixed
up front; there is no retry budget.  A target t is divided by its largest
|coordinate| (exact, so nothing overflows or underflows) and multiplied by
the scale M, which 3 does not divide.  This runs on integers: the target's
coordinates are cleared to integers a_i over their common denominator (a
power of 2 for binary64 input), S = max |a_i|, and a_i * M / S is rounded by
``divmod`` with ties to even, the rule of ``round(Fraction)``.  The TRUE
lattice holds the integer vectors x with 3 not dividing x1 and 3 dividing
every other coordinate, all nonzero; x/(3M) is then TRUE.  Rounding onto it
moves coordinate 1 by at most 1 and each of the other m - 1 real
coordinates (m = 2n) by at most 3, so |x - M t|^2 < 9m, and as |M t| >= M
the squared projector distance is below 18m/M^2.  Any M >= sqrt(18m)/eps
therefore proves d^2 <= eps^2 for TRUE rays.

Frames round the other vectors to Gaussian integers at a finer scale and
orthogonalize them against the TRUE leg with ``gram_schmidt``; FALSE rays
get the same legs in closed form, each a projection |p|^2 c - <p, c> p.  A
leg orthogonal to a TRUE leg is never TRUE.  The exact checks stay: a miss,
possible only for frame targets that are not orthonormal to within eps,
raises ResourceLimitError with the achieved distance.

The pass-through test rationalizes the target's coordinates one at a time
and stops at the first whose rationalization is not the coordinate itself
in binary64; a generic target fails at its first coordinate.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from ._record import Record
from .coloring import TruthValue, classify_in_frame, classify_ray
from .errors import InvalidInputError, ResourceLimitError
from .fields import _coerce_eps, format_fraction, rationalize
from .linalg import Frame, GVector, _cleared, _project_out, _ray_dist2, _round_div, gram_schmidt


class ApproxResult(Record):
    """An exactly-verified approximation outcome.

    ``object`` is the constructed GVector or Frame, built by one lattice
    rounding at a scale proven up front (no retries); ``achieved_dist2`` the
    exact squared projector distance (a Fraction) to the exact binary64
    target (max over legs for frames; 0 when a TRUE target is passed
    through); ``certificate`` the coloring of the object, a TruthValue or a
    list of them; ``witness`` an optional suitable Frame (present for false
    rays, else None).
    """

    _fields = ("object", "achieved_dist2", "certificate", "witness")
    _defaults = {"witness": None}


def _validate_real_target(target) -> list[float]:
    try:
        coords = [float(x) for x in target]
    except (TypeError, ValueError) as exc:
        raise InvalidInputError("target must be a sequence of reals") from exc
    if len(coords) < 4 or len(coords) % 2 != 0:
        raise InvalidInputError(
            "target must hold 2n real coordinates for some n >= 2"
        )
    if any(not math.isfinite(c) for c in coords):
        raise InvalidInputError("target coordinates must be finite")
    if all(c == 0.0 for c in coords):
        raise InvalidInputError("the zero target does not define a ray")
    return coords


def _scale(eps: Fraction, m: int, factor: int) -> int:
    """The smallest integer M >= factor * sqrt(18m) / eps that 3 does not
    divide, computed exactly."""
    p, q = eps.as_integer_ratio()
    scale = math.isqrt(-(-18 * m * factor * factor * q * q // (p * p)) - 1) + 1
    return scale + (scale % 3 == 0)


def _off3(c: int, scale: int, span: int) -> int:
    """c M / S rounded, then moved by 1 toward c M / S if 3 divides it."""
    x = _round_div(c * scale, span)
    if x % 3 == 0:
        x += 1 if c * scale >= x * span else -1
    return x


def _gaussian_point(a: list[int], scale: int, nudge: bool = False) -> GVector:
    """The Gaussian-integer vector nearest to the target, given as cleared
    integers a, scaled by M; ``nudge`` keeps coordinate 1 off 3Z."""
    span = max(map(abs, a))
    y = [_round_div(c * scale, span) for c in a]
    if nudge:
        y[0] = _off3(a[0], scale, span)
    return GVector._of(y, 1)


def _true_point(a: list[int], scale: int) -> GVector:
    """x/(3M) for the TRUE lattice point x nearest to the target, given as
    cleared integers a, scaled by M.

    Coordinate 1 is a_1 M / S rounded, then moved by 1 toward a_1 M / S if
    3 divides it; each other coordinate is a_i M / (3S) rounded, times 3,
    and a zero there becomes 3 with the sign of a_i (+3 for a_i = 0).
    """
    span = max(map(abs, a))
    first, *rest = a
    xs = [_off3(first, scale, span)]
    for c in rest:
        xi = 3 * _round_div(c * scale, 3 * span)
        xs.append(xi if xi else (3 if c >= 0 else -3))
    return GVector._of(xs, 3 * scale)


def _within(d2: Fraction, eps: Fraction, what: str) -> Fraction:
    if d2 > eps * eps:
        raise ResourceLimitError(
            f"no {what} within eps={format_fraction(eps)}: "
            f"the lattice point lies at d^2={format_fraction(d2)}",
            achieved_dist2=d2,
        )
    return d2


def _true_leg_first(frame: Frame) -> list[TruthValue]:
    values = classify_in_frame(frame)
    if values[0] is not TruthValue.TRUE:
        raise AssertionError("the TRUE lattice point did not classify TRUE")
    return values


def nearest_true_ray(target: Sequence, eps) -> ApproxResult:
    """A TRUE ray representative within eps of the target ray.

    The target is given as 2n machine reals (n >= 2 complex coordinates);
    the result's squared projector distance to the exact binary64 target is
    verified exactly to be at most eps squared.
    """
    coords = _validate_real_target(target)
    eps = _coerce_eps(eps)
    scale = _scale(eps, len(coords), 1)
    a, den = _cleared(coords)

    # If the target is the binary64 image of a TRUE rational vector, keep
    # that representative: trueness depends on the representative, and
    # normalizing would destroy it.  Each coordinate is rationalized with
    # denominator at most ceil((1 + max|c|) M); max|c| = S/den exactly.
    max_den = -(-(den + max(map(abs, a))) * scale // den)
    raw = []
    for c in coords:
        r = rationalize(c, max_den)
        if float(r) != c:
            break
        raw.append(r)
    else:
        raw_vec = GVector.from_reals(raw)
        if classify_ray(raw_vec) is TruthValue.TRUE:
            if 4 * _ray_dist2(raw_vec.cleared[0], a) <= eps * eps:
                return ApproxResult(raw_vec, Fraction(0), TruthValue.TRUE)

    vec = _true_point(a, scale)
    if classify_ray(vec) is not TruthValue.TRUE:
        raise AssertionError("the TRUE lattice point did not classify TRUE")
    d2 = _within(_ray_dist2(vec.cleared[0], a), eps, "TRUE ray")
    return ApproxResult(vec, d2, TruthValue.TRUE)


def _validate_frame_target(targets) -> list[list[float]]:
    rows = [_validate_real_target(t) for t in targets]
    n = len(rows)
    if n < 2:
        raise InvalidInputError("a frame target needs at least 2 vectors")
    if any(len(r) != 2 * n for r in rows):
        raise InvalidInputError(
            f"each of the {n} target vectors must hold {2 * n} real coordinates"
        )
    # Gram matrix of the complex vectors must be within 1e-6 of the identity.
    zs = [[complex(r[2 * k], r[2 * k + 1]) for k in range(n)] for r in rows]
    for i, zi in enumerate(zs):
        zi = [z.conjugate() for z in zi]
        for j in range(i, n):
            g = sum([a * b for a, b in zip(zi, zs[j])])
            want = 1.0 if i == j else 0.0
            if abs(g - want) > 1e-6:
                raise InvalidInputError(
                    f"target vectors are not orthonormal to 1e-6 at pair ({i}, {j})"
                )
    return rows


def suitable_frame_near(targets: Sequence[Sequence], eps) -> ApproxResult:
    """An exactly orthogonal frame with exactly one TRUE leg, legwise within
    eps of the given nearly-orthonormal float vectors.

    The TRUE leg replaces target leg 1 (callers can permute targets to move
    it); the other legs come from exact Gram-Schmidt of the Gaussian-integer
    roundings of the targets against it.  Gram-Schmidt passes the rounding
    errors of earlier legs on to later ones, so the scale carries a safety
    factor of 4n.
    """
    rows = _validate_frame_target(targets)
    eps = _coerce_eps(eps)
    n = len(rows)
    return _frame_near([_cleared(row)[0] for row in rows], eps, _scale(eps, 2 * n, 4 * n))


def _frame_near(cleared: list[tuple[int, ...]], eps: Fraction, scale: int,
                nudge: bool = False) -> ApproxResult:
    """``suitable_frame_near`` of validated targets given as cleared integer
    rows, at a scale M >= the proven one, 3 not dividing M.  ``nudge`` keeps
    each rounding y with Re<x, y> = x_1 y_1 != 0 mod 3 for the TRUE point x."""
    frame = gram_schmidt(
        [_true_point(cleared[0], scale)]
        + [_gaussian_point(a, scale, nudge) for a in cleared[1:]]
    )
    values = _true_leg_first(frame)
    worst = max(_ray_dist2(leg.cleared[0], a) for leg, a in zip(frame, cleared))
    return ApproxResult(frame, _within(worst, eps, "suitable frame"), values)


def false_ray_near(target: Sequence, eps) -> ApproxResult:
    """A not-TRUE ray within eps of the target, witnessed by a suitable frame
    that contains it.

    The target approximant sits at leg 2 of the witness; leg 1 carries the
    TRUE ray.  Leg 2 is exactly orthogonal to the TRUE leg, so it can never
    classify TRUE itself.

    Both frames are Gram-Schmidt frames in closed form.  Completing the
    rounded target y by standard vectors e_j, e_j's leg is e_j minus its
    projection onto y with the earlier e_j's coordinates set to zero.  In the
    witness of the TRUE point x, y and the later completion legs c, which
    are orthogonal, each of y and the c has as leg itself minus its
    projection onto p: x minus its projections onto those before it.
    """
    coords = _validate_real_target(target)
    eps = _coerce_eps(eps)
    n = len(coords) // 2
    # Leg 2 turns away from the rounded target y by at most the angle between
    # the TRUE leg and the completion leg it rounds, which is orthogonal to y;
    # so d <= (sqrt(18m) + sqrt(m/2))/M, and a factor of 2 in M covers it.
    scale = _scale(eps, len(coords), 2)
    a = _cleared(coords)[0]
    y = _gaussian_point(a, scale)
    # Complete y to a basis: drop the standard vector with the largest
    # overlap to keep the completion well conditioned.
    yx = y.cleared[0]
    skip = max(range(n), key=lambda j: yx[2 * j] ** 2 + yx[2 * j + 1] ** 2)
    rest, completion = list(yx), []
    for j in range(n):
        if j != skip:
            completion.append(_project_out(rest, [int(k == 2 * j) for k in range(2 * n)]))
            rest[2 * j] = rest[2 * j + 1] = 0
    x = _true_point(completion[0][0], scale)
    legs, p = [x], x.cleared[0]
    for c, d in [y.cleared] + completion[1:]:
        leg, n2 = _project_out(p, c)
        legs.append(GVector._of(leg, n2 * d))
        p = _project_out(c, p)[0]
        g = math.gcd(*p)
        p = [e // g for e in p]
    frame = Frame(legs)
    values = _true_leg_first(frame)
    d2 = _within(_ray_dist2(frame[1].cleared[0], a), eps, "FALSE ray")
    return ApproxResult(frame[1], d2, values[1], witness=frame)
