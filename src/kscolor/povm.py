"""Truth-value coloring of positive operators and POVM decompositions.

Elements carry exact Q(sqrt2)-complex entries.  An element is TRUE when the
sqrt2-component of its (1,1) entry is strictly positive; a decomposition
(elements summing exactly to the identity) is suitable when precisely one
element is TRUE.  ``classify_with_witness`` decides falsity by exhibiting a
suitable decomposition containing the element whenever one exists.

``make_suitable_near`` is one construction at a scale fixed up front, with
no retry budget.  The exact Hermitian part of each of the m targets (n by
n) is blended toward I/m by theta, which leaves a PSD margin theta/m, and
rounded onto the lattice Z[i]/L; the last element is I minus the others.
Rounding moves the last element by at most (m - 1)n/(sqrt2 L) in Frobenius
norm and the others by less, and moving delta*sqrt2 at entry (1,1) costs
delta*sqrt2.  L >= 4mn * max(m/theta, 1/eps) and delta = theta/(8m) keep
both below half the margin and, with the blend's theta*|T - I/m| < eps/4,
the distance below eps/2.  Distances are measured exactly against the
caller's binary64 entries, so targets that are Hermitian, PSD or sum to I
only to the input tolerance can still miss: ResourceLimitError then
carries the achieved distance.

Every decision runs on integers.  Each binary64 entry is an exact dyadic
p/2^k.  The input PSD check tries short integers first (``_float_psd_within``);
theta, L, delta and the corners are integers; the rounding is ties to even;
each d^2 is a pair (r, s) over one denominator (L*2^k*c)^2, c that of delta,
so the worst d^2 and d^2 <= eps^2 are signs in Z[sqrt2], and a QuadRational
d^2 is built only for a miss.  Each element is built from its lattice
integers over L*c, and ``PovmDecomposition`` checks the sum to I on the
elements' cleared integers over the lcm of their denominators.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import cmp_to_key

from ._record import Items, Record
from .coloring import TruthValue
from .errors import (
    DegenerateInputError,
    InvalidInputError,
    NotApplicableError,
    ResourceLimitError,
)
from .fields import QuadRational, _coerce_eps, _sqrt2_sign, format_fraction, rationalize
from .linalg import (QuadHermitian, _cleared, _psd_cleared, _round_div, _sums_to_identity,
                     psd_check)


class PovmElement(Record):
    """A positive semidefinite QuadHermitian matrix, verified exactly."""

    __slots__ = _fields = ("matrix",)

    def __init__(self, matrix: QuadHermitian):
        if not isinstance(matrix, QuadHermitian):
            matrix = QuadHermitian(matrix)
        if not psd_check(matrix):
            raise InvalidInputError("POVM element is not positive semidefinite")
        object.__setattr__(self, "matrix", matrix)

    @property
    def n(self) -> int:
        return self.matrix.n

    def a11(self) -> QuadRational:
        """The truth-relevant (1,1) entry; real by Hermiticity."""
        return self.matrix.entry(0, 0).re

    def __repr__(self):
        return f"PovmElement({self.matrix!r})"


class PovmDecomposition(Items):
    """A list of PovmElements summing exactly to the identity, checked on
    their cleared integers."""

    __slots__ = _fields = ("elements",)

    def __init__(self, elements: Sequence):
        elems = tuple(
            e if isinstance(e, PovmElement) else PovmElement(e) for e in elements
        )
        if not elems:
            raise InvalidInputError("a decomposition needs at least one element")
        n = elems[0].n
        if any(e.n != n for e in elems):
            raise InvalidInputError("decomposition elements must share one dimension")
        if not _sums_to_identity([e.matrix for e in elems]):
            raise InvalidInputError("elements do not sum exactly to the identity")
        object.__setattr__(self, "elements", elems)

    @property
    def n(self) -> int:
        return self.elements[0].n

    def __repr__(self):
        return f"PovmDecomposition({list(self.elements)!r})"


def classify_element(a: PovmElement) -> TruthValue:
    """TRUE iff the sqrt2-component of a11 is strictly positive.

    Non-TRUE elements are candidate-FALSE; classify_with_witness settles
    whether a suitable decomposition actually contains them.  The component
    is read as its cleared integer, whose denominator is positive.
    """
    if not isinstance(a, PovmElement):
        a = PovmElement(a)
    if a.matrix.cleared[0][1] > 0:
        return TruthValue.TRUE
    return TruthValue.FALSE


def is_suitable(d: PovmDecomposition) -> bool:
    """Whether exactly one element classifies TRUE."""
    n_true = sum(
        1 for e in d if classify_element(e) is TruthValue.TRUE
    )
    return n_true == 1


def truth_sum(d: PovmDecomposition) -> int:
    """Number of TRUE elements of a suitable decomposition; always 1.

    Raises NotApplicableError for unsuitable decompositions.
    """
    if not is_suitable(d):
        raise NotApplicableError("decomposition is not suitable; truth sum undefined")
    return 1


def classify_with_witness(
    a: PovmElement,
) -> tuple[TruthValue, PovmDecomposition | None]:
    """Settle the truth value of an element, producing a witness for FALSE.

    A non-TRUE element is FALSE exactly when some suitable decomposition
    contains it, which happens iff the complement C = I - A is PSD with a
    strictly positive (1,1) entry mu.  The slice {A, delta*sqrt2*E11,
    C - delta*sqrt2*E11} with delta near mu/3 is tried once, since it
    usually gives the simpler witness.  Otherwise C splits as
    lam*C + (1 - lam)*C with lam in Q(sqrt2) given in closed form (see
    below), so that exactly the first part is TRUE.  When mu is zero (or C
    is not PSD), every PSD complement is forced to a zero (1,1) entry, no
    element of it can be TRUE, and the result is UNDETERMINED-NO-WITNESS.
    """
    if not isinstance(a, PovmElement):
        a = PovmElement(a)
    if classify_element(a) is TruthValue.TRUE:
        return TruthValue.TRUE, None
    n = a.n
    complement = QuadHermitian.identity(n) - a.matrix
    if not psd_check(complement):
        return TruthValue.UNDETERMINED_NO_WITNESS, None
    mu = complement.entry(0, 0).re
    if mu.sign() == 0:
        return TruthValue.UNDETERMINED_NO_WITNESS, None

    # The third element keeps the sqrt2 part mu.sqrt2 - delta of the corner,
    # so it is not TRUE when delta >= mu.sqrt2.
    delta = rationalize(mu.to_float() / 3, 10 ** 6)
    if 0 < delta and mu.sqrt2 <= delta:
        bump = _element([[(0, 0)] * n] * n, 1, (delta.numerator, delta.denominator))
        try:  # the third element is PSD, or PovmElement refuses it
            return TruthValue.FALSE, PovmDecomposition([a, bump, complement - bump])
        except InvalidInputError:
            pass

    # Scaled complement: lam*mu = y*(sqrt2 - r) with the integer y above
    # mu.sqrt2 (so the remainder's sqrt2 part mu.sqrt2 - y is negative) and
    # r = isqrt(2b^2)/b, so 0 < sqrt2 - r < 1/b.  Writing mu = (P + Q*sqrt2)/D
    # in integers, |P^2 - 2Q^2| >= 1 gives mu >= 1/(D(|P| + 2|Q|)), and
    # b = y*D(|P| + 2|Q|) + 1 puts lam*mu strictly between 0 and mu.
    y = max(math.floor(mu.sqrt2), 0) + 1
    (p, q), den = _cleared((mu.rat, mu.sqrt2))
    b = y * den * (abs(p) + 2 * abs(q)) + 1
    lam = QuadRational(-y * Fraction(math.isqrt(2 * b * b), b), y) / mu
    witness = PovmDecomposition(
        [a, complement.scaled(lam), complement.scaled(1 - lam)]
    )
    if not is_suitable(witness):
        raise AssertionError("scaled-complement witness failed suitability")
    return TruthValue.FALSE, witness


def _as_complex_matrix(t, what: str) -> list[list[complex]]:
    try:
        rows = [list(r) for r in t]
    except TypeError as exc:
        raise InvalidInputError(f"{what} must be a matrix") from exc
    n = len(rows)
    out = []
    for r in rows:
        if len(r) != n:
            raise InvalidInputError(f"{what} must be square")
        line = []
        for e in r:
            if isinstance(e, complex):
                z = e
            elif isinstance(e, (int, float, Fraction)):
                z = complex(float(e), 0.0)
            elif isinstance(e, (tuple, list)) and len(e) == 2:
                z = complex(float(e[0]), float(e[1]))
            else:
                raise InvalidInputError(f"{what} has a non-numeric entry: {e!r}")
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise InvalidInputError(f"{what} has a non-finite entry")
            line.append(z)
        out.append(line)
    return out


def _dyadic(mats) -> tuple[list, int]:
    """The binary64 entries of ``mats`` exactly, as integer pairs (re, im)
    over one common 2**k: every binary64 value is a dyadic rational."""
    ratios = [[[(z.real.as_integer_ratio(), z.imag.as_integer_ratio()) for z in row]
               for row in t] for t in mats]
    k = max(q.bit_length() for t in ratios for row in t for e in row for _, q in e) - 1
    return [[[tuple(p << (k + 1 - q.bit_length()) for p, q in e) for e in row]
             for row in t] for t in ratios], k


def _float_psd_within(rows: list[list[complex]], t: list, k: int, tol: float) -> bool:
    """Whether H + sI is PSD, for H the exact Hermitian part (A + A*)/2 of
    the binary64 matrix ``rows`` (``_dyadic`` integer pairs t over 2**k) and
    s = 2*tol*scale.

    Short integers first, where H has more than b fractional bits.  Rounding
    H to the nearest multiple of 2^-b moves each part of each entry by at
    most 2^-(b+1), so the Hermitian error E has ||E||_2 <= ||E||_F <= n*2^-b
    = delta, and 2^b > 2n/s makes delta < s/2.  If the rounded matrix plus
    c*I, c = floor((s - delta)*2^b)/2^b, is PSD, then so is H + sI: it adds
    E + (s - c)*I, whose eigenvalues are at least s - c - delta >= 0 by
    Weyl's inequality.  That path can only prove PSD; otherwise the exact
    test decides, on integers over 2^(k+1) times the denominator of s."""
    n = len(rows)
    scale = max(1.0, max(abs(e) for r in rows for e in r))
    sp, sq = (tol * scale * 2).as_integer_ratio()
    b = (2 * n * sq // sp).bit_length()
    cut = k + 1 - b
    h = [[(ar + br, ai - bi) for (ar, ai), (br, bi) in zip(row, col)]
         for row, col in zip(t, zip(*t))]

    def shifted(part, diag: int) -> bool:
        return _psd_cleared([[(part(re) + diag * (i == j), 0, part(im), 0)
                              for j, (re, im) in enumerate(row)] for i, row in enumerate(h)])

    if cut > 0:
        half = 1 << (cut - 1)

        def near(v: int) -> int:  # half away from zero: odd, so the matrix stays Hermitian
            return (v + half) >> cut if v >= 0 else -((half - v) >> cut)

        if shifted(near, (sp << b) // sq - n):
            return True
    return shifted(lambda v: v * sq, sp << (k + 1))


def _validate_povm_targets(targets) -> tuple[list, list, int]:
    """The binary64 targets, checked, with their ``_dyadic`` integers."""
    mats = [_as_complex_matrix(t, f"target {k}") for k, t in enumerate(targets)]
    if not mats:
        raise InvalidInputError("at least one target matrix is required")
    n = len(mats[0])
    if n < 1 or any(len(m) != n for m in mats):
        raise InvalidInputError("all target matrices must share one dimension")
    ints, bits = _dyadic(mats)
    # abs() of a complex with finite parts raises OverflowError when the
    # modulus is beyond binary64; no such target is near a POVM.
    try:
        for k, m in enumerate(mats):
            # |a - conj(b)| = |b - conj(a)| exactly in binary64: i <= j suffices.
            for i in range(n):
                for j in range(i, n):
                    if abs(m[i][j] - m[j][i].conjugate()) > 1e-8:
                        raise InvalidInputError(f"target {k} is not Hermitian to 1e-8")
            if not _float_psd_within(m, ints[k], bits, 1e-8):
                raise InvalidInputError(f"target {k} is not PSD to 1e-8")
        for i in range(n):
            for j in range(n):
                s = sum(m[i][j] for m in mats)
                want = 1.0 if i == j else 0.0
                if abs(s - want) > 1e-8:
                    raise InvalidInputError("targets do not sum to the identity to 1e-8")
    except OverflowError:
        raise InvalidInputError("target entries overflow binary64") from None
    return mats, ints, bits


def _lattice_point(t, theta: tuple[int, int], m: int, scale: int, k: int):
    """Numerator pairs (re, im), over ``scale``, of the Gaussian-integer
    lattice point nearest (ties to even) to (1 - theta)*H + (theta/m)*I, for
    H the exact Hermitian part of ``t``, integer pairs over 2**k, and theta
    given as (numerator, denominator)."""
    n = len(t)
    tn, td = theta
    den = td * m << (k + 1)
    weight = scale * (td - tn) * m
    shift = scale * tn << (k + 1)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            (ar, ai), (br, bi) = t[i][j], t[j][i]
            x = _round_div((ar + br) * weight + (shift if i == j else 0), den)
            y = _round_div((ai - bi) * weight, den)
            out[i][j], out[j][i] = (x, y), (x, -y)
    return out


def _element(point, scale: int, corner: tuple[int, int]) -> QuadHermitian:
    """``point``/scale (integer pairs (re, im)) plus corner*sqrt2 at (1,1),
    for the corner given as (numerator, denominator > 0)."""
    cn, cd = corner
    x = [c * cd for row in point for re, im in row for c in (re, 0, im, 0)]
    x[1] = cn * scale
    return QuadHermitian._of(x, scale * cd)


def _dist2(point, scale: int, corner: tuple[int, int], t, k: int) -> tuple[int, int]:
    """Exact squared Frobenius distance from ``_element(point, scale,
    corner)`` to the binary64 matrix ``t`` (integer pairs over 2**k), as
    integers (r, s) with d^2 = (r + s*sqrt2)/(scale*2^k*cd)^2: one integer
    sum of squares, and the corner in closed form, (a + c*sqrt2)^2 = a^2 +
    2c^2 + 2ac*sqrt2."""
    cn, cd = corner
    acc = 0
    for prow, trow in zip(point, t):
        for (x, y), (fr, fi) in zip(prow, trow):
            dr, di = (x << k) - fr * scale, (y << k) - fi * scale
            acc += dr * dr + di * di
    den = scale << k
    a = (point[0][0][0] << k) - t[0][0][0] * scale
    return acc * cd * cd + 2 * cn * cn * den * den, 2 * cn * a * den * cd


def make_suitable_near(targets, eps, allow_split: bool = False) -> PovmDecomposition:
    """An exactly suitable decomposition elementwise within eps of the
    targets.

    Targets are float Hermitian matrices summing approximately to the
    identity (each Hermitian and PSD, and the sum checked, to 1e-8).
    Already-suitable exact input (QuadHermitian elements) is returned
    unchanged; other exact input goes through its binary64 image.  One
    lattice construction at the scale L (module docstring), no rounds:
    delta*sqrt2 at entry (1,1) moves from a donor to the element with the
    largest (1,1) entry, the only TRUE one.  PSD, the exact sum and
    suitability are checked once; each element's distance is certified
    exactly against the caller's binary64 entries, and a miss raises
    ResourceLimitError carrying the worst ``achieved_dist2``.

    Without ``allow_split`` a decomposition that lacks two elements with
    positive (1,1) entries (for instance {I}) raises DegenerateInputError;
    with it, a fresh delta*sqrt2*E11 element is appended instead.
    """
    if isinstance(targets, PovmDecomposition):
        if is_suitable(targets):
            return targets
        targets = list(targets.elements)
    else:
        targets = list(targets)
    if all(isinstance(t, (QuadHermitian, PovmElement)) for t in targets):
        try:
            dec = PovmDecomposition(targets)
            if is_suitable(dec):
                return dec
        except InvalidInputError:
            pass
        # Exact but not already suitable: perturb through the float path.
        targets = [
            [[e.to_complex() for e in row]
             for row in (t.matrix if isinstance(t, PovmElement) else t).rows]
            for t in targets
        ]
    mats, ints, bits = _validate_povm_targets(targets)
    eps = _coerce_eps(eps)
    m = len(mats)
    n = len(mats[0])

    dev = max(
        math.sqrt(sum(abs(t[i][j] - (i == j) / m) ** 2
                      for i in range(n) for j in range(n)))
        for t in mats
    )
    # theta = tn/td = min(1/4, eps/r) and delta = theta/(8m) = tn/cd, on integers.
    (en, ed), r = (eps.numerator, eps.denominator), rationalize(4 * (dev + 1), 100)
    tn, td = en * r.denominator, ed * r.numerator
    if 4 * tn > td:
        tn, td = 1, 4
    scale = -(-4 * m * n * max(m * td * en, ed * tn) // (tn * en))
    points = [_lattice_point(t, (tn, td), m, scale, bits) for t in ints[:-1]]
    # The last element is I minus the others, so the sum is exact.
    points.append([
        [(scale * (i == j) - sum(p[i][j][0] for p in points),
          -sum(p[i][j][1] for p in points)) for j in range(n)]
        for i in range(n)
    ])

    a11s = [p[0][0][0] for p in points]
    order = sorted(range(m), key=lambda k: (-a11s[k], k))
    split = False
    recipient = order[0]
    donor = next((k for k in order[1:] if a11s[k] > 0), None)
    if a11s[recipient] <= 0 or donor is None:
        if not allow_split:
            raise DegenerateInputError(
                "no pair of elements with positive (1,1) margin; "
                "pass allow_split=True to append a fresh element"
            )
        if a11s[recipient] <= 0:
            raise DegenerateInputError(
                "no element with positive (1,1) entry to donate from"
            )
        split = True
        donor = recipient

    cd = 8 * m * td
    corners = [0] * m
    corners[donor] -= tn
    if split:
        # A fresh delta*sqrt2*E11 element, measured against a zero target.
        zero = [[(0, 0)] * n] * n
        points, ints, corners = [*points, zero], [*ints, zero], [*corners, tn]
    else:
        corners[recipient] += tn
    # Every d^2 is (r + s*sqrt2)/den over one den, so signs in Z[sqrt2] decide.
    dists = [_dist2(p, scale, (c, cd), t, bits) for p, c, t in zip(points, corners, ints)]
    worst = max(dists, key=cmp_to_key(lambda u, v: _sqrt2_sign(u[0] - v[0], u[1] - v[1])))
    den = ((scale << bits) * cd) ** 2
    if _sqrt2_sign(en * en * den - worst[0] * ed * ed, -worst[1] * ed * ed) < 0:
        text = format_fraction(eps)  # first, so an unprintable eps costs no gcd
        d2 = QuadRational(Fraction(worst[0], den), Fraction(worst[1], den))
        raise ResourceLimitError(
            f"no suitable decomposition within eps={text}: "
            f"the lattice point lies at d^2={format_fraction(d2)}",
            achieved_dist2=d2,
        )
    work = [_element(p, scale, (c, cd)) for p, c in zip(points, corners)]
    try:
        dec = PovmDecomposition(work)
    except InvalidInputError as exc:
        raise ResourceLimitError(
            f"no suitable decomposition within eps={format_fraction(eps)}: the "
            f"targets are not PSD (or do not sum to I) within the margin theta/m",
            achieved_dist2=QuadRational(Fraction(worst[0], den), Fraction(worst[1], den)),
        ) from exc
    if not is_suitable(dec):
        raise AssertionError("the lattice decomposition failed suitability")
    return dec
