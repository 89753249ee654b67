"""Truth-value coloring of positive operators and POVM decompositions.

Elements carry exact Q(sqrt2)-complex entries.  An element is TRUE when the
sqrt2-component of its (1,1) entry is strictly positive; a decomposition
(elements summing exactly to the identity) is suitable when precisely one
element is TRUE.  ``make_suitable_near`` perturbs an arbitrary float POVM
into an exactly suitable one within a prescribed distance, and
``classify_with_witness`` decides falsity by exhibiting a suitable
decomposition containing the element whenever one exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .coloring import TruthValue
from .errors import (
    DegenerateInputError,
    InvalidInputError,
    NotApplicableError,
    ResourceLimitError,
)
from .fields import QuadComplex, QuadRational, rationalize
from .linalg import QuadHermitian, frob_dist2, psd_check

_MAX_ROUNDS = 40


class PovmElement:
    """A positive semidefinite QuadHermitian matrix, verified exactly."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: QuadHermitian):
        if not isinstance(matrix, QuadHermitian):
            matrix = QuadHermitian(matrix)
        if not psd_check(matrix):
            raise InvalidInputError("POVM element is not positive semidefinite")
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("PovmElement is immutable")

    @property
    def n(self) -> int:
        return self.matrix.n

    def a11(self) -> QuadRational:
        """The truth-relevant (1,1) entry; real by Hermiticity."""
        return self.matrix.entry(0, 0).re

    def __eq__(self, other):
        if not isinstance(other, PovmElement):
            return NotImplemented
        return self.matrix == other.matrix

    def __repr__(self):
        return f"PovmElement({self.matrix!r})"


class PovmDecomposition:
    """A list of PovmElements summing exactly to the identity."""

    __slots__ = ("elements",)

    def __init__(self, elements: Sequence):
        elems = tuple(
            e if isinstance(e, PovmElement) else PovmElement(e) for e in elements
        )
        if not elems:
            raise InvalidInputError("a decomposition needs at least one element")
        n = elems[0].n
        if any(e.n != n for e in elems):
            raise InvalidInputError("decomposition elements must share one dimension")
        total = QuadHermitian.zeros(n)
        for e in elems:
            total = total + e.matrix
        if total != QuadHermitian.identity(n):
            raise InvalidInputError("elements do not sum exactly to the identity")
        object.__setattr__(self, "elements", elems)

    def __setattr__(self, name, value):
        raise AttributeError("PovmDecomposition is immutable")

    @property
    def n(self) -> int:
        return self.elements[0].n

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, k):
        return self.elements[k]

    def __eq__(self, other):
        if not isinstance(other, PovmDecomposition):
            return NotImplemented
        return self.elements == other.elements

    def __repr__(self):
        return f"PovmDecomposition({list(self.elements)!r})"


def classify_element(a: PovmElement) -> TruthValue:
    """TRUE iff the sqrt2-component of a11 is strictly positive.

    Non-TRUE elements are candidate-FALSE; classify_with_witness settles
    whether a suitable decomposition actually contains them.
    """
    if not isinstance(a, PovmElement):
        a = PovmElement(a)
    if a.a11().sqrt2 > 0:
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


def _e11_slice(n: int, value: QuadRational) -> QuadHermitian:
    rows = [[QuadComplex(0)] * n for _ in range(n)]
    rows[0][0] = QuadComplex(value)
    return QuadHermitian(rows)


def _sqrt2_under_convergents():
    # Lower convergents of sqrt(2): 1/1, 7/5, 41/29, ... each a strict
    # under-approximation, converging linearly.
    a, b = 1, 1
    while True:
        yield Fraction(a, b)
        a, b = 3 * a + 4 * b, 2 * a + 3 * b


def classify_with_witness(
    a: PovmElement,
) -> tuple[TruthValue, Optional[PovmDecomposition]]:
    """Settle the truth value of an element, producing a witness for FALSE.

    A non-TRUE element is FALSE exactly when some suitable decomposition
    contains it, which happens iff I - A is PSD with a strictly positive
    (1,1) entry: then the complement splits as lam*(I-A) + (1-lam)*(I-A)
    with lam in Q(sqrt2) chosen to make exactly one part TRUE.  The slice
    candidate {A, delta*sqrt2*E11, I - A - delta*sqrt2*E11} is tried first
    since it usually yields a simpler witness.  When the (1,1) entry of
    I - A is zero (or I - A is not PSD), every PSD complement is forced to
    a zero (1,1) entry, no element of it can be TRUE, and the result is
    UNDETERMINED-NO-WITNESS.
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

    # Slice candidate with geometric delta search.
    delta = Fraction(rationalize(mu.to_float() / 3, 10 ** 6))
    for _ in range(_MAX_ROUNDS):
        if delta <= 0:
            break
        third = complement - _e11_slice(n, QuadRational(0, delta))
        if psd_check(third):
            cand = [
                a.matrix,
                _e11_slice(n, QuadRational(0, delta)),
                third,
            ]
            n_true = sum(
                1
                for m in cand
                if m.entry(0, 0).re.sqrt2 > 0
            )
            if n_true == 1:
                return TruthValue.FALSE, PovmDecomposition(cand)
        delta = delta / 2

    # Scaled-complement fallback: lam*mu = x + y*sqrt2 with y exceeding the
    # sqrt2-component of mu (so the remainder cannot be TRUE) and x a
    # rational making 0 < lam*mu < mu.
    y = max(mu.sqrt2, Fraction(0)) + 1
    lam_mu = None
    for under in _sqrt2_under_convergents():
        cand = QuadRational(-y * under, y)  # y*(sqrt2 - under) > 0
        if (mu - cand).sign() > 0:
            lam_mu = cand
            break
        if under.denominator > 10 ** 400:
            break
    if lam_mu is None:
        raise ResourceLimitError("could not place the scaled complement below mu")
    lam = lam_mu / mu
    part_true = complement.scaled(lam)
    part_rest = complement.scaled(QuadRational(1) - lam)
    witness = PovmDecomposition([a.matrix, part_true, part_rest])
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


def _float_psd_within(rows: list[list[complex]], tol: float) -> bool:
    # Exact PSD test of the symmetrized rationalization shifted by tol.
    n = len(rows)
    scale = max(1.0, max(abs(e) for r in rows for e in r))
    shift = Fraction(rationalize(tol * scale * 2, 10 ** 12))
    quad = _rationalize_hermitian(rows, 10 ** 12)
    shifted = quad + QuadHermitian.identity(n).scaled(QuadRational(shift))
    return psd_check(shifted)


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


def _validate_povm_targets(targets) -> list[list[list[complex]]]:
    mats = [_as_complex_matrix(t, f"target {k}") for k, t in enumerate(targets)]
    if not mats:
        raise InvalidInputError("at least one target matrix is required")
    n = len(mats[0])
    if n < 1 or any(len(m) != n for m in mats):
        raise InvalidInputError("all target matrices must share one dimension")
    for k, m in enumerate(mats):
        for i in range(n):
            for j in range(n):
                if abs(m[i][j] - m[j][i].conjugate()) > 1e-8:
                    raise InvalidInputError(f"target {k} is not Hermitian to 1e-8")
        if not _float_psd_within(m, 1e-8):
            raise InvalidInputError(f"target {k} is not PSD to 1e-8")
    for i in range(n):
        for j in range(n):
            s = sum(m[i][j] for m in mats)
            want = 1.0 if i == j else 0.0
            if abs(s - want) > 1e-8:
                raise InvalidInputError("targets do not sum to the identity to 1e-8")
    return mats


def _try_exact_passthrough(targets) -> Optional[PovmDecomposition]:
    if not all(isinstance(t, (QuadHermitian, PovmElement)) for t in targets):
        return None
    try:
        d = PovmDecomposition(
            [t if isinstance(t, PovmElement) else PovmElement(t) for t in targets]
        )
    except InvalidInputError:
        return None
    if is_suitable(d):
        return d
    return None


def make_suitable_near(targets, eps, allow_split: bool = False) -> PovmDecomposition:
    """An exactly suitable decomposition elementwise within eps of the
    targets.

    Targets are float Hermitian matrices summing approximately to the
    identity (each PSD and the sum checked to 1e-8).  Already-suitable exact
    input (QuadHermitian elements) is returned unchanged.  The construction
    blends each target toward I/m to create a PSD margin, rationalizes,
    repairs the sum through the last element, then moves delta*sqrt2 at
    entry (1,1) from a margin-positive donor to the element with the largest
    (1,1) entry, verifying PSD, suitability, and distances exactly.

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
    passthrough = _try_exact_passthrough(targets)
    if passthrough is not None:
        return passthrough
    if all(isinstance(t, (QuadHermitian, PovmElement)) for t in targets):
        # Exact but not already suitable: perturb through the float path.
        targets = [
            [
                [
                    (t.matrix if isinstance(t, PovmElement) else t)
                    .entry(i, j)
                    .to_complex()
                    for j in range(t.n)
                ]
                for i in range(t.n)
            ]
            for t in targets
        ]
    mats = _validate_povm_targets(targets)
    eps = Fraction(eps)
    if eps <= 0:
        raise InvalidInputError("eps must be positive")
    m = len(mats)
    n = len(mats[0])
    eps2 = QuadRational(eps * eps)

    dev = 0.0
    for k, mat in enumerate(mats):
        acc = 0.0
        for i in range(n):
            for j in range(n):
                want = (1.0 / m) if i == j else 0.0
                acc += abs(mat[i][j] - want) ** 2
        dev = max(dev, math.sqrt(acc))
    theta0 = min(Fraction(1, 4), eps / Fraction(rationalize(4 * (dev + 1), 100)))

    for round_no in range(_MAX_ROUNDS):
        theta = theta0 / (2 ** round_no)
        max_den = max(
            math.ceil(16 * m * m * n / theta),
            math.ceil(Fraction(8 * m * n) / eps),
        )
        refs = [_rationalize_hermitian(mat, max_den) for mat in mats]
        blended = []
        for mat in mats:
            b = [
                [
                    (1 - float(theta)) * mat[i][j]
                    + (float(theta) / m if i == j else 0.0)
                    for j in range(n)
                ]
                for i in range(n)
            ]
            blended.append(_rationalize_hermitian(b, max_den))
        total = QuadHermitian.zeros(n)
        for b in blended[:-1]:
            total = total + b
        blended[-1] = QuadHermitian.identity(n) - total

        a11s = [b.entry(0, 0).re.rat for b in blended]
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

        delta = min(theta / (8 * m), Fraction(a11s[donor]) / 8)
        for _ in range(12):
            if delta <= 0:
                break
            bump = _e11_slice(n, QuadRational(0, delta))
            work = list(blended)
            work[donor] = work[donor] - bump
            if split:
                work.append(bump)
            else:
                work[recipient] = work[recipient] + bump
            if all(psd_check(w) for w in work):
                try:
                    cand = PovmDecomposition(work)
                except InvalidInputError:
                    break
                if not is_suitable(cand):
                    break
                dists = [
                    frob_dist2(w, r) for w, r in zip(work[: len(refs)], refs)
                ]
                if split:
                    dists.append(frob_dist2(work[-1], QuadHermitian.zeros(n)))
                if all((eps2 - d).sign() >= 0 for d in dists):
                    return cand
                break
            delta = delta / 2
    raise ResourceLimitError(
        f"no suitable decomposition within eps={eps} after {_MAX_ROUNDS} rounds"
    )


def sqrt2_balance(d: PovmDecomposition) -> Fraction:
    """Sum of the sqrt2-components of the (1,1) entries; exactly zero for
    every decomposition since the entries sum to 1."""
    total = Fraction(0)
    for e in d:
        total += e.a11().sqrt2
    return total
