"""Seeded input generators for the benchmark.

Standard library only.  Every generator draws from a ``random.Random`` that
the caller seeds from the workload seed, so one seed always gives the same
inputs.  Outputs are plain floats, complex floats, Fractions and ray-set
text: the program under test only ever sees these generated values.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction


def workload_rng(workload: str, seed: int) -> random.Random:
    """The random stream of one workload; string seeds hash deterministically."""
    return random.Random(f"{workload}:{seed}")


def unit_ray(rng: random.Random, n: int) -> list[float]:
    """A Gaussian-random unit vector of C^n as 2n interleaved reals."""
    while True:
        coords = [rng.gauss(0.0, 1.0) for _ in range(2 * n)]
        nrm = math.sqrt(math.fsum(x * x for x in coords))
        if nrm > 1e-3:
            return [x / nrm for x in coords]


def _orthonormal_complex(rng: random.Random, n: int) -> list[list[complex]]:
    basis: list[list[complex]] = []
    while len(basis) < n:
        raw = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(n)]
        for _ in range(2):  # re-orthogonalize once to keep the float Gram error tiny
            for u in basis:
                ip = sum(a.conjugate() * b for a, b in zip(u, raw))
                raw = [b - ip * a for a, b in zip(u, raw)]
        nrm = math.sqrt(sum(abs(x) ** 2 for x in raw))
        if nrm > 1e-3:
            basis.append([x / nrm for x in raw])
    return basis


def orthonormal_frame(rng: random.Random, n: int) -> list[list[float]]:
    """n orthonormal vectors of C^n (float Gram-Schmidt), each as 2n reals."""
    return [
        [part for z in v for part in (z.real, z.imag)]
        for v in _orthonormal_complex(rng, n)
    ]


def blended_povm(rng: random.Random, n: int, m: int) -> list[list[list[complex]]]:
    """m float n-by-n POVM elements summing to the identity.

    The projectors of a random orthonormal basis are dealt round-robin into m
    groups, and every group is blended toward I/m by a random weight in
    [0.1, 0.9], which keeps each element strictly positive.
    """
    basis = _orthonormal_complex(rng, n)
    order = list(range(n))
    rng.shuffle(order)
    groups: list[list[int]] = [[] for _ in range(m)]
    for pos, k in enumerate(order):
        groups[pos % m].append(k)
    blend = 0.1 + 0.8 * rng.random()
    mats = []
    for grp in groups:
        mat = [[0j] * n for _ in range(n)]
        for k in grp:
            v = basis[k]
            for i in range(n):
                for j in range(n):
                    mat[i][j] += v[i] * v[j].conjugate()
        for i in range(n):
            for j in range(n):
                mat[i][j] *= 1.0 - blend
            mat[i][i] += blend / m
        mats.append(mat)
    return mats


# Exact Q(sqrt2) values are (rat, sqrt2) pairs of Fractions; complex entries
# are (re, im) pairs of those.

def _small_fraction(rng: random.Random, lo: Fraction, hi: Fraction, den: int) -> Fraction:
    return lo + (hi - lo) * Fraction(rng.randint(1, den - 1), den)


def quad_element(rng: random.Random, n: int, kind: str) -> list[list[tuple]]:
    """An exact n-by-n POVM element a*P + b*I with entries in Q(sqrt2)+iQ(sqrt2).

    P is the projector onto a random Gaussian-integer vector and a, b are
    positive elements of Q(sqrt2) with a + b < 1, so both the element and its
    complement are PSD.  ``kind`` steers the truth value: ``"true"`` makes
    the sqrt2 part of the (1,1) entry positive, ``"false"`` negative,
    ``"rational"`` zero, and ``"edge"`` returns diag(1, b, ..., b), whose
    complement has a zero (1,1) entry and so admits no witness.
    """
    b = (_small_fraction(rng, Fraction(1, 10), Fraction(1, 4), 17), Fraction(0))
    if kind == "edge":
        return [
            [
                ((Fraction(1) if i == 0 else b[0], Fraction(0)), (Fraction(0), Fraction(0)))
                if i == j
                else ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
                for j in range(n)
            ]
            for i in range(n)
        ]
    s2_mag = _small_fraction(rng, Fraction(1, 40), Fraction(1, 8), 13)
    s2 = {"true": s2_mag, "false": -s2_mag, "rational": Fraction(0)}[kind]
    # a = a_rat + s2*sqrt2 stays within (0.1, 0.6) because |s2| * sqrt2 < 0.18.
    a = (_small_fraction(rng, Fraction(3, 10), Fraction(2, 5), 11), s2)
    while True:
        v = [complex(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
        if v[0] != 0:  # a nonzero first coordinate keeps a's sqrt2 part in a11
            break
    nv = int(sum(abs(x) ** 2 for x in v))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            z = v[i] * v[j].conjugate()
            pre, pim = Fraction(int(z.real), nv), Fraction(int(z.imag), nv)
            re = (a[0] * pre, a[1] * pre)
            im = (a[0] * pim, a[1] * pim)
            if i == j:
                re = (re[0] + b[0], re[1] + b[1])
            row.append((re, im))
        rows.append(row)
    return rows


def rational_ray(rng: random.Random, n: int, true_pattern: bool) -> list[Fraction]:
    """2n exact nonzero rational coordinates.

    With ``true_pattern`` the first coordinate has a denominator divisible by
    3 and the others have numerators and denominators prime to 3, the shape
    of a TRUE representative; otherwise the denominators are random.
    """
    def prime_to_3(lo: int, hi: int) -> int:
        while True:
            x = rng.randint(lo, hi)
            if x % 3:
                return x

    out = []
    for k in range(2 * n):
        num = prime_to_3(1, 40) * rng.choice((1, -1))
        if true_pattern:
            den = 3 * prime_to_3(1, 20) if k == 0 else prime_to_3(1, 40)
        else:
            den = rng.randint(1, 60)
        out.append(Fraction(num, den))
    return out


def exact_suitable_frame(rng: random.Random, n: int) -> list[list[tuple]]:
    """An exactly orthogonal frame over Q(i) whose first leg is TRUE.

    Leg 1 is a TRUE-pattern vector; legs 2..n are exact Gram-Schmidt of
    random Gaussian-integer vectors against it, so no other leg can be TRUE.
    Entries are (re, im) Fraction pairs.
    """
    def cmul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def conj(x):
        return (x[0], -x[1])

    def inner(u, v):
        re = im = Fraction(0)
        for a, b in zip(u, v):
            p = cmul(conj(a), b)
            re += p[0]
            im += p[1]
        return (re, im)

    first = rational_ray(rng, n, True)
    vecs = [[(first[2 * k], first[2 * k + 1]) for k in range(n)]]
    while len(vecs) < n:
        w = [(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))) for _ in range(n)]
        for u in vecs:
            ip = inner(u, w)
            n2 = inner(u, u)[0]
            coef = (ip[0] / n2, ip[1] / n2)
            w = [(wb[0] - cu[0], wb[1] - cu[1]) for wb, cu in zip(w, (cmul(coef, ua) for ua in u))]
        if any(x != (0, 0) for x in w):
            vecs.append(w)
    return vecs


def exact_suitable_povm(rng: random.Random, n: int) -> list[list[list[tuple]]]:
    """Three exact elements {delta*sqrt2*E11, s*P, I - both} summing to I.

    P is a rational rank-1 projector, s in [1/4, 3/4] and delta <= 1/8, so
    the last element stays PSD and exactly the first element is TRUE.
    Entries use the (re, im) pairs of (rat, sqrt2) pairs of ``quad_element``.
    """
    zero = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
    delta = _small_fraction(rng, Fraction(1, 50), Fraction(1, 8), 7)
    s = _small_fraction(rng, Fraction(1, 4), Fraction(3, 4), 9)
    while True:
        v = [complex(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
        if any(v):
            break
    nv = int(sum(abs(x) ** 2 for x in v))
    e1 = [[zero] * n for _ in range(n)]
    e1[0][0] = ((Fraction(0), delta), (Fraction(0), Fraction(0)))
    e2, e3 = [], []
    for i in range(n):
        r2, r3 = [], []
        for j in range(n):
            z = v[i] * v[j].conjugate()
            pre, pim = s * Fraction(int(z.real), nv), s * Fraction(int(z.imag), nv)
            r2.append(((pre, Fraction(0)), (pim, Fraction(0))))
            re3 = (Fraction(1 if i == j else 0) - pre, -delta if i == j == 0 else Fraction(0))
            r3.append((re3, (-pim, Fraction(0))))
        e2.append(r2)
        e3.append(r3)
    return [e1, e2, e3]


def sub_ray_set(rng: random.Random, contexts: list[tuple], cap: int) -> list[int]:
    """Sorted ray indices of a union of random contexts, at most ``cap`` rays.

    Unions of whole contexts keep the sub-instance constrained (a random
    subset of rays would rarely contain a full context).
    """
    chosen: set[int] = set()
    for ctx in rng.sample(contexts, len(contexts)):
        if len(chosen | set(ctx)) <= cap:
            chosen |= set(ctx)
    return sorted(chosen)


def zero_pm1_rays() -> list[tuple[int, ...]]:
    """The 40 rays of {0,+-1}^4 with a positive first nonzero entry, in
    lexicographic order of (0, 1, -1) digits: 220 orthogonal pairs, 32
    contexts, no KS coloring.

    Unlike the other generators this one takes no seed: the time of a failing
    perturbation of this set depends on the ray order (1.8 to 2.3 s over four
    shuffles), and a fixed order keeps that cost out of the seed-to-seed
    spread.  The seed still picks the sub-instances drawn from the set.
    """
    return [
        v
        for v in itertools.product((0, 1, -1), repeat=4)
        if any(v) and next(x for x in v if x) > 0
    ]


def zero_pm1_text(rays: list[tuple[int, ...]], contexts: int, pairs: int) -> str:
    """Ray-set file text for integer rays, with self-check headers."""
    lines = ["rayset v1", "dimension 4", "field rational",
             f"contexts {contexts}", f"pairs {pairs}"]
    for v in rays:
        label = "_".join(str(x) for x in v)
        lines.append(f"ray {label} " + " ".join(str(x) for x in v))
    return "\n".join(lines) + "\n"
