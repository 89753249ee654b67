"""Exact verifiers for every benchmarked operation, and coefficient accounting.

Each ``check_*`` function raises ``VerifyError`` when a result is wrong.  The
checks are stronger than the library's own self-reports: distances are
recomputed against the caller's exact binary64 input (``Fraction(x)`` of each
float), trueness is recomputed from 3-adic valuations, orthogonality from
exact inner products, and ray-set graphs from an independent construction.
Arithmetic here runs on plain Fractions; a Q(sqrt2) number is a pair
``(a, b)`` meaning a + b*sqrt2, and a complex number is a pair of those (or of
Fractions, for Gaussian rationals).  The only library functions called are
``truth_sum``, ``psd_check``, ``is_valid_coloring`` and
``brute_force_coloring``, each an algorithm independent of the code whose
result it checks.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)


class VerifyError(AssertionError):
    """A benchmarked operation returned a result that is not correct."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise VerifyError(message)


# ---------------------------------------------------------------------------
# scalar helpers


def v3(x: Fraction) -> int:
    """3-adic valuation of a nonzero rational."""
    v = 0
    n, d = abs(x.numerator), x.denominator
    while n % 3 == 0:
        n //= 3
        v += 1
    while d % 3 == 0:
        d //= 3
        v -= 1
    return v


def is_true_coords(coords) -> bool:
    """The TRUE pattern: all nonzero, v3(first) <= -1, v3(rest) >= 0."""
    if any(c == 0 for c in coords):
        return False
    return v3(coords[0]) <= -1 and all(v3(c) >= 0 for c in coords[1:])


def quad_sign(a: Fraction, b: Fraction) -> int:
    """Exact sign of a + b*sqrt2."""
    if b == 0 or a == 0:
        x = a if b == 0 else b
        return (x > 0) - (x < 0)
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    return (1 if a > 0 else -1) if a * a > 2 * b * b else (1 if b > 0 else -1)


def qmul(x, y):
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def qadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def qsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


# ---------------------------------------------------------------------------
# vectors over Q(i): lists of (re, im) Fraction pairs


def gvec(v) -> list[tuple[Fraction, Fraction]]:
    """Entries of a library GVector as (re, im) pairs."""
    return [(e.re, e.im) for e in v]


def reals_to_pairs(coords) -> list[tuple[Fraction, Fraction]]:
    """2n interleaved floats (or Fractions) as exact (re, im) pairs."""
    c = [Fraction(x) for x in coords]
    return [(c[2 * k], c[2 * k + 1]) for k in range(len(c) // 2)]


def ginner(u, v) -> tuple[Fraction, Fraction]:
    """<u, v>, conjugate-linear in u."""
    re = im = ZERO
    for (a, b), (c, d) in zip(u, v):
        re += a * c + b * d
        im += a * d - b * c
    return re, im


def gnorm2(u) -> Fraction:
    return sum((a * a + b * b for a, b in u), ZERO)


def ray_dist2(u, v) -> Fraction:
    """Squared Frobenius distance between the projectors onto u and v."""
    re, im = ginner(u, v)
    return 2 * (1 - (re * re + im * im) / (gnorm2(u) * gnorm2(v)))


def proportional(u, v) -> bool:
    """Whether u and v span the same ray (all 2x2 minors vanish)."""
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            (a, b), (c, d) = u[i], v[j]
            (e, f), (g, h) = u[j], v[i]
            if a * c - b * d != e * g - f * h or a * d + b * c != e * h + f * g:
                return False
    return True


def check_frame_legs(legs, n: int) -> int:
    """Pairwise exact orthogonality and exactly one TRUE leg; returns its index."""
    require(len(legs) == n, f"frame has {len(legs)} legs, want {n}")
    for leg in legs:
        require(len(leg) == n, "frame leg has the wrong length")
        require(any(x != (0, 0) for x in leg), "frame leg is zero")
    for i in range(n):
        for j in range(i + 1, n):
            require(ginner(legs[i], legs[j]) == (0, 0), f"legs {i} and {j} are not orthogonal")
    trues = [k for k, leg in enumerate(legs) if is_true_coords([c for e in leg for c in e])]
    require(len(trues) == 1, f"frame has {len(trues)} TRUE legs, want exactly 1")
    return trues[0]


def check_certificate(values, legs, true_leg: int) -> None:
    want = ["TRUE" if k == true_leg else "FALSE" for k in range(len(legs))]
    require([str(v) for v in values] == want, f"certificate {values} does not match legs")


# ---------------------------------------------------------------------------
# density constructions; each returns the worst achieved d^2/eps^2 as a float


def check_true_ray(vector, value, target, eps: Fraction) -> float:
    coords = [c for e in gvec(vector) for c in e]
    require(len(coords) == len(target), "result has the wrong dimension")
    require(is_true_coords(coords), "result vector is not a TRUE representative")
    require(str(value) == "TRUE", f"certificate is {value}, want TRUE")
    d2 = ray_dist2(gvec(vector), reals_to_pairs(target))
    require(d2 <= eps * eps, f"d^2={float(d2):.3g} exceeds eps^2={float(eps * eps):.3g}")
    return float(d2 / (eps * eps))


def check_false_ray(vector, value, witness, target, eps: Fraction, truth_sum) -> float:
    u = gvec(vector)
    require(len(u) * 2 == len(target), "result has the wrong dimension")
    require(not is_true_coords([c for e in u for c in e]), "FALSE ray classifies TRUE")
    require(str(value) == "FALSE", f"certificate is {value}, want FALSE")
    legs = [gvec(leg) for leg in witness]
    true_leg = check_frame_legs(legs, len(u))
    require(truth_sum(witness) == 1, "witness truth_sum != 1")
    pos = [k for k, leg in enumerate(legs) if leg == u]
    require(pos and true_leg not in pos, "the FALSE ray is not a non-TRUE leg of its witness")
    d2 = ray_dist2(u, reals_to_pairs(target))
    require(d2 <= eps * eps, f"d^2={float(d2):.3g} exceeds eps^2")
    return float(d2 / (eps * eps))


def check_frame(frame, values, targets, eps: Fraction, truth_sum) -> float:
    legs = [gvec(leg) for leg in frame]
    true_leg = check_frame_legs(legs, len(targets))
    require(truth_sum(frame) == 1, "frame truth_sum != 1")
    check_certificate(values, legs, true_leg)
    worst = max(ray_dist2(leg, reals_to_pairs(t)) for leg, t in zip(legs, targets))
    require(worst <= eps * eps, f"leg d^2={float(worst):.3g} exceeds eps^2")
    return float(worst / (eps * eps))


# ---------------------------------------------------------------------------
# POVMs; a Q(sqrt2)-complex entry is ((re_rat, re_s2), (im_rat, im_s2))


def qc_entry(e):
    return ((e.re.rat, e.re.sqrt2), (e.im.rat, e.im.sqrt2))


def qherm(m) -> list[list[tuple]]:
    """Entries of a library QuadHermitian as nested pairs."""
    return [[qc_entry(m.entry(i, j)) for j in range(m.n)] for i in range(m.n)]


def _check_decomposition(elements, n: int, psd_check) -> list[list[list[tuple]]]:
    """Exact sum to I, psd_check on every element, exactly one TRUE element."""
    mats = [qherm(e.matrix) for e in elements]
    require(all(len(m) == n for m in mats), "element has the wrong size")
    for i in range(n):
        for j in range(n):
            total = ((ZERO, ZERO), (ZERO, ZERO))
            for m in mats:
                total = (qadd(total[0], m[i][j][0]), qadd(total[1], m[i][j][1]))
            want = ((Fraction(int(i == j)), ZERO), (ZERO, ZERO))
            require(total == want, f"elements do not sum to I at ({i}, {j})")
    require(all(psd_check(e.matrix) for e in elements), "an element fails psd_check")
    n_true = sum(1 for m in mats if m[0][0][0][1] > 0)
    require(n_true == 1, f"{n_true} TRUE elements, want exactly 1")
    return mats


def check_povm(dec, targets, eps: Fraction, psd_check) -> None:
    """A suitable decomposition elementwise within eps of float targets."""
    n = len(targets[0])
    require(len(dec.elements) == len(targets), "element count changed")
    mats = _check_decomposition(dec.elements, n, psd_check)
    e2 = eps * eps
    for m, t in zip(mats, targets):
        acc = (ZERO, ZERO)
        for i in range(n):
            for j in range(n):
                (ra, rb), (ia, ib) = m[i][j]
                z = complex(t[i][j])
                da, db = ra - Fraction(z.real), ia - Fraction(z.imag)
                # |(da + rb s2) + i(db + ib s2)|^2 as a Q(sqrt2) number
                acc = qadd(acc, (da * da + 2 * rb * rb + db * db + 2 * ib * ib,
                                 2 * (da * rb + db * ib)))
        require(quad_sign(e2 - acc[0], -acc[1]) >= 0, "element is farther than eps")


def check_witness(element, value, witness, psd_check) -> None:
    """classify_with_witness: TRUE, FALSE with a suitable witness, or no witness."""
    n = len(element)
    a11 = element[0][0][0]
    if a11[1] > 0:
        require(str(value) == "TRUE" and witness is None, f"TRUE element reported {value}")
        return
    if str(value) == "FALSE":
        require(witness is not None, "FALSE without a witness")
        mats = _check_decomposition(witness.elements, n, psd_check)
        require(element in mats, "witness does not contain the element")
        return
    require(str(value) == "UNDETERMINED-NO-WITNESS" and witness is None,
            f"unexpected verdict {value}")
    # No witness exists exactly when I - A has a zero (1,1) entry or is not PSD;
    # the generators only build the zero-entry case.
    require(a11 == (1, 0), "no-witness verdict but I - A has a nonzero (1,1) entry")


# ---------------------------------------------------------------------------
# ray sets and Kochen-Specker checks


def cq_inner(u, v):
    """<u, v> for vectors with Q(sqrt2)-complex entries."""
    re = im = (ZERO, ZERO)
    for (a, b), (c, d) in zip(u, v):
        re = qadd(re, qadd(qmul(a, c), qmul(b, d)))
        im = qadd(im, qsub(qmul(a, d), qmul(b, c)))
    return re, im


def rayset_rows(rs) -> list[list[tuple]]:
    """Rays of a library RaySet as Q(sqrt2)-complex pairs."""
    return [[qc_entry(e) for e in ray] for ray in rs.rays]


class RefGraph:
    """Orthogonality graph built independently of ``kscheck.build_graph``."""

    def __init__(self, rows, dimension: int):
        self.dimension = dimension
        self.n = len(rows)
        self.nbr = [set() for _ in rows]
        zero = ((ZERO, ZERO), (ZERO, ZERO))
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if cq_inner(rows[i], rows[j]) == zero:
                    self.nbr[i].add(j)
                    self.nbr[j].add(i)
        self._finish()

    @classmethod
    def restricted(cls, parent: "RefGraph", idx: list[int]) -> "RefGraph":
        g = cls.__new__(cls)
        pos = {r: k for k, r in enumerate(idx)}
        g.dimension, g.n = parent.dimension, len(idx)
        g.nbr = [{pos[j] for j in parent.nbr[r] if j in pos} for r in idx]
        g._finish()
        return g

    def _finish(self) -> None:
        self.pairs = tuple(sorted((i, j) for i in range(self.n) for j in self.nbr[i] if i < j))
        found = []

        def grow(clique, cands):
            if len(clique) == self.dimension:
                found.append(tuple(clique))
                return
            for c in sorted(cands):
                grow(clique + [c], {x for x in cands if x > c and x in self.nbr[c]})

        for i in range(self.n):
            grow([i], {j for j in self.nbr[i] if j > i})
        self.contexts = tuple(sorted(found))
        self._colorable = None

    def colorable(self) -> bool:
        """Own exhaustive search: pick an uncovered context, try each free ray."""
        if self._colorable is None:
            self._colorable = self._search({}) is not None
        return self._colorable

    def _search(self, state: dict):
        for ctx in self.contexts:
            ones = [r for r in ctx if state.get(r) == 1]
            if len(ones) > 1:
                return None
            if not ones:
                break
        else:
            return state
        for r in ctx:
            if state.get(r) == 0:
                continue
            if any(state.get(j) == 1 for j in self.nbr[r]):
                continue
            child = dict(state)
            child[r] = 1
            for j in self.nbr[r]:
                child[j] = 0
            if self._search(child) is not None:
                return child
        return None


def check_graph(g, ref: RefGraph) -> None:
    require(g.num_rays == ref.n, "graph has the wrong number of rays")
    require(tuple(g.pairs) == ref.pairs, "orthogonal pairs differ from the reference")
    require(tuple(g.contexts) == ref.contexts, "contexts differ from the reference")


def check_loaded(rs, rows, labels) -> None:
    """A loaded RaySet holds exactly the expected rays and labels."""
    require(list(rs.labels) == list(labels), "loaded labels differ")
    require(rayset_rows(rs) == rows, "loaded rays differ")


def check_solve(g, coloring, ref: RefGraph, is_valid_coloring, brute_force=None) -> None:
    """Graph equal to the reference; SAT answers valid; verdict cross-checked."""
    check_graph(g, ref)
    if coloring is None:
        require(not ref.colorable(), "UNSAT reported for a colorable set")
    else:
        require(is_valid_coloring(g, coloring), "coloring fails is_valid_coloring")
        values = [coloring[i] for i in range(ref.n)]
        for i, j in ref.pairs:
            require(not (values[i] and values[j]), "two orthogonal rays both colored 1")
        for ctx in ref.contexts:
            require(sum(values[i] for i in ctx) == 1, "a context does not hold exactly one 1")
    if brute_force is not None:
        require((brute_force(g) is None) == (coloring is None),
                "solver and brute force disagree")


def check_perturbation(report, rows, ref: RefGraph, eps: Fraction) -> None:
    """Every context becomes a suitable frame within eps of its exact rays,
    and every shared ray gets pairwise distinct copies."""
    require(report.all_suitable, "report says not all contexts are suitable")
    require(report.all_shared_diverge, "report says some shared rays coincide")
    require(len(report.contexts) == len(ref.contexts), "context count differs")
    legs_of = {}
    keep = 1 - eps * eps / 2
    for c, ctx in zip(report.contexts, ref.contexts):
        require(tuple(c.ray_indices) == ctx, "context rays differ from the reference")
        legs = [gvec(leg) for leg in c.frame]
        check_frame_legs(legs, ref.dimension)
        for pos, (leg, r) in enumerate(zip(legs, ctx)):
            # d^2 <= eps^2  <=>  |<leg, ray>|^2 >= (1 - eps^2/2) |leg|^2 |ray|^2
            lq = [((a, ZERO), (b, ZERO)) for a, b in leg]
            re, im = cq_inner(lq, rows[r])
            ip2 = qadd(qmul(re, re), qmul(im, im))
            rn = cq_inner(rows[r], rows[r])[0]
            rhs = qmul((keep * gnorm2(leg), ZERO), rn)
            diff = qsub(ip2, rhs)
            require(quad_sign(*diff) >= 0, f"context {c.index} leg {pos} is farther than eps")
            legs_of.setdefault(r, []).append(leg)
    for r, copies in legs_of.items():
        for i in range(len(copies)):
            for j in range(i + 1, len(copies)):
                require(not proportional(copies[i], copies[j]), f"shared ray {r} copies coincide")


# ---------------------------------------------------------------------------
# coefficient accounting


def coeff_heights(obj, out: list[int]) -> list[int]:
    """Append max(numerator bits, denominator bits) of every exact rational
    component found in obj: Fractions, ints, Q(sqrt2) and complex scalars,
    vectors, frames, matrices, POVMs, containers, and exact strings such as
    "p/q" taken from CLI output."""
    if isinstance(obj, bool) or obj is None:
        return out
    if isinstance(obj, (Fraction, int)):
        out.append(max(abs(obj.numerator).bit_length(), obj.denominator.bit_length()))
    elif isinstance(obj, str):
        try:
            coeff_heights(Fraction(obj), out)
        except (ValueError, ZeroDivisionError):
            pass
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            coeff_heights(x, out)
    elif isinstance(obj, dict):
        for x in obj.values():
            coeff_heights(x, out)
    elif hasattr(obj, "sqrt2"):  # QuadRational
        coeff_heights(obj.rat, out)
        coeff_heights(obj.sqrt2, out)
    elif hasattr(obj, "re"):  # GaussianRational, QuadComplex
        coeff_heights(obj.re, out)
        coeff_heights(obj.im, out)
    else:
        for attr in ("entries", "legs", "rows", "matrix", "elements"):
            if hasattr(obj, attr):
                coeff_heights(getattr(obj, attr), out)
                break
    return out
