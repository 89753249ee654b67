"""Kochen-Specker machinery: exact orthogonality graphs, coloring search,
and the finite-precision nullification demonstration.

Ray sets live over Q(sqrt2) + i*Q(sqrt2) so classic constructions with
sqrt(2) coordinates stay exact.  A context is a maximal set of mutually
orthogonal rays of size equal to the dimension; a coloring assigns 0/1 to
rays so that no two orthogonal rays are both 1 and every context holds
exactly one 1.  A ``RaySet`` stores each ray only as integers: its 4n
rational coefficients over one denominator in lowest terms, cleared once,
when the set is parsed or constructed.  ``build_graph`` reads those
integers on the slots the set uses, clearing nothing, tests each pair with
up to four integer sums, stopping at the first nonzero one, and finds the
contexts by clique extension over neighbor bitmasks.  ``find_ks_coloring``
decides colorability by backtracking with unit propagation, a pending
decision being two n-bit ints, the TRUE and the FALSE rays;
``brute_force_coloring`` is the independent cross-check for small instances.
``perturb_to_suitable`` replaces every context by a nearby exactly-suitable
frame, showing how shared rays diverge into per-context copies: one pass at
per-context lattice scales, then at most one deterministic repair of the
contexts whose copies coincide, checked by canonical ray keys.  Each ray's
float target is read once from its stored integers over a power of two, so
rays of any size or cancellation perturb.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from operator import mul

from ._record import Record
from .coloring import TruthValue
from .density import _frame_near, _scale
from .errors import InvalidInputError, ResourceLimitError
from .fields import QuadComplex, QuadRational, _coerce_eps, _quad_ratio
from .linalg import Frame, _cleared, _ray_key
from .serialize import _quad_parts, format_quad_token

_BRUTE_FORCE_LIMIT = 24
_DATA = os.path.join(os.path.dirname(__file__), "data")


def _ray_form(ratios: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """Coefficients given as (numerator, denominator > 0) pairs, as integers
    x over one d > 0 with gcd(d, *x) = 1: the form unique to their values."""
    d = math.lcm(*[q for _, q in ratios])
    x = [p * (d // q) for p, q in ratios] if d > 1 else [p for p, _ in ratios]
    g = math.gcd(d, *x)
    return tuple([c // g for c in x]) if g > 1 else tuple(x), d // g


class RaySet(Record):
    """A labeled list of rays in one dimension, entries in Q(sqrt2)-complex.

    ``cleared`` is the only stored form of the rays, one (x, d) per ray: its
    4n coefficients (re.rat, re.sqrt2, im.rat, im.sqrt2 of each entry) as
    integers x over one d > 0 with gcd(d, *x) = 1, unique to the ray's
    entries.  ``rays`` is derived from it on each read; ``==`` and ``hash``
    read the dimension, ``cleared`` and the labels, so sets compare as forms.
    """

    __slots__ = ("dimension", "cleared", "labels")
    _fields = ("dimension", "rays", "labels")

    def __new__(cls, dimension: int, rays: Sequence, labels: Sequence[str] | None = None):
        forms = (_ray_form([q.as_integer_ratio() for e in map(QuadComplex._coerce, ray)
                            for q in (e.re.rat, e.re.sqrt2, e.im.rat, e.im.sqrt2)])
                 for ray in rays)
        return cls._of(dimension, forms, labels)

    @classmethod
    def _of(cls, dimension: int, forms, labels: Sequence[str] | None = None) -> "RaySet":
        """The ray set of cleared forms (x, d) as ``_ray_form`` makes them;
        the one constructor."""
        if not isinstance(dimension, int) or dimension < 2:
            raise InvalidInputError("dimension must be an integer >= 2")
        forms = tuple(forms)
        if not forms:
            raise InvalidInputError("a ray set needs at least one ray")
        for k, (x, _) in enumerate(forms):
            if len(x) != 4 * dimension:
                raise InvalidInputError(f"ray {k} does not have {dimension} entries")
            if not any(x):
                raise InvalidInputError(f"ray {k} is the zero vector")
        if labels is None:
            labels = tuple(f"r{k}" for k in range(len(forms)))
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != len(forms):
                raise InvalidInputError("one label per ray is required")
            if len(set(labels)) != len(labels):
                raise InvalidInputError("ray labels must be unique")
            # The text format splits a ray line at whitespace.
            if any(label.split() != [label] for label in labels):
                raise InvalidInputError("ray labels must be non-empty, without whitespace")
        rs = object.__new__(cls)
        object.__setattr__(rs, "dimension", dimension)
        object.__setattr__(rs, "cleared", forms)
        object.__setattr__(rs, "labels", labels)
        return rs

    @property
    def rays(self) -> tuple:
        """Each ray as a tuple of QuadComplex entries.  Entries stored
        alike share one object, so each is built once per read."""
        built = {}
        out = []
        for x, d in self.cleared:
            ray = []
            for k in range(0, len(x), 4):
                key = (x[k : k + 4], d)
                e = built.get(key)
                if e is None:
                    re, im = [QuadRational._of(Fraction(a, d), Fraction(b, d))
                              for a, b in (x[k : k + 2], x[k + 2 : k + 4])]
                    e = built[key] = QuadComplex._of(re, im)
                ray.append(e)
            out.append(tuple(ray))
        return tuple(out)

    def _key(self) -> tuple:
        return self.dimension, self.cleared, self.labels

    def __len__(self):
        return len(self.cleared)

    def is_rational(self) -> bool:
        return not any(any(x[1::2]) for x, _ in self.cleared)


class OrthGraph(Record):
    """Exact orthogonality structure of a RaySet: ``pairs`` the sorted (i, j)
    with i < j that are exactly orthogonal, ``neighbors`` each ray's
    frozenset of adjacent indices, ``contexts`` the sorted index tuples of
    size ``dimension``."""

    _fields = ("dimension", "num_rays", "pairs", "neighbors", "contexts")

    def context_count(self, i: int) -> int:
        return sum(1 for ctx in self.contexts if i in ctx)


def _orth_rows(x: Sequence[int], slots: Sequence[int], live: Sequence[int]) -> list:
    """Rows ``live`` of the four integer rows w of the ray v stored as
    ``x``, read on ``slots``: for any ray u stored 0 off ``slots``,
    <u, v> = 0 iff u . w = 0 for all four.

    Per entry, u = (a + b*s2) + i(c + d*s2) and v = (e + f*s2) + i(g + h*s2)
    give conj(u)*v = (ae + 2bf + cg + 2dh) + (af + be + ch + dg)*s2
    + i[(ag + 2bh - ce - 2df) + (ah + bg - cf - de)*s2]; 1 and sqrt2 are
    independent over Q, so the inner product vanishes iff all four sums do.
    On slot s, row r reads x[s ^ r] times a factor fixed by s mod 4, so row
    r is 0 for every x when no s ^ r is in ``slots``, and need not be live.
    """
    factors = ((1, 2, 1, 2), (1, 1, 1, 1), (1, 2, -1, -2), (1, 1, -1, -1))
    return [tuple([factors[r][s & 3] * x[s ^ r] for s in slots]) for r in live]


def build_graph(rs: RaySet) -> OrthGraph:
    """Adjacency by exact integer orthogonality tests; contexts by clique
    extension over neighbor bitmasks.

    Each ray is read from its stored integers on only the slots some ray
    uses, with only its ``_orth_rows`` nonzero there (one for a real rational
    set); a pair stops at its first nonzero sum.  Contexts grow
    from each ray by adding higher neighbors, lowest first, from one int of
    candidate bits, while enough candidates are left to reach size d; they
    come out in lexicographic order.
    """
    n, d = len(rs), rs.dimension
    forms = [x for x, _ in rs.cleared]
    used = [s for s, col in enumerate(zip(*forms)) if any(col)]
    # each ray's stored integers on the used slots: a positive multiple of
    # the ray, as the other slots are 0 in every ray
    xs = [[x[s] for s in used] for x in forms]
    live = [r for r in range(4) if any(s ^ r in used for s in used)]
    rows = [[w for w in _orth_rows(x, used, live) if any(w)] for x in forms]
    pairs, nbr = [], [[] for _ in range(n)]
    for i in range(n):
        xi = xs[i]
        for j in range(i + 1, n):
            for w in rows[j]:
                if sum(map(mul, xi, w)):
                    break
            else:
                pairs.append((i, j))
                nbr[i].append(j)
                nbr[j].append(i)
    masks = [sum(1 << j for j in s) for s in nbr]
    contexts = []
    stack = [((), (1 << n) - 1)]
    while stack:
        clique, cands = stack.pop()
        need = d - len(clique)
        if not need:
            contexts.append(clique)
            continue
        children = []
        while cands.bit_count() >= need:
            j = (cands & -cands).bit_length() - 1
            cands &= cands - 1
            children.append((clique + (j,), cands & masks[j]))
        stack += reversed(children)  # so that they pop in ascending order
    return OrthGraph(
        dimension=d,
        num_rays=n,
        pairs=tuple(pairs),
        neighbors=tuple(map(frozenset, nbr)),
        contexts=tuple(contexts),
    )


def is_valid_coloring(g: OrthGraph, assignment) -> bool:
    """Independent validity checker, straight from the definition."""
    try:
        values = [assignment[i] for i in range(g.num_rays)]
    except (KeyError, IndexError):
        return False
    if any(v not in (0, 1) for v in values):
        return False
    for i, j in g.pairs:
        if values[i] == 1 and values[j] == 1:
            return False
    for ctx in g.contexts:
        if sum(values[i] for i in ctx) != 1:
            return False
    return True


def _propagate(nbr: list, ctxs: list, true: int, false: int) -> tuple[int, int] | None:
    """The fixpoint of unit propagation from the TRUE rays ``true`` and the
    FALSE rays ``false``, or None on a conflict.  Rays are bits: ``nbr``
    holds each ray's neighbor mask and ``ctxs`` each context's mask.  A 1
    zeroes its neighbors, two 1s in a context fail, a 1 zeroes the rest of
    its context, a context with no 1 and one undecided ray forces that ray
    to 1, and a context fully 0 fails."""
    spread = 0  # the TRUE rays whose neighbors are FALSE already
    while True:
        fresh = true & ~spread
        spread = true
        while fresh:
            low = fresh & -fresh
            false |= nbr[low.bit_length() - 1]
            fresh ^= low
        if true & false:
            return None
        before = true, false
        for c in ctxs:
            on = c & true
            if on:
                if on & (on - 1):
                    return None
                false |= c & ~on
            else:
                free = c & ~false
                if not free:
                    return None
                if not free & (free - 1):
                    true |= free
        if (true, false) == before:
            return true, false


def find_ks_coloring(g: OrthGraph) -> dict[int, int] | None:
    """A valid coloring, or None when the constraints are unsatisfiable.

    Backtracking with unit propagation (``_propagate``).  Branch order is
    most-constrained-ray first (most contexts, then highest degree, then
    lowest index), trying 1 before 0; the SAT/UNSAT verdict does not depend
    on this order.  A pending decision is two n-bit ints, the TRUE and the
    FALSE rays, so memory grows with the depth times the ray count.
    """
    ctx_count = Counter(itertools.chain.from_iterable(g.contexts))
    order = sorted(range(g.num_rays), key=lambda i: (-ctx_count[i], -len(g.neighbors[i]), i))
    bit = {i: 1 << p for p, i in enumerate(order)}  # bits in branch order
    nbr = [sum(map(bit.__getitem__, g.neighbors[i])) for i in order]
    ctxs = [sum(map(bit.__getitem__, ctx)) for ctx in g.contexts]
    # Depth-first over an explicit stack, so depth is not bounded by the
    # recursion limit: a branch pushes its 0 child under its 1 child, and
    # the 1 child's whole subtree pops before the 0 child.
    stack = [(0, 0)]
    while stack:
        state = _propagate(nbr, ctxs, *stack.pop())
        if state is None:
            continue
        true, false = state
        decided = true | false
        pick = ~decided & (decided + 1)  # the lowest undecided bit
        if pick >> g.num_rays:
            return {i: 1 if true & bit[i] else 0 for i in range(g.num_rays)}
        stack += ((true, false | pick), (true | pick, false))
    return None


def brute_force_coloring(g: OrthGraph) -> dict[int, int] | None:
    """Exhaustive enumeration over all 2^k assignments; the independent
    cross-validator for small instances."""
    n = g.num_rays
    if n > _BRUTE_FORCE_LIMIT:
        raise InvalidInputError(
            f"brute force is limited to {_BRUTE_FORCE_LIMIT} rays, got {n}"
        )
    ctx_masks = [sum(1 << i for i in ctx) for ctx in g.contexts]
    pair_masks = [(1 << i) | (1 << j) for i, j in g.pairs]
    for mask in range(1 << n):
        ok = True
        for cm in ctx_masks:
            if (mask & cm).bit_count() != 1:
                ok = False
                break
        if not ok:
            continue
        for pm in pair_masks:
            if (mask & pm) == pm:
                ok = False
                break
        if ok:
            return {i: (mask >> i) & 1 for i in range(n)}
    return None


class PerturbedContext(Record):
    """One context after nullification: its exact suitable frame."""

    _fields = ("index", "ray_indices", "frame", "values", "truth_total", "max_dist2")


class DivergenceEntry(Record):
    """Comparison of one originally-shared ray across two contexts."""

    _fields = ("ray_index", "label", "context_a", "context_b", "distinct")


class NullificationReport(Record):
    """``contexts`` and ``divergences`` are lists, so a report does not hash."""

    _fields = ("epsilon", "contexts", "divergences", "all_suitable", "all_shared_diverge")


def perturb_to_suitable(rs: RaySet, eps) -> NullificationReport:
    """Replace every context by a nearby exactly-suitable frame.

    Contexts are perturbed independently, so a ray shared by several
    contexts receives one exact perturbed copy per context; the report shows
    these copies are pairwise distinct rays (the contradiction-dissolving
    divergence).  Context c takes its first ray as TRUE leg and is built at
    the scale M + 3c, where M is the scale ``suitable_frame_near`` proves for
    eps, so TRUE copies of one ray come from different scales.  A FALSE copy
    can still equal another when its rounding is already orthogonal to the
    TRUE leg.  The later context of each such pair is rebuilt once, with its
    coinciding legs just after the TRUE leg (the last leg is forced by the
    others) and the roundings nudged so that Gram-Schmidt must turn them.
    Copies are compared by canonical ray keys; one that still coincides
    raises ResourceLimitError.
    """
    eps = _coerce_eps(eps)
    g = build_graph(rs)
    if not g.contexts:
        raise InvalidInputError("the ray set has no full context to perturb")
    n = rs.dimension
    scale = _scale(eps, 2 * n, 4 * n)
    targets = {}
    for i in set().union(*g.contexts):
        # Each coordinate p/q over 2^s, s about log2 of the largest value: an
        # exact binary64 scaling that brings the floats near 1, whatever the parts.
        x, d = rs.cleared[i]
        pq = [_quad_ratio(x[j], x[j + 1], d) for j in range(0, len(x), 2)]
        s = max(p.bit_length() - q.bit_length() for p, q in pq if p)
        v = [p / (q << s) if s >= 0 else (p << -s) / q for p, q in pq]
        nrm = math.sqrt(sum(c * c for c in v))
        targets[i] = _cleared([c / nrm for c in v])[0]

    def perturb(ci, moved=()):
        """Context ci's frame, values and distance; a repair puts the legs
        at positions ``moved`` right after the TRUE leg and nudges."""
        order = [0, *moved, *(p for p in range(1, n) if p not in moved)]
        rows = [targets[g.contexts[ci][p]] for p in order]
        res = _frame_near(rows, eps, scale + 3 * ci, nudge=bool(moved))
        if not moved:
            return res.object, res.certificate, res.achieved_dist2
        legs, values = [None] * n, [None] * n
        for p, leg, value in zip(order, res.object, res.certificate):
            legs[p], values[p] = leg, value
        return Frame(legs), values, res.achieved_dist2

    results = [perturb(ci) for ci in range(len(g.contexts))]

    membership: dict[int, list[tuple[int, int]]] = {}
    for ci, ctx in enumerate(g.contexts):
        for pos, ray in enumerate(ctx):
            membership.setdefault(ray, []).append((ci, pos))
    shared = {ray: occ for ray, occ in sorted(membership.items()) if len(occ) > 1}

    def keys():
        return {(ci, p): _ray_key(results[ci][0][p]) for occ in shared.values()
                for ci, p in occ}

    key = keys()
    redo: dict[int, list[int]] = {}
    for occ in shared.values():
        seen = set()
        for ci, p in occ:
            if p and key[ci, p] in seen:
                redo.setdefault(ci, []).append(p)
            seen.add(key[ci, p])
    for ci, moved in redo.items():
        results[ci] = perturb(ci, sorted(moved))
    if redo:
        key = keys()

    contexts = [PerturbedContext(ci, ctx, frame, tuple(vals), vals.count(TruthValue.TRUE), d2)
                for ci, (ctx, (frame, vals, d2)) in enumerate(zip(g.contexts, results))]
    all_suitable = all(c.truth_total == 1 for c in contexts)

    divergences = [
        DivergenceEntry(ray, rs.labels[ray], c1, c2, key[c1, p1] != key[c2, p2])
        for ray, occ in shared.items()
        for (c1, p1), (c2, p2) in itertools.combinations(occ, 2)
    ]
    if not all(d.distinct for d in divergences):
        raise ResourceLimitError("could not separate the copies of a shared ray")

    return NullificationReport(eps, contexts, divergences, all_suitable,
                               all_shared_diverge=True)


def _component_ratios(token: str, field: str) -> list[tuple[int, int]]:
    """The four coefficients of one entry token, as (numerator, denominator)."""
    parts = token.split(",")
    if len(parts) > 2:
        raise InvalidInputError(f"bad component {token!r}")
    p, q, r, t = _quad_parts(parts[0])
    e, f, g, h = _quad_parts(parts[1]) if len(parts) == 2 else (0, 1, 0, 1)
    if field == "rational" and (r or g):
        raise InvalidInputError(
            f"component {token!r} uses sqrt2 in a rational-field ray set"
        )
    return [(p, q), (r, t), (e, f), (g, h)]


def _format_component(e: QuadComplex) -> str:
    if e.im.is_zero():
        return format_quad_token(e.re)
    return f"{format_quad_token(e.re)},{format_quad_token(e.im)}"


def _header_int(token: str, ln: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise InvalidInputError(f"header value is not an integer: {ln!r}") from exc


def load_rayset(text: str) -> RaySet:
    """Parse the ray-set text format and run its self-checks.

    Format: a ``rayset v1`` line, ``dimension <n>`` and ``field
    rational|quad2`` headers, optional ``contexts <k>`` and ``pairs <k>``
    self-check headers, then one ``ray <label> <c1> ... <cn>`` line per ray.
    Blank lines and ``#`` comments are ignored.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0].split() != ["rayset", "v1"]:
        raise InvalidInputError("missing 'rayset v1' header")
    dimension = None
    field = None
    want_contexts = None
    want_pairs = None
    forms = []
    labels = []
    for ln in lines[1:]:
        parts = ln.split()
        key = parts[0]
        if key in ("dimension", "field", "contexts", "pairs") and len(parts) != 2:
            raise InvalidInputError(f"{key!r} header takes one value: {ln!r}")
        if key == "dimension":
            dimension = _header_int(parts[1], ln)
            if dimension < 2:
                raise InvalidInputError("dimension must be an integer >= 2")
        elif key == "field":
            field = parts[1]
            if field not in ("rational", "quad2"):
                raise InvalidInputError(f"unknown field {field!r}")
        elif key == "contexts":
            want_contexts = _header_int(parts[1], ln)
        elif key == "pairs":
            want_pairs = _header_int(parts[1], ln)
        elif key == "ray":
            if dimension is None or field is None:
                raise InvalidInputError("ray line before dimension/field headers")
            if len(parts) != 2 + dimension:
                raise InvalidInputError(f"ray line has wrong arity: {ln!r}")
            labels.append(parts[1])
            forms.append(_ray_form([c for tok in parts[2:] for c in _component_ratios(tok, field)]))
        else:
            raise InvalidInputError(f"unknown ray set directive {key!r}")
    if dimension is None or field is None:
        raise InvalidInputError("missing dimension or field header")
    rs = RaySet._of(dimension, forms, labels)
    if want_contexts is not None or want_pairs is not None:
        g = build_graph(rs)
        if want_contexts is not None and len(g.contexts) != want_contexts:
            raise InvalidInputError(
                f"self-check failed: {len(g.contexts)} contexts, header says {want_contexts}"
            )
        if want_pairs is not None and len(g.pairs) != want_pairs:
            raise InvalidInputError(
                f"self-check failed: {len(g.pairs)} orthogonal pairs, header says {want_pairs}"
            )
    return rs


def dump_rayset(rs: RaySet, with_checks: bool = True) -> str:
    """Serialize a RaySet to the text format, including self-check headers."""
    field = "rational" if rs.is_rational() else "quad2"
    out = ["rayset v1", f"dimension {rs.dimension}", f"field {field}"]
    if with_checks:
        g = build_graph(rs)
        out.append(f"contexts {len(g.contexts)}")
        out.append(f"pairs {len(g.pairs)}")
    for label, ray in zip(rs.labels, rs.rays):
        comps = " ".join(_format_component(e) for e in ray)
        out.append(f"ray {label} {comps}")
    return "\n".join(out) + "\n"


def load_builtin(name: str) -> RaySet:
    """Load a packaged ray set by name, e.g. 'peres33' or 'peres24', from
    the ``data`` directory beside this module."""
    try:
        with open(os.path.join(_DATA, f"{name}.rays"), encoding="utf-8") as f:
            text = f.read()
    except FileNotFoundError as exc:
        raise InvalidInputError(f"no packaged ray set named {name!r}") from exc
    return load_rayset(text)
