"""Textual and JSON-object forms for exact values.

Scalars never pass through floats: rationals serialize as "p/q" strings,
Q(sqrt2) reals as {"rat": "p/q", "sqrt2": "p/q"} objects (or compact tokens
like "1/2-1/3s2" in ray-set files), complex values as {"re": ..., "im": ...}.
Parsers accept shorthand: a bare rational string where a richer scalar is
expected means its rational embedding.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

from .coloring import ProjectionRep, TruthValue
from .errors import InvalidInputError
from .fields import GaussianRational, QuadComplex, QuadRational, _check_exponent, format_fraction
from .linalg import Frame, GMatrix, GVector, QuadHermitian
from .povm import PovmDecomposition, PovmElement


def parse_fraction(s) -> Fraction:
    """A rational from an int or from text that ``Fraction`` reads ("2/3",
    "0.25", "1e-5"); a decimal exponent beyond +-10^5 is refused before it
    is expanded."""
    if isinstance(s, bool):
        raise InvalidInputError(f"not a rational: {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        _check_exponent(s)
        try:
            return Fraction(s.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"not a rational: {s!r}") from exc
    raise InvalidInputError(f"not a rational: {s!r}")


_QUAD_TOKEN = _re.compile(
    r"^(?P<rat>[+-]?\d+(?:/\d+)?(?=$|[+-]))?(?P<s2>[+-]?(?:\d+(?:/\d+)?)?s2)?$"
)


def _quad_parts(s: str) -> tuple[int, int, int, int]:
    """A compact token without surrounding space as the integers (p, q, r,
    t) of p/q + (r/t)*sqrt2, with q, t > 0: the parse that
    ``parse_quad_token`` and ray-set files share, with the errors of
    ``parse_fraction``."""
    m = _QUAD_TOKEN.match(s)
    rat, s2 = m.group("rat", "s2") if m else (None, None)
    if rat is None and s2 is None:
        raise InvalidInputError(f"bad Q(sqrt2) token: {s!r}")
    coef = s2[:-2] if s2 else "0"
    out = []
    for text in (rat or "0", coef + "1" if coef in ("", "+", "-") else coef):
        num, _, den = text.partition("/")
        try:
            p, q = int(num), int(den or 1)
        except ValueError:
            p = q = 0
        if not q:
            raise InvalidInputError(f"not a rational: {text!r}")
        out += (p, q)
    return tuple(out)


def parse_quad_token(s: str) -> QuadRational:
    """Parse compact tokens: '3', '-1/2', 's2', '-s2', '3/4s2', '1+s2',
    '1/2-1/3s2'."""
    p, q, r, t = _quad_parts(s.strip())
    return QuadRational(Fraction(p, q), Fraction(r, t))


def format_quad_token(q: QuadRational) -> str:
    """Compact inverse of parse_quad_token: ``str(q)``."""
    return str(q)


def _keyed(obj: dict, keys: tuple, read, what: str) -> list:
    """``read`` of the value at each of ``keys`` in a keyed object such as
    {"re": ..., "im": ...}: an absent key reads as 0, and a key not in
    ``keys`` is refused."""
    extra = obj.keys() - keys
    if extra:
        raise InvalidInputError(f"unexpected keys in {what}: {sorted(extra)}")
    return [read(obj.get(k, 0)) for k in keys]


def quad_to_obj(q: QuadRational):
    return {"rat": format_fraction(q.rat), "sqrt2": format_fraction(q.sqrt2)}


def quad_from_obj(obj) -> QuadRational:
    if isinstance(obj, str):
        return parse_quad_token(obj)
    if isinstance(obj, int) and not isinstance(obj, bool):
        return QuadRational(obj)
    if isinstance(obj, dict):
        return QuadRational(*_keyed(obj, ("rat", "sqrt2"), parse_fraction, "Q(sqrt2) scalar"))
    raise InvalidInputError(f"not a Q(sqrt2) scalar: {obj!r}")


def gaussian_to_obj(z: GaussianRational):
    return {"re": format_fraction(z.re), "im": format_fraction(z.im)}


def gaussian_from_obj(obj) -> GaussianRational:
    if isinstance(obj, (str, int)):
        return GaussianRational(parse_fraction(obj))
    if isinstance(obj, dict):
        return GaussianRational(*_keyed(obj, ("re", "im"), parse_fraction, "complex scalar"))
    raise InvalidInputError(f"not a complex rational: {obj!r}")


def qcomplex_to_obj(z: QuadComplex):
    return {"re": quad_to_obj(z.re), "im": quad_to_obj(z.im)}


def qcomplex_from_obj(obj) -> QuadComplex:
    if isinstance(obj, (str, int)):
        return QuadComplex(quad_from_obj(obj))
    if isinstance(obj, dict):
        return QuadComplex(*_keyed(obj, ("re", "im"), quad_from_obj, "Q(sqrt2) complex"))
    raise InvalidInputError(f"not a Q(sqrt2) complex scalar: {obj!r}")


def vector_to_obj(v: GVector):
    return [gaussian_to_obj(e) for e in v]


def vector_from_obj(obj) -> GVector:
    if not isinstance(obj, list):
        raise InvalidInputError("vector must be a JSON array")
    return GVector(gaussian_from_obj(e) for e in obj)


def vector_from_reals_obj(obj) -> GVector:
    """Vector from a JSON array of 2n exact real coordinates."""
    if not isinstance(obj, list):
        raise InvalidInputError("vector must be a JSON array of 2n reals")
    return GVector.from_reals([parse_fraction(x) for x in obj])


def _check_dimension(obj: dict, n: int) -> None:
    """An optional 'dimension' key must be the n read from the object, as an
    int or as its text (the CLI reads bare numbers as text)."""
    dim = obj.get("dimension", n)
    if dim != str(n) and (type(dim) is not int or dim != n):
        raise InvalidInputError(f"'dimension' does not match the object's dimension {n}")


def frame_to_obj(f: Frame):
    return {
        "kind": "frame",
        "dimension": f.dimension,
        "legs": [vector_to_obj(leg) for leg in f],
    }


def frame_from_obj(obj) -> Frame:
    if not isinstance(obj, dict) or obj.get("kind") != "frame":
        raise InvalidInputError("expected a frame object with kind='frame'")
    legs = obj.get("legs")
    if not isinstance(legs, list):
        raise InvalidInputError("frame object must carry a 'legs' array")
    frame = Frame(vector_from_obj(leg) for leg in legs)
    _check_dimension(obj, frame.dimension)
    return frame


def gmatrix_to_obj(m: GMatrix):
    return [[gaussian_to_obj(e) for e in row] for row in m.rows]


def gmatrix_from_obj(obj) -> GMatrix:
    if not isinstance(obj, list):
        raise InvalidInputError("matrix must be a JSON array of rows")
    return GMatrix((gaussian_from_obj(e) for e in row) for row in obj)


def quadherm_to_obj(m: QuadHermitian):
    return [[qcomplex_to_obj(e) for e in row] for row in m.rows]


def quadherm_from_obj(obj) -> QuadHermitian:
    if not isinstance(obj, list):
        raise InvalidInputError("matrix must be a JSON array of rows")
    return QuadHermitian((qcomplex_from_obj(e) for e in row) for row in obj)


def povm_to_obj(d: PovmDecomposition):
    return {
        "kind": "povm",
        "dimension": d.n,
        "elements": [quadherm_to_obj(e.matrix) for e in d],
    }


def povm_from_obj(obj) -> PovmDecomposition:
    if not isinstance(obj, dict) or obj.get("kind") != "povm":
        raise InvalidInputError("expected a POVM object with kind='povm'")
    elements = obj.get("elements")
    if not isinstance(elements, list):
        raise InvalidInputError("POVM object must carry an 'elements' array")
    dec = PovmDecomposition(PovmElement(quadherm_from_obj(e)) for e in elements)
    _check_dimension(obj, dec.n)
    return dec


def projection_rep_from_obj(obj) -> ProjectionRep:
    if isinstance(obj, dict):
        if obj.get("kind") != "projection":
            raise InvalidInputError("expected kind='projection'")
        obj = obj.get("matrix")
    return ProjectionRep(gmatrix_from_obj(obj))


def projection_rep_to_obj(rep: ProjectionRep):
    return {"kind": "projection", "matrix": gmatrix_to_obj(rep.matrix)}


def truth_to_str(t: TruthValue) -> str:
    return t.value


def truths_to_obj(values) -> list:
    return [truth_to_str(v) for v in values]
