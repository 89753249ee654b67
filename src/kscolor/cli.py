"""Command-line surface: one subcommand per library operation.

Outputs are deterministic and machine-readable. JSON is the default format
(exact scalars appear as strings, never floats); ``--format text`` renders
the same data as sorted ``path = value`` lines. The KSCOLOR_FORMAT
environment variable can change the default. Exit codes: 0 success,
2 invalid or inapplicable input (bad arguments included), 3 degenerate
input, 4 resource limit; every failure prints one error object to stderr.

Inline arguments (vectors, matrices) use a JSON superset where bare tokens
like ``1/3`` or ``1/2-1/3s2`` need no quotes, and quoted strings take JSON
escapes; ``@path`` reads the value from a file and ``-`` from stdin.
Ray-set arguments name a file, or one of the bundled sets (``peres33``,
``peres24``) when no such file exists. ``gen-*`` sizes are capped at 64.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import sys
from fractions import Fraction

from . import __version__
from .coloring import (
    classify_in_frame,
    classify_projection_matrix,
    classify_ray,
    truth_sum,
)
from .density import false_ray_near, nearest_true_ray, suitable_frame_near
from .errors import (
    DegenerateInputError,
    InvalidInputError,
    NotApplicableError,
    ResourceLimitError,
)
from .fields import _coerce_eps
from .kscheck import (
    build_graph,
    find_ks_coloring,
    load_builtin,
    load_rayset,
    perturb_to_suitable,
)
from .povm import classify_with_witness, make_suitable_near
from .povm import truth_sum as povm_truth_sum
from .serialize import (
    _keyed,
    format_fraction,
    frame_from_obj,
    frame_to_obj,
    parse_fraction,
    parse_quad_token,
    povm_from_obj,
    povm_to_obj,
    projection_rep_from_obj,
    quadherm_from_obj,
    truth_to_str,
    truths_to_obj,
    vector_from_obj,
    vector_from_reals_obj,
    vector_to_obj,
)

_FORMATS = ("json", "text")


# ---------------------------------------------------------------------------
# lenient value syntax: JSON plus unquoted scalar tokens

# A quoted string, a bare token (a run that stops at a delimiter or
# whitespace, and may hold quotes after its first character), or whitespace.
_LENIENT_TOKEN = re.compile(
    r'"[^"\\]*(?:\\.[^"\\]*)*"|[^\s\[\]{},:"][^\s\[\]{},:]*|\s+', re.DOTALL
)
_JSON_WORDS = ("null", "true", "false")


def _quote_bare(m) -> str:
    tok = m.group()
    if tok[0] == '"' or tok in _JSON_WORDS:
        return tok
    # JSON allows fewer whitespace characters than str.isspace does.
    return " " if tok.isspace() else json.dumps(tok)


def _lenient_loads(text: str):
    try:
        return json.loads(_LENIENT_TOKEN.sub(_quote_bare, text), strict=False)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"malformed value: {exc.msg}") from None
    except RecursionError:
        raise InvalidInputError("value is nested too deeply") from None


def _read_text(path: str) -> str:
    """The text of a file, or of stdin for '-'."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc


def _read_value(arg: str):
    """Inline value, @path, or '-' for stdin."""
    if arg == "-" or arg.startswith("@"):
        return _lenient_loads(_read_text(arg if arg == "-" else arg[1:]))
    return _lenient_loads(arg)


def _read_doc(arg: str):
    """Like _read_value, but a bare existing file path also works."""
    if arg != "-" and not arg.startswith("@") and os.path.exists(arg):
        return _read_value("@" + arg)
    return _read_value(arg)


def _read_rayset(arg: str):
    if arg == "-" or os.path.exists(arg):
        return load_rayset(_read_text(arg))
    stem = os.path.splitext(os.path.basename(arg))[0]
    try:
        return load_builtin(stem)
    except (OSError, ValueError):
        raise InvalidInputError(
            f"no such ray-set file or bundled set: {arg}"
        ) from None


# ---------------------------------------------------------------------------
# input coercions


def _vector_in(obj):
    if not isinstance(obj, list) or not obj:
        raise InvalidInputError("expected a non-empty array of coordinates")
    if all(isinstance(e, dict) for e in obj):
        return vector_from_obj(obj)
    return vector_from_reals_obj(obj)


def _real_number(e) -> float:
    if isinstance(e, bool) or not isinstance(e, (str, int)):
        raise InvalidInputError(f"not a real number: {e!r}")
    try:
        if isinstance(e, int):
            return float(e)
        if "s2" in e:
            return parse_quad_token(e).to_float()
        return float(parse_fraction(e))
    except OverflowError:
        raise InvalidInputError(f"number outside the binary64 range: {e!r}") from None


def _float_target(obj) -> list:
    if not isinstance(obj, list) or not obj:
        raise InvalidInputError("expected a non-empty array of coordinates")
    return [_real_number(e) for e in obj]


def _complex_entry(e) -> complex:
    if isinstance(e, list):
        if len(e) != 2:
            raise InvalidInputError("complex entries as arrays must be [re, im]")
        return complex(_real_number(e[0]), _real_number(e[1]))
    if isinstance(e, dict):
        return complex(*_keyed(e, ("re", "im"), _real_number, "entry"))
    return complex(_real_number(e), 0.0)


def _povm_targets_in(obj):
    if isinstance(obj, dict) and obj.get("kind") == "povm":
        return povm_from_obj(obj)
    if isinstance(obj, dict) and "elements" in obj:
        obj = obj["elements"]
    if not isinstance(obj, list) or not obj:
        raise InvalidInputError(
            "expected a POVM object or a non-empty array of target matrices"
        )
    return [
        [[_complex_entry(e) for e in row] for row in mat] for mat in obj
    ]


# ---------------------------------------------------------------------------
# output rendering


def _approx_vector_obj(res) -> dict:
    return {
        "achieved_dist2": format_fraction(res.achieved_dist2),
        "value": truth_to_str(res.certificate),
        "vector": vector_to_obj(res.object),
    }


def _emit_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _text_lines(obj, path: str):
    if isinstance(obj, dict):
        if not obj:
            yield f"{path} = {{}}"
            return
        for k in sorted(obj):
            yield from _text_lines(obj[k], f"{path}.{k}" if path else str(k))
        return
    if isinstance(obj, list):
        if not obj:
            yield f"{path} = []"
            return
        for i, e in enumerate(obj):
            yield from _text_lines(e, f"{path}[{i}]")
        return
    if obj is None:
        yield f"{path} = null"
    elif isinstance(obj, bool):
        yield f"{path} = {'true' if obj else 'false'}"
    else:
        yield f"{path} = {obj}"


def _emit(obj, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(_emit_json(obj))
    else:
        sys.stdout.write("\n".join(_text_lines(obj, "")) + "\n")


def _fail(exc: Exception, code: int, fmt: str) -> int:
    payload = {"error": str(exc), "type": type(exc).__name__}
    if fmt == "json":
        sys.stderr.write(_emit_json(payload))
    else:
        sys.stderr.write(f"error ({payload['type']}): {payload['error']}\n")
    return code


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classify_ray(args) -> dict:
    v = _vector_in(_read_value(args.vector))
    return {"value": truth_to_str(classify_ray(v))}


def _cmd_classify_matrix(args) -> dict:
    obj = _read_value(args.matrix)
    rep = projection_rep_from_obj(obj)
    return {"value": truth_to_str(classify_projection_matrix(rep))}


def _cmd_classify_povm(args) -> dict:
    obj = _read_value(args.element)
    mat = quadherm_from_obj(obj)
    value, witness = classify_with_witness(mat)
    return {
        "value": truth_to_str(value),
        "witness": None if witness is None else povm_to_obj(witness),
    }


def _cmd_approx_true(args) -> dict:
    obj = _read_value(args.vector)
    if isinstance(obj, dict) and "target" in obj:
        obj = obj["target"]
    target = _float_target(obj)
    res = nearest_true_ray(target, args.epsilon)
    return _approx_vector_obj(res)


def _cmd_suitable_frame(args) -> dict:
    obj = _read_value(args.frame)
    if isinstance(obj, dict) and "targets" in obj:
        obj = obj["targets"]
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise InvalidInputError("expected an array of target vectors")
    targets = [_float_target(r) for r in obj]
    res = suitable_frame_near(targets, args.epsilon)
    frame = res.object
    return {
        "frame": frame_to_obj(frame),
        "max_dist2": format_fraction(res.achieved_dist2),
        "sum": truth_sum(frame),
        "values": truths_to_obj(res.certificate),
    }


def _cmd_false_ray(args) -> dict:
    obj = _read_value(args.vector)
    if isinstance(obj, dict) and "target" in obj:
        obj = obj["target"]
    target = _float_target(obj)
    res = false_ray_near(target, args.epsilon)
    out = _approx_vector_obj(res)
    out["witness"] = frame_to_obj(res.witness)
    out["witness_values"] = truths_to_obj(classify_in_frame(res.witness))
    return out


def _cmd_make_suitable_povm(args) -> dict:
    targets = _povm_targets_in(_read_doc(args.decomposition))
    dec = make_suitable_near(targets, args.epsilon, allow_split=args.allow_split)
    out = povm_to_obj(dec)
    out["sum"] = povm_truth_sum(dec)
    return out


def _cmd_verify_decomposition(args) -> dict:
    obj = _read_doc(args.object)
    if isinstance(obj, dict) and obj.get("kind") == "frame":
        return {"sum": truth_sum(frame_from_obj(obj))}
    if isinstance(obj, dict) and obj.get("kind") == "povm":
        return {"sum": povm_truth_sum(povm_from_obj(obj))}
    raise InvalidInputError("expected an object with kind='frame' or kind='povm'")


def _cmd_ks_solve(args) -> dict:
    rs = _read_rayset(args.rayset)
    g = build_graph(rs)
    coloring = find_ks_coloring(g)
    if coloring is None:
        return {"result": "UNSAT"}
    assignment = {rs.labels[i]: coloring[i] for i in range(len(rs))}
    return {"result": "SAT", "assignment": assignment}


def _cmd_ks_perturb(args) -> dict:
    rs = _read_rayset(args.rayset)
    epsilon = format_fraction(_coerce_eps(args.epsilon))  # refuses an unprintable eps up front
    rep = perturb_to_suitable(rs, args.epsilon)
    contexts = []
    for c in rep.contexts:
        contexts.append(
            {
                "index": c.index,
                "rays": [rs.labels[i] for i in c.ray_indices],
                "values": truths_to_obj(c.values),
                "sum": c.truth_total,
                "max_dist2": format_fraction(c.max_dist2),
                "legs": [vector_to_obj(leg) for leg in c.frame],
            }
        )
    divergences = [
        {
            "ray": d.label,
            "context_a": d.context_a,
            "context_b": d.context_b,
            "distinct": d.distinct,
        }
        for d in rep.divergences
    ]
    return {
        "epsilon": epsilon,
        "contexts": contexts,
        "divergences": divergences,
        "all_suitable": rep.all_suitable,
        "all_shared_diverge": rep.all_shared_diverge,
    }


# developer generators: the only seed-dependent subcommands

# Bounds --dimension and --elements: gen-frame and gen-povm cost O(n^3) and
# O(m) time and memory.
_MAX_GEN_SIZE = 64


def _rng_unit_vector(rng: random.Random, n: int) -> list:
    while True:
        coords = [rng.gauss(0.0, 1.0) for _ in range(2 * n)]
        nrm = math.sqrt(sum(x * x for x in coords))
        if nrm > 1e-6:
            return [x / nrm for x in coords]


def _rng_orthonormal(rng: random.Random, n: int) -> list:
    basis = []
    while len(basis) < n:
        raw = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(n)]
        for u in basis:
            ip = sum(a.conjugate() * b for a, b in zip(u, raw))
            raw = [b - ip * a for a, b in zip(u, raw)]
        nrm = math.sqrt(sum(abs(x) ** 2 for x in raw))
        if nrm > 1e-6:
            basis.append([x / nrm for x in raw])
    return basis


def _interleave(z: list) -> list:
    out = []
    for c in z:
        out.append(c.real)
        out.append(c.imag)
    return out


def _gen_size(flag: str, value: int, least: int) -> int:
    if not least <= value <= _MAX_GEN_SIZE:
        raise InvalidInputError(
            f"{flag} must be in [{least}, {_MAX_GEN_SIZE}], got {value}"
        )
    return value


def _cmd_gen_ray(args) -> dict:
    n = _gen_size("--dimension", args.dimension, 2)
    rng = random.Random(args.seed)
    return {"target": _rng_unit_vector(rng, n)}


def _cmd_gen_frame(args) -> dict:
    n = _gen_size("--dimension", args.dimension, 2)
    rng = random.Random(args.seed)
    basis = _rng_orthonormal(rng, n)
    return {"targets": [_interleave(v) for v in basis]}


def _cmd_gen_povm(args) -> dict:
    n = _gen_size("--dimension", args.dimension, 1)
    m = _gen_size("--elements", args.elements, 1)
    rng = random.Random(args.seed)
    basis = _rng_orthonormal(rng, n)
    groups = [[] for _ in range(m)]
    order = list(range(n))
    rng.shuffle(order)
    for pos, k in enumerate(order):
        groups[pos % m].append(k)
    blend = 0.1 + 0.8 * rng.random()
    mats = []
    for grp in groups:
        mat = [[0.0 + 0.0j for _ in range(n)] for _ in range(n)]
        for k in grp:
            v = basis[k]
            for i in range(n):
                for j in range(n):
                    mat[i][j] += v[i] * v[j].conjugate()
        for i in range(n):
            for j in range(n):
                mat[i][j] = (1.0 - blend) * mat[i][j]
            mat[i][i] += blend / m
        mats.append(mat)
    return {
        "elements": [
            [[[z.real, z.imag] for z in row] for row in mat] for mat in mats
        ]
    }


# ---------------------------------------------------------------------------
# parser


def _fraction_flag(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except InvalidInputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _ArgumentParser(argparse.ArgumentParser):
    """Raises argument errors as InvalidInputError, so they print as the
    same error object as every other failure (exit 2)."""

    def error(self, message):
        raise InvalidInputError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="kscolor",
        description="Exact truth-value colorings for rays, projections and "
        "POVMs, with finite-precision perturbation of Kochen-Specker sets.",
    )
    parser.add_argument("--version", action="version", version=__version__)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--epsilon",
        type=_fraction_flag,
        default=Fraction(1, 10**6),
        help="approximation radius (default 1e-6)",
    )
    common.add_argument(
        "--dimension", type=int, default=3, help="dimension for generators"
    )
    common.add_argument(
        "--seed", type=int, default=0, help="seed for gen-* subcommands"
    )
    common.add_argument(
        "--format",
        choices=_FORMATS,
        default=None,
        help="output format (default json, or KSCOLOR_FORMAT)",
    )

    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    sub.required = True

    def add(name, func, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("classify-ray", _cmd_classify_ray, "truth value of a ray")
    p.add_argument("vector", help="2n exact real coordinates, e.g. [1/3,1/2,...]")

    p = add("classify-matrix", _cmd_classify_matrix, "truth value of a projection representative")
    p.add_argument("matrix", help="matrix rows, or {kind:projection,matrix:...}")

    p = add("classify-povm", _cmd_classify_povm, "truth value of a POVM element, with witness")
    p.add_argument("element", help="Hermitian Q(sqrt2) matrix rows")

    p = add("approx-true", _cmd_approx_true, "nearest TRUE ray within epsilon")
    p.add_argument("vector", help="2n real float coordinates of the target ray")

    p = add("suitable-frame", _cmd_suitable_frame, "suitable exact frame within epsilon")
    p.add_argument("frame", help="array of n nearly-orthonormal target vectors")

    p = add("false-ray", _cmd_false_ray, "FALSE ray within epsilon, with witness frame")
    p.add_argument("vector", help="2n real float coordinates of the target ray")

    p = add("make-suitable-povm", _cmd_make_suitable_povm, "suitable POVM within epsilon")
    p.add_argument("decomposition", help="file with target matrices (@path, path or inline)")
    p.add_argument(
        "--allow-split",
        action="store_true",
        help="permit appending one extra element when no donor pair exists",
    )

    p = add("verify-decomposition", _cmd_verify_decomposition, "truth sum of a frame or POVM")
    p.add_argument("object", help="frame or POVM object (@path, path or inline)")

    p = add("ks-solve", _cmd_ks_solve, "exact coloring search on a ray set")
    p.add_argument("rayset", help="ray-set file, or bundled set name")

    p = add("ks-perturb", _cmd_ks_perturb, "per-context suitable perturbation report")
    p.add_argument("rayset", help="ray-set file, or bundled set name")

    p = add("gen-ray", _cmd_gen_ray, "random unit-vector target (seeded)")
    p = add("gen-frame", _cmd_gen_frame, "random orthonormal frame target (seeded)")
    p = add("gen-povm", _cmd_gen_povm, "random POVM target (seeded)")
    p.add_argument("--elements", type=int, default=3, help="number of elements")

    return parser


def main(argv=None) -> int:
    fmt = _default_format()
    try:
        args = _build_parser().parse_args(argv)
        fmt = args.format or fmt
        out = args.func(args)
    except (InvalidInputError, NotApplicableError) as exc:
        return _fail(exc, 2, fmt)
    except DegenerateInputError as exc:
        return _fail(exc, 3, fmt)
    except ResourceLimitError as exc:
        return _fail(exc, 4, fmt)
    _emit(out, fmt)
    return 0


def _default_format() -> str:
    env = os.environ.get("KSCOLOR_FORMAT", "").strip().lower()
    return env if env in _FORMATS else "json"


if __name__ == "__main__":
    sys.exit(main())
