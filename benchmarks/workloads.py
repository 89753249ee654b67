"""The four workloads: their inputs, operations and exact checks.

A workload is built in two steps.  ``prepare`` runs once per process after
``kscolor`` is imported: it loads the ray sets the workload needs and keeps
the untraced library functions the checks call.  ``cycle`` then draws one
cycle of operations from the workload's random stream.  A cycle holds every
operation kind of the workload in a fixed mix, shuffled into a
seed-determined order; runs measure whole cycles, so the mix is the same in
every run and only the generated inputs differ.

Each ``Op`` has a ``run`` callable (the timed part, one library or CLI call)
and a ``check`` callable that verifies the result exactly, outside the timed
span, and returns ``(exact output objects, worst d^2/eps^2 or None)``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

import gen
import verify
from verify import RefGraph, require

Op = namedtuple("Op", "kind run check")


class DocumentedFailure(Exception):
    """The program refused an input with one of its documented errors
    (a ``KscolorError``, or CLI exit code 2, 3 or 4).  Counted as a failed
    op, not as a wrong answer."""


E2, E4, E6 = Fraction(1, 10**2), Fraction(1, 10**4), Fraction(1, 10**6)

# Published sizes of the bundled sets (their ray files carry the same
# numbers as self-check headers) and of the generated {0,+-1}^4 set.
SET_COUNTS = {"peres33": (16, 72), "peres24": (24, 108), "r40": (32, 220)}


def prepare(ks, name: str, rng) -> SimpleNamespace:
    """Per-process state: untraced library functions the checks use, and the
    ray sets of the ks and cli workloads."""
    st = SimpleNamespace(
        ks=ks,
        name=name,
        truth_sum=ks.truth_sum,
        psd_check=ks.psd_check,
        is_valid_coloring=ks.is_valid_coloring,
        brute_force=ks.brute_force_coloring,
        sets={},
    )
    if name in ("ks", "cli"):
        st.sets["peres33"] = ks.load_builtin("peres33")
    if name == "cli":
        importlib.import_module("kscolor.cli")
    if name == "ks":
        st.sets["peres24"] = ks.load_builtin("peres24")
        st.r40_rays = gen.zero_pm1_rays()
        st.r40_text = gen.zero_pm1_text(st.r40_rays, *SET_COUNTS["r40"])
        st.sets["r40"] = ks.load_rayset(st.r40_text)
    st.rows = {k: verify.rayset_rows(rs) for k, rs in st.sets.items()}
    if name == "ks":
        zero = Fraction(0)
        want = [[((Fraction(x), zero), (zero, zero)) for x in v] for v in st.r40_rays]
        require(st.rows["r40"] == want, "the {0,+-1}^4 set did not load as generated")
    st.refs = {k: RefGraph(st.rows[k], rs.dimension) for k, rs in st.sets.items()}
    for k, ref in st.refs.items():
        require((len(ref.contexts), len(ref.pairs)) == SET_COUNTS[k],
                f"{k}: reference graph does not match the published counts")
    return st


def setup_loads(name: str) -> list[str]:
    """Ray sets the workload loads during set-up ('-' is the generated set)."""
    return {"ks": ["peres33", "peres24", "-"], "cli": ["peres33"]}.get(name, [])


def cycle(st: SimpleNamespace, rng, runner=None) -> list[Op]:
    """One shuffled cycle of ops.  CLI ops execute through ``runner(argv)``."""
    if st.name == "cli":
        ops = [Op(cmd, lambda a=argv: runner(a), lambda r, c=check: _cli_result(r, c))
               for cmd, argv, check in _cli_cycle(st, rng)]
    else:
        ops = {"density": _density_cycle, "povm": _povm_cycle, "ks": _ks_cycle}[st.name](st, rng)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# density: dims 3-5; true/false rays at three eps, frames at two


def _density_cycle(st, rng) -> list[Op]:
    ks = st.ks
    ops = []
    for n in (3, 4, 5):
        for eps in (E2, E4, E6):
            t = gen.unit_ray(rng, n)
            ops.append(Op("nearest_true_ray",
                          lambda t=t, e=eps: ks.nearest_true_ray(t, e),
                          lambda r, t=t, e=eps: ([r.object], verify.check_true_ray(
                              r.object, r.certificate, t, e))))
            t = gen.unit_ray(rng, n)
            ops.append(Op("false_ray_near",
                          lambda t=t, e=eps: ks.false_ray_near(t, e),
                          lambda r, t=t, e=eps: ([r.object, r.witness], verify.check_false_ray(
                              r.object, r.certificate, r.witness, t, e, st.truth_sum))))
        for eps in (E2, E4):
            f = gen.orthonormal_frame(rng, n)
            ops.append(Op("suitable_frame_near",
                          lambda f=f, e=eps: ks.suitable_frame_near(f, e),
                          lambda r, f=f, e=eps: ([r.object], verify.check_frame(
                              r.object, r.certificate, f, e, st.truth_sum))))
    return ops


# ---------------------------------------------------------------------------
# povm: float POVMs made suitable; exact Q(sqrt2) elements classified


def quad_hermitian(ks, rows):
    return ks.QuadHermitian(
        [[ks.QuadComplex(ks.QuadRational(*re), ks.QuadRational(*im)) for re, im in row]
         for row in rows])


def _povm_cycle(st, rng) -> list[Op]:
    ks = st.ks
    ops = []
    for n in (2, 3, 4):
        for m in (2, 3, 4, 5):
            for eps in (E2, E4):
                mats = gen.blended_povm(rng, n, m)
                ops.append(Op("make_suitable_near",
                              lambda t=mats, e=eps: ks.make_suitable_near(t, e),
                              lambda r, t=mats, e=eps: (
                                  [r], verify.check_povm(r, t, e, st.psd_check))))
        for kind in ("true", "false", "rational", "edge"):
            rows = gen.quad_element(rng, n, kind)
            a = quad_hermitian(ks, rows)
            ops.append(Op("classify_with_witness",
                          lambda a=a: ks.classify_with_witness(a),
                          lambda r, rows=rows: (
                              [r[1]], verify.check_witness(rows, r[0], r[1], st.psd_check))))
    return ops


# ---------------------------------------------------------------------------
# ks: loads, full-set solves and perturbations, and many small sub-instances

# Sub-instances per cycle: every (parent set, size cap 12..18) pair twelve
# times, 252 in all, with the contexts drawn by the seed.  With the 9
# full-set ops a cycle holds 261 ops and takes about 17 s, so a run measures
# one whole cycle.  Full-set ops are 3.4% of the ops and all slower than any
# sub-instance, so p90 falls in the upper tail of the sub-instance latencies
# (their 93rd percentile) rather than on the jump to the full-set ones.
KS_SUB_CAPS = range(12, 19)
KS_SUB_REPEAT = 12


def _solve(ks, rs):
    g = ks.build_graph(rs)
    return g, ks.find_ks_coloring(g)


def _ks_cycle(st, rng) -> list[Op]:
    ks = st.ks
    ops = []
    for name in ("peres33", "peres24", "r40"):
        rs, rows, ref = st.sets[name], st.rows[name], st.refs[name]
        if name == "r40":
            load = lambda: ks.load_rayset(st.r40_text)
        else:
            load = lambda name=name: ks.load_builtin(name)
        ops.append(Op(f"load:{name}", load,
                      lambda r, rs=rs, rows=rows: ([], verify.check_loaded(r, rows, rs.labels))))
        ops.append(Op(f"solve:{name}", lambda rs=rs: _solve(ks, rs),
                      lambda r, ref=ref: ([], _check_unsat(st, r, ref))))
        # peres24 and r40 raise ResourceLimitError here: see README.md.
        ops.append(Op(f"perturb:{name}", lambda rs=rs: ks.perturb_to_suitable(rs, E4),
                      lambda r, rows=rows, ref=ref: (
                          [c.frame for c in r.contexts],
                          verify.check_perturbation(r, rows, ref, E4))))
    subs = [(name, cap) for _ in range(KS_SUB_REPEAT)
            for name in ("peres33", "peres24", "r40") for cap in KS_SUB_CAPS]
    for name, cap in subs:
        parent, ref = st.sets[name], st.refs[name]
        idx = gen.sub_ray_set(rng, list(ref.contexts), cap)
        sub = ks.RaySet(parent.dimension, [parent.rays[i] for i in idx],
                        [parent.labels[i] for i in idx])
        sub_ref = RefGraph.restricted(ref, idx)
        ops.append(Op("sub_solve", lambda sub=sub: _solve(ks, sub),
                      lambda r, sub_ref=sub_ref: ([], verify.check_solve(
                          r[0], r[1], sub_ref, st.is_valid_coloring, st.brute_force))))
    return ops


def _check_unsat(st, result, ref) -> None:
    g, coloring = result
    require(coloring is None, "a full KS set was reported colorable")
    verify.check_solve(g, coloring, ref, st.is_valid_coloring)


# ---------------------------------------------------------------------------
# cli: one child process per op

CLI_CODE = "import sys; from kscolor.cli import main; sys.exit(main())"


def cli_env(root) -> dict:
    """Environment of child processes: ``src`` first on the path, the default
    JSON output, and bytecode cached beside the sources (inside the checkout),
    so every child after the first imports from a warm cache."""
    drop = {"KSCOLOR_FORMAT", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"}
    env = {k: v for k, v in os.environ.items() if k not in drop}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], root, env) -> tuple[int, str, str]:
    """Run one CLI command to completion; returns (exit code, stdout, stderr)."""
    p = subprocess.run([sys.executable, "-c", CLI_CODE, *argv], cwd=root, env=env,
                       capture_output=True, text=True)
    return p.returncode, p.stdout, p.stderr


def main_in_process(argv: list[str]) -> tuple[int, str, str]:
    """Run ``kscolor.cli.main`` in this process with captured output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["kscolor.cli"].main(argv)
    return code, out.getvalue(), err.getvalue()


# Per cycle: two of each single-object command, one ks-solve and two
# ks-perturb, 15 ops; runs take 7 cycles to reach 100 ops.  ks-perturb is the
# slowest command and 2/15 of the ops, so p90 falls inside its latencies
# rather than on a jump between clusters (ks-solve latencies also drift
# between two levels from run to run, so p90 is kept off them).
CLI_REPEAT = 2


def _quad_obj(q) -> dict:
    return {"rat": str(q[0]), "sqrt2": str(q[1])}


def _cli_cycle(st, rng) -> list[tuple]:
    """CLI ops as (command, argv, check) triples; the caller decides whether
    to run them as child processes or in-process."""
    ser = sys.modules["kscolor.serialize"]
    out = []
    # Sizes follow the repeat index, not the seed, so the output heights
    # (coeff_bits_*) vary little from seed to seed.
    for k in range(CLI_REPEAT):
        small, large = (2, 3)[k], (3, 4)[k]
        coords = gen.rational_ray(rng, small, k != 1)
        arg = "[" + ",".join(str(c) for c in coords) + "]"
        out.append(("classify-ray", ["classify-ray", arg],
                    lambda o, c=coords: _check_classify_ray(o, c)))

        t = gen.unit_ray(rng, large)
        out.append(("approx-true", ["approx-true", json.dumps(t), "--epsilon", "1e-4"],
                    lambda o, t=t: _check_cli_true(ser, o, t)))

        t = gen.unit_ray(rng, large)
        out.append(("false-ray", ["false-ray", json.dumps(t), "--epsilon", "1e-4"],
                    lambda o, t=t: _check_cli_false(st, ser, o, t)))

        f = gen.orthonormal_frame(rng, (4, 3)[k])
        out.append(("suitable-frame", ["suitable-frame", json.dumps(f), "--epsilon", "1e-4"],
                    lambda o, f=f: _check_cli_frame(st, ser, o, f)))

        mats = gen.blended_povm(rng, small, (2, 4)[k])
        doc = {"elements": [[[[z.real, z.imag] for z in row] for row in m] for m in mats]}
        out.append(("make-suitable-povm",
                    ["make-suitable-povm", json.dumps(doc), "--epsilon", "1e-4"],
                    lambda o, m=mats: _check_cli_povm(st, ser, o, m)))

        if k != 1:
            legs = gen.exact_suitable_frame(rng, large)
            obj = {"kind": "frame",
                   "legs": [[{"re": str(a), "im": str(b)} for a, b in leg]
                            for leg in legs]}
        else:
            elems = gen.exact_suitable_povm(rng, small)
            obj = {"kind": "povm",
                   "elements": [[[{"re": _quad_obj(re), "im": _quad_obj(im)} for re, im in row]
                                 for row in e] for e in elems]}
        out.append(("verify-decomposition", ["verify-decomposition", json.dumps(obj)],
                    _check_cli_sum))
    out.append(("ks-solve", ["ks-solve", "peres33"], _check_cli_unsat))
    for _ in range(2):
        out.append(("ks-perturb", ["ks-perturb", "peres33", "--epsilon", "1e-4"],
                    lambda o: _check_cli_perturb(st, ser, o)))
    return out


def _cli_result(result, check):
    code, out, err = result
    if code in (2, 3, 4):
        raise DocumentedFailure(f"exit {code}: {err.strip()[:300]}")
    require(code == 0, f"exit {code}: {err.strip()[-300:]}")
    return check(json.loads(out))


def _check_classify_ray(o, coords):
    want = "TRUE" if verify.is_true_coords(coords) else "UNDETERMINED"
    require(o == {"value": want}, f"classify-ray said {o}, want {want}")
    return [], None


def _check_cli_true(ser, o, t):
    v = ser.vector_from_obj(o["vector"])
    return [o["vector"]], verify.check_true_ray(v, o["value"], t, E4)


def _check_cli_false(st, ser, o, t):
    v = ser.vector_from_obj(o["vector"])
    w = ser.frame_from_obj(o["witness"])
    legs = [verify.gvec(leg) for leg in w]
    verify.check_certificate(o["witness_values"], legs, verify.check_frame_legs(legs, len(legs)))
    return [o["vector"], o["witness"]["legs"]], verify.check_false_ray(
        v, o["value"], w, t, E4, st.truth_sum)


def _check_cli_frame(st, ser, o, f):
    frame = ser.frame_from_obj(o["frame"])
    require(o["sum"] == 1, f"suitable-frame sum is {o['sum']}")
    return [o["frame"]["legs"]], verify.check_frame(frame, o["values"], f, E4, st.truth_sum)


def _check_cli_povm(st, ser, o, mats):
    dec = ser.povm_from_obj(o)
    require(o["sum"] == 1, f"make-suitable-povm sum is {o['sum']}")
    verify.check_povm(dec, mats, E4, st.psd_check)
    return [o["elements"]], None


def _check_cli_sum(o):
    require(o == {"sum": 1}, f"verify-decomposition said {o}")
    return [], None


def _check_cli_unsat(o):
    require(o == {"result": "UNSAT"}, f"ks-solve peres33 said {o}")
    return [], None


def _check_cli_perturb(st, ser, o):
    rs = st.sets["peres33"]
    index = {label: k for k, label in enumerate(rs.labels)}
    report = SimpleNamespace(
        all_suitable=o["all_suitable"],
        all_shared_diverge=o["all_shared_diverge"],
        contexts=[SimpleNamespace(index=c["index"],
                                  ray_indices=tuple(index[x] for x in c["rays"]),
                                  frame=[ser.vector_from_obj(leg) for leg in c["legs"]])
                  for c in o["contexts"]])
    for c in o["contexts"]:
        require(c["sum"] == 1, f"context {c['index']} sum is {c['sum']}")
    verify.check_perturbation(report, st.rows["peres33"], st.refs["peres33"], E4)
    return [[c["legs"] for c in o["contexts"]]], None
