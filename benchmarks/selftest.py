"""Self-tests of the benchmark: every verifier accepts real results and
rejects deliberately corrupted ones.

    python3 benchmarks/selftest.py

Standard library ``unittest``; about a minute on one core.
"""

from __future__ import annotations

import json
import random
import sys
import unittest
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from verify import RefGraph, VerifyError  # noqa: E402

ks = run.import_kscolor()
E4 = workloads.E4


def nudge(vector, k: int = 0, by=Fraction(1, 1000)):
    """A GVector with real coordinate k moved by ``by``."""
    coords = list(vector.real_coordinates())
    coords[k] += by
    return ks.GVector.from_reals(coords)


def run_ops(ops):
    tally = run.Tally()
    for op in ops:
        run.execute(op, tally, ks.KscolorError)
    return tally


class WorkloadOpsPass(unittest.TestCase):
    """A few ops of every kind run with every verifier passing."""

    def check_clean(self, tally):
        self.assertEqual(tally.failures, [])
        self.assertGreater(len(tally.heights), 0)

    def test_density(self):
        st = workloads.prepare(ks, "density", gen.workload_rng("density", 7))
        tally = run_ops(workloads.cycle(st, gen.workload_rng("density", 7)))
        self.check_clean(tally)
        self.assertEqual(len(tally.ratios), 24)
        self.assertLess(max(tally.ratios), 1)

    def test_povm(self):
        st = workloads.prepare(ks, "povm", gen.workload_rng("povm", 7))
        tally = run_ops(workloads.cycle(st, gen.workload_rng("povm", 7)))
        self.check_clean(tally)
        self.assertEqual(set(tally.attempted), {"make_suitable_near", "classify_with_witness"})

    def test_ks(self):
        rng = gen.workload_rng("ks", 7)
        st = workloads.prepare(ks, "ks", rng)
        ops = workloads.cycle(st, rng)
        # The perturbations of peres24 and r40 are the known failures (README.md).
        chosen = [op for op in ops if op.kind not in ("perturb:peres24", "perturb:r40")]
        chosen = [op for op in chosen if op.kind != "sub_solve"] + \
                 [op for op in chosen if op.kind == "sub_solve"][:12]
        tally = run_ops(chosen)
        self.check_clean(tally)
        self.assertEqual(len(tally.attempted), 8)

    def test_cli_in_process_and_spawned(self):
        rng = gen.workload_rng("cli", 7)
        st = workloads.prepare(ks, "cli", rng)
        ops = workloads.cycle(st, rng, workloads.main_in_process)
        self.check_clean(run_ops(ops))
        env = workloads.cli_env(run.ROOT)
        ops = workloads.cycle(st, rng, lambda argv: workloads.spawn(argv, run.ROOT, env))
        first = {}
        for op in ops:
            first.setdefault(op.kind, op)
        self.assertEqual(set(first), set(run.CLI_COMMANDS))
        self.assertEqual(run_ops([first["classify-ray"], first["ks-solve"]]).failures, [])


class VerifiersReject(unittest.TestCase):
    """Each verifier rejects a corrupted result."""

    @classmethod
    def setUpClass(cls):
        cls.rng = random.Random(11)
        cls.target = gen.unit_ray(cls.rng, 3)
        cls.frame_target = gen.orthonormal_frame(cls.rng, 3)

    def test_true_ray(self):
        r = ks.nearest_true_ray(self.target, E4)
        verify.check_true_ray(r.object, r.certificate, self.target, E4)
        with self.assertRaises(VerifyError):  # far from the target
            verify.check_true_ray(nudge(r.object, 2, Fraction(1, 2)), "TRUE", self.target, E4)
        with self.assertRaises(VerifyError):  # first coordinate no longer 3-adic
            coords = list(r.object.real_coordinates())
            coords[0] = Fraction(coords[0].numerator * 3, coords[0].denominator)
            verify.check_true_ray(ks.GVector.from_reals(coords), "TRUE", self.target, E4)

    def test_false_ray(self):
        r = ks.false_ray_near(self.target, E4)
        args = (self.target, E4, ks.truth_sum)
        verify.check_false_ray(r.object, r.certificate, r.witness, *args)
        legs = list(r.witness)
        legs[2] = nudge(legs[2], 1)
        with self.assertRaises(VerifyError):
            verify.check_false_ray(r.object, r.certificate, legs, *args)
        with self.assertRaises(VerifyError):
            verify.check_false_ray(r.witness[0], r.certificate, r.witness, *args)

    def test_frame(self):
        r = ks.suitable_frame_near(self.frame_target, E4)
        verify.check_frame(r.object, r.certificate, self.frame_target, E4, ks.truth_sum)
        legs = list(r.object)
        legs[1] = nudge(legs[1], 3)
        with self.assertRaises(VerifyError):
            verify.check_frame(legs, r.certificate, self.frame_target, E4, ks.truth_sum)
        swapped = list(reversed(r.certificate))
        with self.assertRaises(VerifyError):
            verify.check_frame(r.object, swapped, self.frame_target, E4, ks.truth_sum)

    def corrupt_povm(self, dec, delta):
        """Elements of dec with the (1,1) entry of the first one moved by delta."""
        mats = [e.matrix for e in dec.elements]
        rows = [list(r) for r in mats[0].rows]
        rows[0][0] = rows[0][0] + ks.QuadComplex(ks.QuadRational(delta))
        mats[0] = ks.QuadHermitian(rows)
        return SimpleNamespace(elements=[SimpleNamespace(matrix=m) for m in mats])

    def test_povm(self):
        targets = gen.blended_povm(self.rng, 3, 3)
        dec = ks.make_suitable_near(targets, E4)
        verify.check_povm(dec, targets, E4, ks.psd_check)
        with self.assertRaises(VerifyError):
            verify.check_povm(self.corrupt_povm(dec, Fraction(1, 10**9)), targets, E4, ks.psd_check)
        with self.assertRaises(VerifyError):  # too far from the targets
            verify.check_povm(dec, gen.blended_povm(self.rng, 3, 3), E4, ks.psd_check)

    def test_witness(self):
        rows = gen.quad_element(self.rng, 3, "false")
        value, witness = ks.classify_with_witness(workloads.quad_hermitian(ks, rows))
        verify.check_witness(rows, value, witness, ks.psd_check)
        with self.assertRaises(VerifyError):
            verify.check_witness(rows, value, self.corrupt_povm(witness, Fraction(1, 7)),
                                 ks.psd_check)
        with self.assertRaises(VerifyError):
            verify.check_witness(rows, "UNDETERMINED-NO-WITNESS", None, ks.psd_check)
        edge = gen.quad_element(self.rng, 3, "edge")
        verify.check_witness(edge, *ks.classify_with_witness(
            workloads.quad_hermitian(ks, edge)), ks.psd_check)

    def test_solve_and_graph(self):
        rs = ks.load_builtin("peres24")
        ref = RefGraph(verify.rayset_rows(rs), rs.dimension)
        idx = gen.sub_ray_set(self.rng, list(ref.contexts), 14)
        sub = ks.RaySet(4, [rs.rays[i] for i in idx], [rs.labels[i] for i in idx])
        sub_ref = RefGraph.restricted(ref, idx)
        g = ks.build_graph(sub)
        coloring = ks.find_ks_coloring(g)
        args = (ks.is_valid_coloring, ks.brute_force_coloring)
        verify.check_solve(g, coloring, sub_ref, *args)
        flipped = dict(coloring)
        flipped[0] = 1 - flipped[0]
        with self.assertRaises(VerifyError):
            verify.check_solve(g, flipped, sub_ref, *args)
        with self.assertRaises(VerifyError):  # UNSAT claimed for a colorable set
            verify.check_solve(g, None, sub_ref, ks.is_valid_coloring)
        with self.assertRaises(VerifyError):  # a graph with one pair missing
            bad = SimpleNamespace(num_rays=g.num_rays, pairs=g.pairs[1:], contexts=g.contexts)
            verify.check_graph(bad, sub_ref)

    def test_perturbation(self):
        rs = ks.load_builtin("peres33")
        rows = verify.rayset_rows(rs)
        ref = RefGraph(rows, rs.dimension)
        rep = ks.perturb_to_suitable(rs, E4)
        verify.check_perturbation(rep, rows, ref, E4)
        ctx = rep.contexts[3]
        legs = list(ctx.frame)
        legs[0] = nudge(legs[0], 0, Fraction(1, 10**12))
        bad_ctx = SimpleNamespace(index=ctx.index, ray_indices=ctx.ray_indices, frame=legs)
        bad = SimpleNamespace(all_suitable=True, all_shared_diverge=True,
                              contexts=rep.contexts[:3] + [bad_ctx] + rep.contexts[4:])
        with self.assertRaises(VerifyError):
            verify.check_perturbation(bad, rows, ref, E4)
        with self.assertRaises(VerifyError):
            verify.check_perturbation(SimpleNamespace(**{**vars(rep), "all_suitable": False}),
                                      rows, ref, E4)

    def test_loaded(self):
        rs = ks.load_builtin("peres33")
        rows = verify.rayset_rows(rs)
        verify.check_loaded(rs, rows, rs.labels)
        rows[5] = rows[6]
        with self.assertRaises(VerifyError):
            verify.check_loaded(rs, rows, rs.labels)

    def test_cli_checks(self):
        st = workloads.prepare(ks, "cli", random.Random(3))
        ops = {op.kind: op for op in workloads.cycle(
            st, random.Random(3), workloads.main_in_process)}
        code, out, err = ops["classify-ray"].run()
        ops["classify-ray"].check((code, out, err))
        flipped = out.replace("UNDETERMINED", "T").replace("TRUE", "UNDETERMINED").replace(
            '"T"', '"TRUE"')
        with self.assertRaises(VerifyError):
            ops["classify-ray"].check((0, flipped, ""))
        with self.assertRaises(VerifyError):
            ops["ks-solve"].check((0, '{"result":"SAT","assignment":{}}', ""))
        with self.assertRaises(workloads.DocumentedFailure):
            ops["ks-solve"].check((4, "", '{"error":"x"}'))
        with self.assertRaises(VerifyError):
            ops["ks-solve"].check((1, "", "Traceback"))
        code, out, err = ops["make-suitable-povm"].run()
        doc = json.loads(out)
        doc["elements"][0][0][0]["re"]["rat"] = "7/8"
        with self.assertRaises((VerifyError, ks.KscolorError)):
            ops["make-suitable-povm"].check((0, json.dumps(doc), ""))


class Pieces(unittest.TestCase):
    def test_reference_graphs(self):
        for name in ("peres33", "peres24"):
            rs = ks.load_builtin(name)
            ref = RefGraph(verify.rayset_rows(rs), rs.dimension)
            self.assertEqual((len(ref.contexts), len(ref.pairs)), workloads.SET_COUNTS[name])
            self.assertFalse(ref.colorable())
            verify.check_graph(ks.build_graph(rs), ref)
        rays = gen.zero_pm1_rays()
        text = gen.zero_pm1_text(rays, *workloads.SET_COUNTS["r40"])
        rs = ks.load_rayset(text)
        ref = RefGraph(verify.rayset_rows(rs), 4)
        self.assertEqual(len(rays), 40)
        self.assertEqual((len(ref.contexts), len(ref.pairs)), workloads.SET_COUNTS["r40"])
        self.assertFalse(ref.colorable())
        self.assertTrue(RefGraph.restricted(ref, list(range(12))).colorable())

    def test_generators_are_seeded(self):
        a, b = random.Random(5), random.Random(5)
        self.assertEqual(gen.blended_povm(a, 3, 4), gen.blended_povm(b, 3, 4))
        self.assertEqual(gen.exact_suitable_frame(a, 4), gen.exact_suitable_frame(b, 4))
        self.assertEqual(gen.exact_suitable_povm(a, 3), gen.exact_suitable_povm(b, 3))

    def test_exact_generators_are_suitable(self):
        rng = random.Random(9)
        for n in (2, 3, 4):
            legs = gen.exact_suitable_frame(rng, n)
            self.assertEqual(verify.check_frame_legs(legs, n), 0)
            elems = gen.exact_suitable_povm(rng, n)
            dec = ks.PovmDecomposition([workloads.quad_hermitian(ks, e) for e in elems])
            self.assertTrue(ks.is_suitable(dec))
            for kind, want in (("true", "TRUE"), ("false", "FALSE"), ("rational", "FALSE"),
                               ("edge", "UNDETERMINED-NO-WITNESS")):
                a = workloads.quad_hermitian(ks, gen.quad_element(rng, n, kind))
                self.assertEqual(str(ks.classify_with_witness(a)[0]), want)

    def test_coeff_heights(self):
        q = ks.QuadComplex(ks.QuadRational(Fraction(3, 8), Fraction(-1, 2)))
        # 3/8, -1/2, then the zero imaginary part (0 and 0, denominator 1).
        self.assertEqual(verify.coeff_heights([q, "5/1024", 0, Fraction(7)], []),
                         [4, 2, 1, 1, 11, 1, 3])

    def test_benchmark_json_matches(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
                         run.per_layer_spec())
        self.assertEqual([w["name"] for w in doc["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
