"""Benchmark for kscolor: closed-loop workloads with exactly verified outputs.

    python3 benchmarks/run.py --workload density|povm|ks|cli|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Standard library only; ``kscolor`` is
imported from ``src/`` of the same checkout (the run fails without it).

One client runs in a single process with no threads (``cli`` runs one child
process at a time).  Ops are drawn in whole cycles of a fixed mix (see
``workloads.py``) until ``--seconds`` of wall time are used, and at least
``MIN_OPS`` ops so that at least ten latencies lie beyond p90.  Each op is
timed alone; its result is then checked exactly, outside the timed span.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs a
share of the time untraced, then reruns the same ops with spans around the
public functions of every ``kscolor`` module (``spans.py``), and prints the
per-layer metrics.  ``--workload all`` runs the four workloads one after
the other and prints every metric by name.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A per-run record
with an environment block (and, when traced, the spans) is written under
``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import gen
import workloads
from spans import Tracer
from verify import VerifyError, coeff_heights

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_results"
WORKLOADS = ("density", "povm", "ks", "cli")
MIN_OPS = 100
SETUP_REPEATS = 5
TRACE_UNTRACED_SHARE = 0.35  # of --seconds, for the untraced pass of a traced run

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("success_rate", "fraction"),
    ("coeff_bits_max", "bits"),
    ("coeff_bits_mean", "bits"),
    ("peak_rss_mb", "MB"),
]

# Traced functions reported per op of the traced pass.
LAYER_FUNCS = [
    ("density.nearest_true_ray", "calls ms self_ms"),
    ("density.false_ray_near", "calls ms self_ms"),
    ("density.suitable_frame_near", "calls ms self_ms"),
    ("linalg.gram_schmidt", "calls ms self_ms"),
    ("linalg.ray_dist2", "calls ms"),
    ("fields.rationalize", "calls ms"),
    ("fields.adjust_denominator", "calls"),
    ("fields.v3", "calls ms"),
    ("linalg.psd_check", "calls ms"),
    ("linalg.frob_dist2", "calls ms"),
    ("povm.make_suitable_near", "calls ms self_ms"),
    ("povm.classify_with_witness", "calls ms"),
    ("coloring.classify_ray", "calls ms"),
    ("coloring.classify_in_frame", "calls ms"),
    ("coloring.truth_sum", "calls"),
    ("kscheck.load_builtin", "calls ms self_ms"),
    ("kscheck.load_rayset", "calls ms"),
    ("kscheck.build_graph", "calls ms self_ms"),
    ("kscheck.find_ks_coloring", "calls ms self_ms"),
    ("kscheck.perturb_to_suitable", "calls ms self_ms"),
]
CLI_COMMANDS = ["classify-ray", "approx-true", "false-ray", "suitable-frame",
                "make-suitable-povm", "verify-decomposition", "ks-solve", "ks-perturb"]
LAYER_EXTRA = [
    ("density.attempts_per_result", "ratio", "lower"),
    ("density.dist_ratio_max", "ratio", "higher"),
    ("povm.psd_checks_per_result", "ratio", "lower"),
    ("kscheck.build_graphs_per_op", "ratio", "lower"),
    ("kscheck.frames_per_context", "ratio", "lower"),
    ("serialize.calls", "calls/op", "lower"),
    ("serialize.ms", "ms/op", "lower"),
    ("cli.spawn_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    *[(f"cli.{c}.ms", "ms", "lower") for c in CLI_COMMANDS],
    ("trace.overhead_frac", "fraction", "lower"),
]


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    units = {"calls": "calls/op", "ms": "ms/op", "self_ms": "ms/op"}
    out = [(f"{fn}.{field}", units[field], "lower")
           for fn, fields in LAYER_FUNCS for field in fields.split()]
    return out + LAYER_EXTRA


# ---------------------------------------------------------------------------
# set-up


def import_kscolor():
    init = ROOT / "src" / "kscolor" / "__init__.py"
    if not init.is_file():
        sys.exit("error: src/kscolor not found; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import kscolor

    if Path(kscolor.__file__).resolve() != init.resolve():
        sys.exit(f"error: kscolor was imported from {kscolor.__file__}, not this checkout")
    return kscolor


SETUP_CODE = """import sys, time
t0 = time.perf_counter()
import kscolor
for name in sys.argv[1:]:
    if name == "-":
        kscolor.load_rayset(sys.stdin.read())
    else:
        kscolor.load_builtin(name)
print(repr(time.perf_counter() - t0))
"""


def measure_setup(names: list[str], text: str, env: dict) -> list[float]:
    """Set-up time of fresh processes: import kscolor and load the ray sets."""
    samples = []
    for _ in range(SETUP_REPEATS):
        p = subprocess.run([sys.executable, "-c", SETUP_CODE, *names], input=text,
                           capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
        if p.returncode != 0:
            raise RuntimeError(f"set-up child failed: {p.stderr.strip()[-500:]}")
        samples.append(float(p.stdout.strip()))
    return samples


# ---------------------------------------------------------------------------
# measurement


class Tally:
    """Latencies, outcomes and output heights of the ops one pass ran."""

    def __init__(self):
        self.lat: list[float] = []
        self.by_kind: dict[str, list[float]] = defaultdict(list)
        self.failed = Counter()
        self.attempted = Counter()
        self.wrong = 0
        self.heights: list[int] = []
        self.ratios: list[float] = []
        self.failures: list[str] = []

    def fail(self, kind: str, message: str, wrong: bool) -> None:
        self.failed[kind] += 1
        self.wrong += wrong
        if len(self.failures) < 20:
            self.failures.append(f"{kind}: {'WRONG ' if wrong else ''}{message}")

    @property
    def ok(self) -> int:
        return len(self.lat) - sum(self.failed.values())


def execute(op, tally: Tally, ks_error, tracer: Tracer | None = None) -> None:
    """Time one op, then verify its result; a failure is counted, never raised."""
    error = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = op.run()
        else:
            with tracer.span(f"op.{op.kind}"):
                result = op.run()
    except ks_error as exc:
        error = (f"{type(exc).__name__}: {exc}", False)
    except Exception:  # a crash of the program is a wrong result, not a stop
        error = (traceback.format_exc(limit=3), True)
    lat = time.perf_counter() - t0
    tally.lat.append(lat)
    tally.by_kind[op.kind].append(lat)
    tally.attempted[op.kind] += 1
    if error is None:
        try:
            outputs, ratio = op.check(result)
        except workloads.DocumentedFailure as exc:
            error = (str(exc), False)
        except VerifyError as exc:
            error = (str(exc), True)
        except Exception:
            error = (traceback.format_exc(limit=3), True)
        else:
            coeff_heights(outputs, tally.heights)
            if ratio is not None:
                tally.ratios.append(ratio)
    if error is not None:
        tally.fail(op.kind, *error)


def measure(make_cycle, seconds: float, tally: Tally, ks_error, min_ops: int,
            keep: bool = False) -> list[list]:
    """Run whole cycles until about ``seconds`` of wall time (and at least
    ``min_ops`` ops) are used.  Returns the cycles run when ``keep`` is set
    (for a traced rerun); otherwise each cycle is dropped once run, so its
    inputs do not add to the peak RSS of later cycles."""
    start = time.perf_counter()
    done, n_cycles = [], 0
    while True:
        ops = make_cycle()
        for op in ops:
            execute(op, tally, ks_error)
        n_cycles += 1
        if keep:
            done.append(ops)
        del ops
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / n_cycles / 2 >= seconds and len(tally.lat) >= min_ops:
            return done
        if elapsed >= 3 * seconds:
            return done


def end_to_end(tally: Tally, setup: list[float], rss_mb: float) -> dict:
    lat_ms = sorted(x * 1000 for x in tally.lat)
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
    values = {
        "setup_s": statistics.median(setup),
        "throughput_ops_s": tally.ok / sum(tally.lat),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": p90,
        "success_rate": tally.ok / len(tally.lat),
        "coeff_bits_max": max(tally.heights, default=0),
        "coeff_bits_mean": statistics.fmean(tally.heights) if tally.heights else 0.0,
        "peak_rss_mb": rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


# ---------------------------------------------------------------------------
# traced run


def per_layer(tracer: Tracer, traced: Tally, untraced: Tally, cli_extra: dict) -> dict:
    summary = tracer.summary()
    n_ops = max(1, len(traced.lat))
    values = {}
    for fn, fields in LAYER_FUNCS:
        row = summary.get(fn, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for field in fields.split():
            values[f"{fn}.{field}"] = row[field] / n_ops

    def calls(name):
        return summary.get(name, {"calls": 0})["calls"]

    def ratio(num, den):
        return num / den if den else 0.0

    parents, nested = tracer.children_named(
        {"density.false_ray_near", "density.suitable_frame_near"}, "density.nearest_true_ray")
    values["density.attempts_per_result"] = ratio(nested, parents)
    values["density.dist_ratio_max"] = max(traced.ratios, default=0.0)
    values["povm.psd_checks_per_result"] = ratio(
        calls("linalg.psd_check"),
        calls("povm.make_suitable_near") + calls("povm.classify_with_witness"))

    roots = tracer.roots()
    ks_ops = {roots[k] for k, s in enumerate(tracer.spans) if s[0].startswith("kscheck.")}
    values["kscheck.build_graphs_per_op"] = ratio(calls("kscheck.build_graph"), len(ks_ops))
    frames = contexts = 0
    for _, hits in tracer.descendants("kscheck.perturb_to_suitable", "density.suitable_frame_near"):
        frames += len(hits)
    for _, hits in tracer.descendants("kscheck.perturb_to_suitable", "kscheck.build_graph"):
        contexts += hits[0][4] if hits else 0
    values["kscheck.frames_per_context"] = ratio(frames, contexts)

    ser = [row for name, row in summary.items() if name.startswith("serialize.")]
    values["serialize.calls"] = sum(r["calls"] for r in ser) / n_ops
    values["serialize.ms"] = sum(r["outer_ms"] for r in ser) / n_ops
    main = summary.get("cli.main")
    values["cli.main.self_ms"] = main["self_ms"] / main["calls"] if main else 0.0
    for name in ("cli.spawn_ms", "cli.import_ms", *[f"cli.{c}.ms" for c in CLI_COMMANDS]):
        values[name] = cli_extra.get(name, 0.0)
    values["trace.overhead_frac"] = 1 - sum(untraced.lat) / len(untraced.lat) / (
        sum(traced.lat) / len(traced.lat))
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_spec()}


def spawn_ms(code: str, env: dict) -> float:
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=60)
        samples.append((time.perf_counter() - t0) * 1000)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# entry point


def env_block(args, tally_counts: dict) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_counts": tally_counts,
    }


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read from files; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(args) -> dict:
    ks = import_kscolor()
    rng = gen.workload_rng(args.workload, args.seed)
    st = workloads.prepare(ks, args.workload, rng)
    env = workloads.cli_env(ROOT)
    record: dict = {}

    if args.workload == "cli":
        subprocess.run([sys.executable, "-c", "import kscolor.cli"], env=env, cwd=ROOT,
                       check=True, timeout=120)  # warm the bytecode cache

        def runner(argv):
            return workloads.spawn(argv, ROOT, env)
    else:
        runner = None

    def make_cycle(run=runner):
        return workloads.cycle(st, rng, run)

    tallies = []
    if not args.trace:
        loads = workloads.setup_loads(args.workload)
        setup = measure_setup(loads, getattr(st, "r40_text", "") if "-" in loads else "", env)
        tally = Tally()
        measure(make_cycle, args.seconds, tally, ks.KscolorError, MIN_OPS)
        tallies.append(tally)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        metrics = end_to_end(tally, setup, peak_rss_mb(who))
        record["setup_samples_s"] = setup
    else:
        untraced, traced, cli_extra = Tally(), Tally(), {}
        budget = args.seconds * TRACE_UNTRACED_SHARE
        if args.workload == "cli":
            sub = Tally()
            measure(make_cycle, budget, sub, ks.KscolorError, 1)
            tallies.append(sub)
            for cmd in CLI_COMMANDS:
                cli_extra[f"cli.{cmd}.ms"] = statistics.median(sub.by_kind[cmd]) * 1000
            cli_extra["cli.spawn_ms"] = spawn_ms("pass", env)
            cli_extra["cli.import_ms"] = spawn_ms("import kscolor.cli", env) - cli_extra["cli.spawn_ms"]
            cycles = [make_cycle(workloads.main_in_process)]
            for op in cycles[0]:
                execute(op, untraced, ks.KscolorError)
        else:
            cycles = measure(make_cycle, budget, untraced, ks.KscolorError, 1, keep=True)
        tracer = Tracer()
        tracer.install()
        try:
            for ops in cycles:
                for op in ops:
                    execute(op, traced, ks.KscolorError, tracer)
        finally:
            tracer.uninstall()
        tallies += [untraced, traced]
        metrics = per_layer(tracer, traced, untraced, cli_extra)
        record["trace_summary"] = tracer.summary()
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"{args.workload}-seed{args.seed}-trace1.spans.json.gz")

    attempted = sum(len(t.lat) for t in tallies)
    failed = sum(sum(t.failed.values()) for t in tallies)
    result = {"correct": all(t.wrong == 0 for t in tallies), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    lat_by_kind, failed_by_kind = defaultdict(list), Counter()
    for t in tallies:
        for kind, lat in t.by_kind.items():
            lat_by_kind[kind] += lat
        failed_by_kind.update(t.failed)
    counts = {kind: {"attempted": len(lat), "failed": failed_by_kind[kind],
                     "median_ms": statistics.median(lat) * 1000}
              for kind, lat in sorted(lat_by_kind.items())}
    record.update(env=env_block(args, counts), result=result,
                  failures=[f for t in tallies for f in t.failures])
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    return result


def print_result(name: str, result: dict) -> None:
    print(f"[{name}] correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric} = {m['value']!r} {m['unit']}")


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    results, status = {}, 0
    for name in WORKLOADS:
        p = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)],
                           capture_output=True, text=True, cwd=ROOT, timeout=600)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            print(f"[{name}] failed with exit code {p.returncode}: {p.stderr.strip()[-500:]}")
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        print_result(name, results[name])
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print_result(args.workload, result)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
