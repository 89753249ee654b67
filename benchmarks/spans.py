"""Span tracing around the public functions of ``kscolor`` modules.

``Tracer.install`` wraps each listed function and rebinds every name in the
loaded ``kscolor`` modules that refers to it (modules import each other's
functions by name), so calls between modules pass through the wrapper.  The
source files are not touched, and ``uninstall`` restores the originals.

Each span is ``[name, start_ns, end_ns, parent_index, note]``; spans stay in
memory and are summarized (and optionally written out) after the run.  A
layer's self time is its duration minus the time its direct child spans
cover; spans of one benchmark op share the op's root span.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# module -> public functions traced.  Each entry is a layer boundary the
# per-layer metrics are read from.
TRACED = {
    "fields": ["rationalize", "adjust_denominator", "v3"],
    "linalg": ["gram_schmidt", "ray_dist2", "psd_check", "frob_dist2"],
    "coloring": ["classify_ray", "classify_in_frame", "truth_sum"],
    "density": ["nearest_true_ray", "false_ray_near", "suitable_frame_near"],
    "povm": ["make_suitable_near", "classify_with_witness"],
    "kscheck": ["load_builtin", "load_rayset", "build_graph",
                "find_ks_coloring", "perturb_to_suitable"],
    "serialize": None,  # every public function
    "cli": ["main"],
}

# A note recorded on a span from the wrapped function's result.
NOTES = {"kscheck.build_graph": lambda g: len(g.contexts)}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def span(self, name: str):
        """Context manager for a span that is not a wrapped call (an op root)."""
        return _Span(self, name)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter_ns(), 0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    rec[4] = note(result)
                return result
            finally:
                self._close(rec)

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "kscolor" or k.startswith("kscolor."))]
        for mod_name, names in TRACED.items():
            mod = sys.modules.get(f"kscolor.{mod_name}")
            if mod is None:  # never imported, so never called
                continue
            if names is None:
                names = [k for k, v in vars(mod).items()
                         if callable(v) and not k.startswith("_")
                         and getattr(v, "__module__", None) == mod.__name__
                         and not isinstance(v, type)]
            for fn_name in names:
                orig = getattr(mod, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._restore.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore.clear()

    def write(self, path) -> None:
        """Write all spans as gzip-compressed JSON (names interned)."""
        names: dict[str, int] = {}
        rows = [[names.setdefault(s[0], len(names)), s[1], s[2], s[3], s[4]]
                for s in self.spans]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows}, fh, separators=(",", ":"))

    def summary(self) -> dict:
        """Per name: calls, total ms, self ms, and total ms counted only for
        spans with no ancestor of the same module (so nested serializer or
        density calls are not counted twice)."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_ns[s[3]] += s[2] - s[1]
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0,
                                                   "outer_ms": 0.0})
        for k, s in enumerate(spans):
            dur = s[2] - s[1]
            row = out[s[0]]
            row["calls"] += 1
            row["ms"] += dur / 1e6
            row["self_ms"] += (dur - child_ns[k]) / 1e6
            mod = s[0].split(".")[0]
            p = s[3]
            while p >= 0 and spans[p][0].split(".")[0] != mod:
                p = spans[p][3]
            if p < 0:
                row["outer_ms"] += dur / 1e6
        return dict(out)

    def roots(self) -> list[int]:
        """Index of the root span (the benchmark op) of every span."""
        out: list[int] = []
        for k, s in enumerate(self.spans):
            out.append(k if s[3] < 0 else out[s[3]])
        return out

    def children_named(self, parent_names: set[str], child_name: str) -> tuple[int, int]:
        """(number of spans named in parent_names, number of child_name spans
        directly under one of them)."""
        n_parent = sum(1 for s in self.spans if s[0] in parent_names)
        n_child = sum(1 for s in self.spans
                      if s[0] == child_name and s[3] >= 0
                      and self.spans[s[3]][0] in parent_names)
        return n_parent, n_child

    def descendants(self, root_name: str, child_name: str) -> list[tuple[int, list]]:
        """For each span named root_name: its child_name descendants."""
        kids: dict[int, list[int]] = defaultdict(list)
        for k, s in enumerate(self.spans):
            if s[3] >= 0:
                kids[s[3]].append(k)
        found = []
        for k, s in enumerate(self.spans):
            if s[0] != root_name:
                continue
            stack, hits = list(kids[k]), []
            while stack:
                c = stack.pop()
                if self.spans[c][0] == child_name:
                    hits.append(self.spans[c])
                stack.extend(kids[c])
            found.append((k, hits))
        return found


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.rec = self.tracer._open(self.name)
        return self.rec

    def __exit__(self, *exc):
        self.tracer._close(self.rec)
        return False
