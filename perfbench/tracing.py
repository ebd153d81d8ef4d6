"""Spans around the package's public functions, recorded from outside.

Tracing replaces each listed function, in every ahilb module that binds
it, by a wrapper that records one span per call: name, start, end, the
span that caused it and the group it was made for.  Spans stay in memory
until the run writes them out.  Counts are taken from the same calls'
arguments and results.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from math import comb
from time import perf_counter

# span name -> (module, function).  The per-layer metric of a span is its
# name with "_s" appended: the summed time of its outermost calls, scaled
# to a fixed host speed (see calibrate.py).
SPANS = {
    "lattice.context": ("lattice", "lattice_context"),
    "lattice.junior_points": ("lattice", "junior_points"),
    "corners.newton_polygon": ("corners", "newton_polygon"),
    "corners.cyclic_word": ("corners", "cyclic_word"),
    "mmp.run_mmp": ("mmp", "run_mmp"),
    "partition.enumerate": ("partition", "enumerate_triangles"),
    "partition.build": ("partition", "build_partition"),
    "partition.knockout": ("partition", "knockout_report"),
    "fan.build": ("fan", "build_fan"),
    "fan.verify": ("fan", "verify_fan"),
    "fan.census": ("fan", "surface_census"),
    "monomials.ratios": ("monomials", "triangle_ratios"),
    "monomials.dual": ("monomials", "dual_basis"),
    "clusters.system": ("clusters", "cluster_system"),
    "clusters.verify": ("clusters", "verify_cluster"),
    "clusters.tripod": ("clusters", "tripod_basis"),
    "clusters.classify": ("clusters", "classify_cluster"),
    "verify.run_checks": ("verify", "run_checks"),
    "cli.build_document": ("cli", "build_document"),
    "cli.dump": ("cli", "_dump"),
}


def _enumerated_lines(args, kwargs) -> int:
    lines = kwargs.get("lines", args[1] if len(args) > 1 else None)
    if lines is None:
        from ahilb.partition import rays

        lines = rays(args[0])
    return len(lines)


# span name -> function(args, kwargs, result) -> {count name: increment}.
COUNTS = {
    "corners.cyclic_word": lambda a, k, res: {"corners.lines": len(res)},
    "mmp.run_mmp": lambda a, k, res: {"mmp.triples": len(res.steps) + 1},
    "partition.enumerate": lambda a, k, res: {
        "partition.triangles": len(res),
        "partition.line_triples": comb(_enumerated_lines(a, k), 3),
    },
    "fan.build": lambda a, k, res: {"fan.cones": len(res.cones)},
    "fan.census": lambda a, k, res: {"fan.surfaces": len(res)},
    "monomials.dual": lambda a, k, res: {"monomials.dual_bases": 1},
    "verify.run_checks": lambda a, k, res: {
        "verify.checks_failed": sum(1 for r in res if not r.ok)},
}

COUNT_NAMES = (
    "corners.lines", "mmp.triples", "partition.triangles",
    "partition.line_triples", "fan.cones", "fan.surfaces",
    "monomials.dual_bases", "verify.checks_failed", "cli.report_bytes",
)


class Tracer:
    """Spans and counts of one traced round, held in memory."""

    def __init__(self):
        # Each span is [name, start, end, parent index or None, group].
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.group: str | None = None
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = [name, perf_counter(), None, parent, self.group]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        count = COUNTS.get(name)
        if count is not None:
            for key, inc in count(args, kwargs, result).items():
                self.counts[key] += inc
        return result

    def command(self, name: str, group: str, fn):
        """Run fn as the root span of one command on one group."""
        self.group = group
        try:
            return self.call(name, fn, (), {})
        finally:
            self.group = None

    @contextmanager
    def installed(self):
        """Wrap every listed function in every loaded ahilb module, and
        restore the originals on exit."""
        patched = []
        for name, (module, attr) in SPANS.items():
            original = getattr(sys.modules[f"ahilb.{module}"], attr)
            wrapper = _wrapper(self, name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "ahilb" or mod_name.startswith("ahilb."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            patched.append((mod, key, original))
        try:
            yield self
        finally:
            for mod, key, original in patched:
                setattr(mod, key, original)


def _wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


def summarize(spans: list[list], duration) -> dict:
    """Per span name: calls, and busy time (outermost calls only, so
    recursion is not counted twice), also split by the root span (command)
    it ran under.  Per root name: total time and the part its child spans
    cover, from wall times, since the share is all that is used.  A span's
    busy time is duration(start, end)."""
    out = {"calls": {}, "busy": {}, "busy_in": {}, "root": {}, "covered": {}}

    def add(table, key, value):
        table[key] = table.get(key, 0) + value

    for name, start, end, parent, _ in spans:
        add(out["calls"], name, 1)
        if parent is None:
            add(out["root"], name, end - start)
            continue
        up = []
        while parent is not None:
            up.append(spans[parent][0])
            parent = spans[parent][3]
        if len(up) == 1:
            add(out["covered"], up[0], end - start)
        if name not in up:
            dur = duration(start, end)
            add(out["busy"], name, dur)
            add(out["busy_in"].setdefault(up[-1], {}), name, dur)
    return out
