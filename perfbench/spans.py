"""Per-layer spans and work counts, recorded from outside the package.

A layer is a module of ``matchdist``.  ``Tracer.install`` wraps the public
functions listed in ``TRACED`` at every place they are looked up: the
defining module and each module that imported the function by name (a
module-attribute call such as ``_fastpath.eval_keys`` sees the patched
attribute).  Each call records a span (function, start, end, parent span, op
index) and bumps the function's counters.  Spans stay in memory until the
pass ends.

``geometry`` and ``rational`` are not wrapped: they are called millions of
times per op, so a wrapper would distort them.  Their time shows in the self
time of the layers that call them.
"""
from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (defining module, function, counters(args, result) -> {name: amount})
TRACED = [
    ("modules", "critical_values", None),
    ("modules", "lub_closure", lambda a, r: {"points_out": len(r)}),
    ("exactdist", "matching_distance",
     lambda a, r: {"candidate_count": r.candidate_count}),
    ("exactdist", "candidate_lines", lambda a, r: {"lines": len(r.lines)}),
    ("exactdist", "switch_points",
     lambda a, r: {"points_in": len(a[0]), "points_out": len(r.proper),
                   "dirs_out": len(r.at_infinity)}),
    ("_fastpath", "eval_keys", lambda a, r: {"lines": len(a[2])}),
    ("_fastpath", "eval_lines", lambda a, r: {"lines": len(a[2])}),
    ("_fastpath", "exact_reduced_values",
     lambda a, r: {"lines": len(a[2]), "fallbacks": int(r is None)}),
    ("fibered", "restrict_module", None),
    ("bottleneck", "bottleneck", None),
    ("gridscan", "scan",
     lambda a, r: {"samples": a[2].theta_steps * a[2].offset_steps}),
]

LAYERS = ("modules", "exactdist", "fastpath", "fibered", "bottleneck",
          "gridscan")


class Tracer:
    """Spans and counters of the traced functions while installed."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.op = -1
        self._patched = []

    def _wrap(self, idx, fn, counters):
        spans, stack, counts = self.spans, self.stack, self.counts
        name = self.names[idx]

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (idx, t0, t1, parent, self.op)
            counts[name + ".calls"] += 1
            if counters is not None:
                for k, v in counters(args, out).items():
                    counts[name + "." + k] += v
            return out

        return traced

    def install(self):
        """Patch every lookup site of the traced functions."""
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "matchdist"
                                      or n.startswith("matchdist."))]
        for module, func, counters in TRACED:
            fn = getattr(sys.modules["matchdist." + module], func)
            # metric names must start with a letter: _fastpath -> fastpath
            self.names.append("%s.%s" % (module.lstrip("_"), func))
            wrapped = self._wrap(len(self.names) - 1, fn, counters)
            for m in mods:
                if getattr(m, func, None) is fn:
                    self._patched.append((m, func, fn))
                    setattr(m, func, wrapped)

    def uninstall(self):
        for m, func, fn in reversed(self._patched):
            setattr(m, func, fn)
        self._patched = []

    def summary(self):
        """Inclusive seconds per function and self seconds per layer."""
        child = [0.0] * len(self.spans)
        for idx, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        incl = defaultdict(float)
        self_layer = {layer: 0.0 for layer in LAYERS}
        for sid, (idx, t0, t1, parent, _) in enumerate(self.spans):
            name = self.names[idx]
            incl[name] += t1 - t0
            self_layer[name.split(".")[0]] += t1 - t0 - child[sid]
        return incl, self_layer

    def dump(self, path, origin):
        """Write the spans, times relative to origin, as JSON."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_s", "end_s", "parent",
                                  "op"],
                       "spans": [[i, round(a - origin, 7),
                                  round(b - origin, 7), p, op]
                                 for i, a, b, p, op in self.spans]}, fh)
