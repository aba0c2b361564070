"""matchdist benchmark: a closed loop with one caller over a seeded corpus.

    python3 perfbench/run.py --workload rect_small --seed 1 --seconds 30 \\
        --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One caller issues each op and waits for its result (a closed loop,
one client, single thread).  An op is one public call: ``matching_distance``,
``candidate_lines`` or a 1000x1000 ``scan``.  Every output is checked against
the recorded reference outputs and independent checks (see corpus.py), and
the check runs between ops, outside the timed region.

With ``--trace 0`` the run makes ``floor(seconds / PASS_NOMINAL_S)`` (at
least one) untraced passes over the workload's corpus and prints the
end-to-end metrics, computed from each op's median time over the passes.
The times are speed-normalized: a fixed probe kernel runs before every op
and every set-up, and each time is scaled by PROBE_REF_S over the median
probe of its pass (or of the set-ups).  On a shared machine the speed
drifts by 10-40% for seconds to minutes; the probe slows down with it, so
the normalized times of two commits compare even when they ran in
different spells.  The raw figures are in the detail line.

With ``--trace 1`` the run makes one untraced and one traced pass and
prints the per-layer metrics of the traced pass; the difference between the
two passes is the tracing overhead.  The last line of standard output is the
result object; the line before it holds the environment record and details
(sample counts, tail percentile, raw timings, failures).
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

import corpus as C
from spans import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Wall time of one pass at the commit that defined the benchmark (Python
# 3.11, no gmpy2, 2 cores).  The number of passes is fixed from it, so runs
# of two commits collect the same number of samples.
PASS_NOMINAL_S = 7.0
SETUP_REPEATS = 7
# median probe time at the commit that defined the benchmark; it only sets
# the unit of the normalized times and must stay fixed across commits
PROBE_REF_S = 0.006
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"), ("ok_frac", "frac"))


def import_package(fresh=False):
    """Import matchdist from the checkout's src/; with fresh, drop any
    loaded copy first so the import is paid again."""
    if not (SRC / "matchdist" / "__init__.py").is_file():
        raise SystemExit("perfbench: no package at %s; run from the root "
                         "of a matchdist checkout" % SRC)
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [n for n in sys.modules
                     if n == "matchdist" or n.startswith("matchdist.")]:
            del sys.modules[name]
    import matchdist
    import matchdist._fastpath  # noqa: F401
    import matchdist.exactdist  # noqa: F401
    import matchdist.gridscan  # noqa: F401
    if Path(matchdist.__file__).resolve().parent != SRC / "matchdist":
        raise SystemExit("perfbench: imported matchdist from %s, not %s"
                         % (matchdist.__file__, SRC))
    return matchdist


def warm_up(md):
    """First calls of each op kind: fills the pattern tables and the first
    numpy dispatches."""
    M = md.TwoParamModule.from_rects([md.rect(0, 0, 7, 7),
                                      md.rect(0, 4, 7, 11)])
    N = md.TwoParamModule.from_rects([md.rect(0, 0, 7, 11),
                                      md.rect(0, 4, 7, 7)])
    md.exactdist.matching_distance(M, N)
    md.gridscan.scan(M, N, md.gridscan.GridSpec(50, 50))
    P = md.TwoParamModule.from_rects([md.rect(2, 2, "inf", 7)])
    Q = md.TwoParamModule.from_rects([md.rect(2, 2, "inf", 10)])
    md.exactdist.candidate_lines(P, Q)
    md.exactdist.matching_distance(C.combined_presentation(md, P),
                                   C.combined_presentation(md, Q))


def probe():
    """Seconds taken by a fixed mix of the work the package does: Fraction
    arithmetic, hashing into a dict, and int64 vector arithmetic."""
    t0 = perf_counter()
    x = Fraction(0)
    for i in range(1, 300):
        x += Fraction(i, i + 7) * Fraction(3, i + 1)
    d = {}
    for i in range(3000):
        d[(i, 7 * i)] = i
    a = np.arange(20000, dtype=np.int64)
    for _ in range(20):
        a = (a * 3 + 1) % 1000003
    return perf_counter() - t0


class Timing:
    """Raw seconds of a group of timed regions (the ops of one pass, or the
    set-ups) and the probes taken among them.  normalized() scales the raw
    times by PROBE_REF_S over the group's median probe."""

    def __init__(self):
        self.raw = []
        self.probes = []

    def normalized(self):
        f = PROBE_REF_S / statistics.median(self.probes)
        return [t * f for t in self.raw]


def setup(workload, seed, tiny, timing):
    timing.probes.append(probe())
    t0 = perf_counter()
    md = import_package(fresh=True)
    lib = C.load_library(workload)
    ops = C.build_ops(md, lib, seed, tiny)
    warm_up(md)
    timing.raw.append(perf_counter() - t0)
    return md, ops


def run_pass(md, ops, failures, tracer=None):
    """Time every op; check each output before the next op starts.  Before
    each op, a collection keeps the garbage of earlier ops and checks out of
    its time, and a probe records the machine's speed."""
    timing = Timing()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        gc.collect()
        timing.probes.append(probe())
        t0 = perf_counter()
        try:
            out = C.call(md, op)
        except Exception as exc:  # a raising op is a failed op
            out, bad = None, [repr(exc)]
        timing.raw.append(perf_counter() - t0)
        if out is not None:
            bad = C.check(op, out)
        if bad:
            failures.append((op.ident, bad))
        del out
    return timing


def nearest_rank(sorted_vals, pct):
    k = max(1, math.ceil(pct / 100 * len(sorted_vals)))
    return sorted_vals[k - 1]


def tail_pct(n):
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples
    beyond its nearest-rank position."""
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100 * n) >= TAIL_MIN_BEYOND:
            return p
    return 50.0


def environment(md, seed):
    try:
        import gmpy2  # noqa: F401
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    Q = md.rational.Q
    return {"seed": seed, "python": platform.python_version(),
            "numpy": np.__version__, "gmpy2": has_gmpy2,
            "Q": "%s.%s" % (Q.__module__, Q.__qualname__),
            "nproc": os.cpu_count(),
            "nproc_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def timings(passes, setups, normalized):
    """Time metrics over the ops' median times over the passes."""
    def get(timing):
        return timing.normalized() if normalized else timing.raw

    per_op = sorted(statistics.median(ts)
                    for ts in zip(*(get(p) for p in passes)))
    pct = tail_pct(len(per_op))
    return {"ops_per_s": len(per_op) / sum(per_op),
            "op_p50_s": statistics.median(per_op),
            "op_tail_s": nearest_rank(per_op, pct),
            "setup_s": statistics.median(get(setups))}


def end_to_end(passes, setups):
    values = timings(passes, setups, normalized=True)
    values["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(passes[0].raw)
    pct = tail_pct(n)
    detail = {"ops": n, "passes": len(passes), "op_tail_pct": pct,
              "op_tail_beyond": n - math.ceil(pct / 100 * n),
              "raw": timings(passes, setups, normalized=False),
              "pass_probe_s": [statistics.median(p.probes) for p in passes],
              "pass_raw_s": [sum(p.raw) for p in passes],
              "setup_raw_s": setups.raw}
    return values, detail


def per_layer(tracer, untraced, traced):
    """Per-layer metrics of the traced pass.  Layer times are raw seconds;
    the overhead compares speed-normalized pass times."""
    incl, self_layer = tracer.summary()
    n = tracer.counts
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def ratio(a, b):
        return a / b if b else 0.0

    md_s = incl["exactdist.matching_distance"]
    count = n["exactdist.matching_distance.candidate_count"]
    put("exactdist.matching_distance.s", md_s, "s")
    put("exactdist.candidate_count", count, "count")
    put("exactdist.lines_per_s", ratio(count, md_s), "1/s")
    put("exactdist.switch_points.s", incl["exactdist.switch_points"], "s")
    for k in ("points_in", "points_out", "dirs_out"):
        put("exactdist.switch_points." + k,
            n["exactdist.switch_points." + k], "count")
    put("exactdist.candidate_lines.s", incl["exactdist.candidate_lines"], "s")
    put("exactdist.candidate_lines.lines",
        n["exactdist.candidate_lines.lines"], "count")
    put("modules.lub_closure.s", incl["modules.lub_closure"], "s")
    put("modules.lub_closure.points_out",
        n["modules.lub_closure.points_out"], "count")
    put("modules.critical_values.s", incl["modules.critical_values"], "s")
    for f in ("eval_keys", "eval_lines", "exact_reduced_values"):
        put("fastpath.%s.s" % f, incl["fastpath." + f], "s")
        put("fastpath.%s.lines" % f, n["fastpath.%s.lines" % f], "count")
    put("fastpath.exact_reduced_values.fallbacks",
        n["fastpath.exact_reduced_values.fallbacks"], "count")
    put("fastpath.screen_survival",
        ratio(n["fastpath.exact_reduced_values.lines"],
              n["fastpath.eval_keys.lines"]), "frac")
    put("fibered.restrict_module.s", incl["fibered.restrict_module"], "s")
    put("fibered.restrict_module.calls",
        n["fibered.restrict_module.calls"], "count")
    put("bottleneck.bottleneck.s", incl["bottleneck.bottleneck"], "s")
    put("bottleneck.bottleneck.calls", n["bottleneck.bottleneck.calls"],
        "count")
    scan_s = incl["gridscan.scan"]
    put("gridscan.scan.s", scan_s, "s")
    put("gridscan.scan.samples", n["gridscan.scan.samples"], "count")
    put("gridscan.samples_per_s",
        ratio(n["gridscan.scan.samples"], scan_s), "1/s")
    for layer in LAYERS:
        put(layer + ".self_s", self_layer[layer], "s")
    put("trace.pass_s", sum(traced.raw), "s")
    put("trace.untraced_pass_s", sum(untraced.raw), "s")
    plain = sum(untraced.normalized())
    put("trace_overhead_frac",
        ratio(sum(traced.normalized()) - plain, plain), "frac")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=C.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", type=int, default=0, metavar="N",
                    help="self-test mode: about N library entries, 1 pass")
    ap.add_argument("--corrupt", action="store_true",
                    help="self-test mode: corrupt one expected output")
    args = ap.parse_args(argv)

    setups = Timing()
    for _ in range(SETUP_REPEATS):
        md, ops = setup(args.workload, args.seed, args.tiny, setups)
    if args.corrupt:
        ops[0].corrupt = True

    failures = []
    if args.trace == 0:
        n = 1 if args.tiny else max(1, int(args.seconds // PASS_NOMINAL_S))
        passes = [run_pass(md, ops, failures) for _ in range(n)]
        values, detail = end_to_end(passes, setups)
        attempted = n * len(ops)
        values["ok_frac"] = 1 - len(failures) / attempted
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    else:
        untraced = run_pass(md, ops, failures)
        tracer = Tracer()
        tracer.install()
        try:
            origin = perf_counter()
            traced = run_pass(md, ops, failures, tracer)
        finally:
            tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / ("spans-%s-seed%d.json"
                               % (args.workload, args.seed))
        tracer.dump(span_file, origin)
        attempted = 2 * len(ops)
        metrics = per_layer(tracer, untraced, traced)
        detail = {"spans": len(tracer.spans),
                  "span_file": str(span_file.relative_to(ROOT))}

    detail.update({"workload": args.workload, "ops_per_pass": len(ops),
                   "fail_frac": len(failures) / attempted,
                   "failures": failures[:5]})
    print(json.dumps({"env": environment(md, args.seed), "detail": detail}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
