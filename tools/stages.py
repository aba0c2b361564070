"""Per-stage warm timings of one workload and seed, from outside the package.

    python3 tools/stages.py rect_small [--seed 1] [--passes 5] [--tiny N] \\
        [--checkout PATH]

Imports matchdist from CHECKOUT's src/ (default: the checkout this script
sits in), builds the seed's ops from the workload's corpus through
perfbench/corpus.py, which is read and never changed, and runs one
untimed pass whose outputs are checked with corpus.check.  Then it wraps
the stages of STAGES by name, at every module attribute or class that
holds them, and runs --passes timed passes, each op after a collection
as perfbench/run.py runs it.  A stage's time in a pass is the sum of its
calls' inclusive times; stages nest (_pair_keys runs inside _stream), so
the shares do not add up to one.

Prints, per stage, its best time over the passes in seconds, its share of
the best pass and its number of calls in a pass; the first line is the
best pass itself, the sum of the ops' times.  Times are raw seconds of
this machine at this moment: compare two checkouts only within one
session, and alternate them.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# no __pycache__ is left under perfbench/
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
import corpus as C  # noqa: E402

# (module, qualified name) of each timed stage
STAGES = [
    ("exactdist", "_lattice"),
    ("exactdist", "_stream"),
    ("exactdist", "_pair_keys"),
    ("exactdist", "_Keys._compact"),
    ("exactdist", "_Select.run"),
    ("exactdist", "_Select._live"),
    ("exactdist", "_Select._score"),
    ("exactdist", "_result_at"),
    ("_fastpath", "_chunk"),
    ("_fastpath", "_live_span"),
    ("gridscan", "_theta_table"),
    ("gridscan", "_first_max"),
    ("gridscan", "scan"),
    ("exactdist", "_key_lines"),
    ("exactdist", "candidate_lines"),
    ("bottleneck", "bottleneck"),
]


def wrap(fn, name, acc, calls):
    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            acc[name] += perf_counter() - t0
            calls[name] += 1
    return timed


def install(acc, calls):
    """Wrap every stage where it is looked up: a class attribute for a
    method, else the defining module and each matchdist module that
    imported the function by name."""
    mods = [m for n, m in sys.modules.items()
            if m is not None and n.split(".")[0] == "matchdist"]
    for module, qual in STAGES:
        owner = importlib.import_module("matchdist." + module)
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = owner.__dict__[attr] if path else getattr(owner, attr)
        timed = wrap(fn, "%s.%s" % (module, qual), acc, calls)
        holders = [owner] if path else [m for m in mods
                                        if getattr(m, attr, None) is fn]
        for holder in holders:
            setattr(holder, attr, timed)


def run_pass(md, ops):
    """Seconds of one pass, the sum of the ops' times."""
    total = 0.0
    for op in ops:
        gc.collect()
        t0 = perf_counter()
        C.call(md, op)
        total += perf_counter() - t0
    return total


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workload", choices=C.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=5)
    ap.add_argument("--tiny", type=int, default=0, metavar="N")
    ap.add_argument("--checkout", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    md = importlib.import_module("matchdist")
    for sub in ("exactdist", "_fastpath", "gridscan"):
        importlib.import_module("matchdist." + sub)
    ops = C.build_ops(md, C.load_library(args.workload), args.seed,
                      args.tiny)
    bad = [(op.ident, C.check(op, C.call(md, op))) for op in ops]
    bad = [b for b in bad if b[1]]
    if bad:
        sys.exit("failed ops: %s" % bad)
    acc, calls = defaultdict(float), defaultdict(int)
    install(acc, calls)
    names = ["%s.%s" % s for s in STAGES]
    best = {name: float("inf") for name in names}
    best_pass = float("inf")
    for _ in range(args.passes):
        acc.clear()
        calls.clear()
        best_pass = min(best_pass, run_pass(md, ops))
        for name in names:
            best[name] = min(best[name], acc[name])
        counts = dict(calls)
    print("%s seed %d: %d ops, best of %d passes, from %s"
          % (args.workload, args.seed, len(ops), args.passes,
             Path(md.__file__).parent))
    print("%-28s %9.4f s %6.1f%%" % ("pass", best_pass, 100.0))
    for name in names:
        print("%-28s %9.4f s %6.1f%% %7d calls"
              % (name, best[name], 100 * best[name] / best_pass,
                 counts.get(name, 0)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
