"""Alternated in-process timing of two matchdist checkouts on one workload.

    python3 tools/abrun.py PARENT CHANGE --workload perline --seeds 1-3 \\
        --rounds 21 [--kind dist,lines,scan] [--form rect,pres]

PARENT and CHANGE are source checkouts.  Each one's src/matchdist is copied
into a temporary directory under its own package name (matchdist_a,
matchdist_b), and both are imported into this one process, so the two
sides share the interpreter, the heap and the machine's speed of the
moment.  Sharing one heap, they cannot see allocator effects: a change
that saves page faults or heap growth saves them for both sides here, so
tools/benchpairs.py, which runs each side in a process of its own, judges
those.  The ops come from the workload's corpus through
perfbench/corpus.py, which is read and never changed, and each side builds
them from its own package.  A round times every op once on each side, op by
op, and the side that goes first is swapped each round; one untimed round
warms both sides up.  Every output is checked with corpus.check outside the
timed region.

--form sets the form of the modules: rect, the corpus's own (rectangle
modules, and the presentations of the entries stored in that form), or
pres, every rectangle module turned into one presentation by
perfbench/corpus.py's combined_presentation.  One form applies to both
sides; two, as in --form rect,pres, give the parent's and the change's.
The checks are the same in either form, their expected values being
those of the module, not of its form.  So

    python3 tools/abrun.py . . --workload rect_small --form rect,pres

times the presentation form of one checkout against its rectangle form.

--kind keeps the ops of the given kinds, a list such as lines or
lines,scan of dist, lines and scan (default: every kind), so that one kind
of op of a workload is timed on its own: explore's line sets apart from
its scans.  A list that leaves a workload no op is a usage error.

Each seed of --seeds, a list such as 1,2,3 or a range such as 1-10 as
perfbench/spread.py's seed_list reads it, is run in turn, in the same
process, with its own warm-up round.  Prints, per seed and side, the number
of ops, the median pass time, the rounds won, the failed ops, named in op
order when there are any (failed ops 2 (rs-15, rs-06)), and ops_per_s and
op_p50_s over each op's median time, computed as perfbench/run.py
computes them but from raw times; then the seed's ratio of the pass
medians, CHANGE over PARENT.
With more than one seed, the last line is the median of the seeds' ratios.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# no __pycache__ is left under perfbench/ or in the copies
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
import corpus as C  # noqa: E402
from spread import seed_list  # noqa: E402

KINDS = ("dist", "lines", "scan")


def load(checkout, name, where):
    """The checkout's package, imported under name from a copy in where."""
    shutil.copytree(Path(checkout) / "src" / "matchdist", Path(where) / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def timed(md, op, failed):
    """Seconds of one op; its ident joins failed when it raises or its
    output fails the corpus check."""
    gc.collect()
    t0 = perf_counter()
    try:
        out = C.call(md, op)
    except Exception:  # a raising op is a failed op, as in run.py
        out = None
    t = perf_counter() - t0
    if out is None or C.check(op, out):
        failed.add(op.ident)
    return t


def positive(text):
    """An int of at least 1, for argparse: no rounds leaves no median."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % n)
    return n


def forms(text):
    """One form, or the parent's and the change's, for argparse."""
    out = text.split(",")
    if len(out) > 2 or not set(out) <= {"rect", "pres"}:
        raise argparse.ArgumentTypeError(
            "expected rect, pres or two of them joined by a comma, got %r"
            % text)
    return out if len(out) == 2 else out * 2


def kinds(text):
    """A set of op kinds, for argparse."""
    out = set(text.split(","))
    if not out <= set(KINDS):
        raise argparse.ArgumentTypeError(
            "expected kinds among %s joined by commas, got %r"
            % (", ".join(KINDS), text))
    return out


def in_form(md, op, form):
    """op with every rectangle module turned into one presentation when
    form is pres, and as it is otherwise."""
    if form == "rect":
        return op
    M, N = (m if m.rectangles is None else C.combined_presentation(md, m)
            for m in (op.M, op.N))
    return dataclasses.replace(op, M=M, N=N)


def run_seed(sides, lib, seed, rounds, form, kind):
    """Time one seed's ops of the kinds in kind on both sides, each in its
    form, print each side's line and return the ratio of the pass medians,
    CHANGE over PARENT."""
    ops = [[in_form(md, op, f) for op in C.build_ops(md, lib, seed)
            if op.kind in kind]
           for (_, md), f in zip(sides, form)]
    n = len(ops[0])
    times = [[[] for _ in range(n)] for _ in sides]
    passes = [[] for _ in sides]
    failed = [set() for _ in sides]
    for r in range(-1, rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        round_s = [0.0, 0.0]
        for i in range(n):
            for s in order:
                t = timed(sides[s][1], ops[s][i], failed[s])
                if r >= 0:
                    times[s][i].append(t)
                    round_s[s] += t
        if r >= 0:
            for s in (0, 1):
                passes[s].append(round_s[s])
    wins = [sum(a < b for a, b in zip(passes[s], passes[1 - s]))
            for s in (0, 1)]
    for s, (checkout, _) in enumerate(sides):
        per_op = sorted(statistics.median(ts) for ts in times[s])
        names = [op.ident for op in ops[s] if op.ident in failed[s]]
        print("%s %s (%s): %d ops, pass median %.4f s, won %d of %d "
              "rounds, failed ops %d%s, ops_per_s %.1f, op_p50_s %.6f"
              % ("parent" if s == 0 else "change", checkout, form[s], n,
                 statistics.median(passes[s]), wins[s], rounds, len(names),
                 " (%s)" % ", ".join(names) if names else "",
                 n / sum(per_op), statistics.median(per_op)))
    ratio = statistics.median(passes[1]) / statistics.median(passes[0])
    print("ratio change/parent of pass medians: %.4f" % ratio)
    return ratio


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", default="perline", choices=C.WORKLOADS)
    ap.add_argument("--seeds", type=seed_list, default=[1])
    ap.add_argument("--rounds", type=positive, default=21)
    ap.add_argument("--form", type=forms, default=["rect", "rect"],
                    help="rect or pres, or PARENT,CHANGE forms "
                    "(default: rect)")
    ap.add_argument("--kind", type=kinds, default=set(KINDS),
                    help="op kinds to time, joined by commas "
                    "(default: every kind)")
    args = ap.parse_args()
    lib = C.load_library(args.workload)
    if not any(e["kind"] in args.kind for e in lib["entries"]):
        ap.error("--kind: workload %s has no op of kind %s"
                 % (args.workload, ",".join(sorted(args.kind))))
    with tempfile.TemporaryDirectory() as where:
        sys.path.insert(0, where)
        sides = [(checkout, load(checkout, name, where))
                 for name, checkout in (("matchdist_a", args.parent),
                                        ("matchdist_b", args.change))]
        ratios = []
        for seed in args.seeds:
            print("seed %d" % seed)
            ratios.append(run_seed(sides, lib, seed, args.rounds,
                                   args.form, args.kind))
    if len(ratios) > 1:
        print("median ratio over seeds %s: %.4f"
              % (",".join(map(str, args.seeds)), statistics.median(ratios)))


if __name__ == "__main__":
    main()
