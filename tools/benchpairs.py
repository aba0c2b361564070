"""Alternated runs of the benchmark in two checkouts, one process each.

    python3 tools/benchpairs.py PARENT CHANGE --workload rect_small \\
        --seeds 1-10 [--tiny N]

PARENT and CHANGE are source checkouts.  Each one's src/, perfbench/ and
BENCHMARK.json are first copied into sibling temporary directories, a/ for
the parent and b/ for the change, whose paths have equal length: the
benchmark's timings have been seen to follow the directory a checkout sits
in, by some 3-4% on explore between two copies of one commit, so both sides
run from directories that differ in one letter.  Passing the same checkout
twice gives an A/A control, the code against itself.  The copies are
removed at exit, and stderr names them.

For each seed of --seeds, perfbench/run.py --trace 0 runs once in each
copy, for BENCHMARK.json's run_seconds (--tiny N shrinks the corpus for a
smoke test), as a fresh subprocess whose working directory is that copy,
with PYTHONDONTWRITEBYTECODE=1, so that no run leaves bytecode for the next
one and each compiles its package as a run in a clean checkout does.  The
parent runs first on odd seeds and the change first on even ones.  Each
run has a process, and so a heap, of its own, as in the benchmark;
tools/abrun.py puts both sides in one process, where allocator effects do
not show.

Prints one line per run: its end-to-end metrics, the raw (not
speed-normalized) timings of run.py's detail line, and the child's minor
page faults, the change of ru_minflt of RUSAGE_CHILDREN over the run.
Then, per metric, both sides' medians, their ratio CHANGE over PARENT,
the parent's interquartile range, the number of seeds on which the
change did better, in the direction BENCHMARK.json gives (a raw timing
takes its metric's, and fewer faults are better), and the verdict on the
metric (verdict).  Exits 1 as soon as a run fails or reports correct:
false.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from spread import seed_list  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
HIGHER = {m["name"] for m in BENCH["end_to_end"] if m["better"] == "higher"}
BOUND = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
# what a run reads of a checkout
COPIED = ("src", "perfbench", "BENCHMARK.json")


def copy_checkout(checkout, where):
    """Copy what a run reads of checkout into the new directory where,
    without bytecode caches, and return where."""
    where.mkdir()
    for name in COPIED:
        src = Path(checkout) / name
        if src.is_dir():
            shutil.copytree(src, where / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        elif src.exists():
            shutil.copy2(src, where / name)
    return where


def run(checkout, where, workload, seed, tiny):
    """One run.py process in where, a copy of checkout: its metrics by
    name, the raw timings as raw_<name>, and minflt, the child's minor
    page faults."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]),
           "--trace", "0"]
    if tiny:
        cmd += ["--tiny", str(tiny)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    out = subprocess.run(cmd, cwd=where, env=env, capture_output=True,
                         text=True, timeout=600)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    lines = out.stdout.splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.exit("run failed in %s, seed %d (exit %d):\n%s"
                 % (checkout, seed, out.returncode, out.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("incorrect run in %s, seed %d: %d of %d ops failed"
                 % (checkout, seed, result["failed"], result["attempted"]))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    raw = json.loads(lines[-2])["detail"]["raw"]
    metrics.update(("raw_" + k, v) for k, v in raw.items())
    metrics["minflt"] = faults
    return metrics


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def wins(parent, change, higher):
    """The number of seeds on which the change did better."""
    return sum((c > p if higher else c < p) for p, c in zip(parent, change))


def verdict(parent, change, higher, bound):
    """The verdict on one metric from its runs, paired by seed: gain when
    the change is better in at least nine tenths of the pairs and its
    median beats the parent's by more than the parent's IQR; worse when
    its median is worse by more than bound, a fraction of the parent's
    median; unresolved when the parent's IQR is wider than that bound and
    not every change run beats every parent run; flat otherwise.  A metric
    with no bound (None), a raw timing or minflt, reads gain or flat."""
    sign = 1 if higher else -1
    mp = statistics.median(parent)
    gain = sign * (statistics.median(change) - mp)
    if 10 * wins(parent, change, higher) >= 9 * len(parent) and \
            gain > iqr(parent):
        return "gain"
    if bound is None:
        return "flat"
    if gain < -bound * abs(mp):
        return "worse"
    if iqr(parent) > bound * abs(mp) and \
            min(sign * c for c in change) <= max(sign * p for p in parent):
        return "unresolved"
    return "flat"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=[1])
    ap.add_argument("--tiny", type=int, default=0, metavar="N")
    args = ap.parse_args(argv)
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="benchpairs-") as tmp:
        sides = [(name, checkout, copy_checkout(checkout, Path(tmp) / sub))
                 for name, checkout, sub in (("parent", args.parent, "a"),
                                             ("change", args.change, "b"))]
        print("parent runs in %s, change in %s" % (sides[0][2], sides[1][2]),
              file=sys.stderr, flush=True)
        for seed in args.seeds:
            for name, checkout, where in (sides if seed % 2 else sides[::-1]):
                m = run(checkout, where, args.workload, seed, args.tiny)
                runs[name].append(m)
                print("%s seed %d: %s" % (name, seed, " ".join(
                    "%s %.6g" % kv for kv in m.items())), flush=True)
    print("metric: parent median, change median, ratio change/parent, "
          "parent IQR, change better in n of %d, verdict" % len(args.seeds))
    for key in runs["parent"][0]:
        p = [m[key] for m in runs["parent"]]
        c = [m[key] for m in runs["change"]]
        higher = key.removeprefix("raw_") in HIGHER
        mp, mc = statistics.median(p), statistics.median(c)
        print("%s: %.6g %.6g %.4f %.6g %d %s" % (
            key, mp, mc, mc / mp if mp else float("nan"), iqr(p),
            wins(p, c, higher), verdict(p, c, higher, BOUND.get(key))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
