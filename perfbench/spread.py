"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload rect_small --seeds 1-10 \\
        [--out runs.jsonl]

Runs the benchmark untraced once per seed, one run at a time, and prints per
end-to-end metric the median and the spread: the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median,
next to a third of the metric's bound in BENCHMARK.json, and the same for
the raw (not speed-normalized) timings.  With --out, each
run's two output lines are appended to that file.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)

    values = {m["name"]: [] for m in bench["end_to_end"]}
    raw = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600, check=True)
        lines = proc.stdout.strip().splitlines()
        if args.out:
            with open(args.out, "a") as fh:
                fh.write("\n".join(lines[-2:]) + "\n")
        res = json.loads(lines[-1])
        for name, v in res["metrics"].items():
            values[name].append(v["value"])
        for name, v in json.loads(lines[-2])["detail"]["raw"].items():
            raw.setdefault(name, []).append(v)
        print("seed %d correct=%s %s" % (
            seed, res["correct"], " ".join(
                "%s=%.6g" % (k, v["value"])
                for k, v in res["metrics"].items())), flush=True)

    for m in bench["end_to_end"]:
        med, spread = median_spread(values[m["name"]])
        print("%-12s median %-12.6g spread %.4f  bound/3 %.4f  %s"
              % (m["name"], med, spread, m["bound"] / 3,
                 "ok" if spread < m["bound"] / 3 else "WIDE"))
    for name, vals in raw.items():
        med, spread = median_spread(vals)
        print("raw %-12s median %-12.6g spread %.4f" % (name, med, spread))
    return 0


def median_spread(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, (q3 - q1) / med if med else float("inf")


if __name__ == "__main__":
    sys.exit(main())
