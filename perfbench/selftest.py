"""Self-test of the benchmark in tiny mode; runs every workload in seconds.

    python3 perfbench/selftest.py

For each workload it checks that
  * a tiny untraced run prints every end-to-end metric of BENCHMARK.json by
    name with its unit, and is correct;
  * a tiny traced run prints every per-layer metric by name with its unit,
    and the per-layer self times add up to the traced pass time within
    SELF_TOL (the rest is the benchmark loop and the wrappers' own entry
    and exit, outside every span);
  * a run with one expected output corrupted reports a failure, so a wrong
    output cannot pass unnoticed.
Exits 0 when every check holds, 1 otherwise.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = 7
SELF_TOL = 0.02


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--trace", str(trace), "--tiny", str(TINY), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d: %s" % (" ".join(cmd),
                                                   proc.returncode,
                                                   proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def same_metrics(result, declared):
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    return got == want, want, got


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    problems = []
    for w in (wl["name"] for wl in bench["workloads"]):
        plain = run(w, 0)
        ok, want, got = same_metrics(plain, bench["end_to_end"])
        if not ok:
            problems.append("%s: end-to-end metrics %s, declared %s"
                            % (w, got, want))
        if not plain["correct"] or plain["failed"]:
            problems.append("%s: tiny run not correct" % w)

        traced = run(w, 1)
        ok, want, got = same_metrics(traced, bench["per_layer"])
        if not ok:
            problems.append("%s: per-layer metrics differ from declared: %s"
                            % (w, sorted(set(want) ^ set(got))))
        m = traced["metrics"]
        total = sum(m[layer + ".self_s"]["value"] for layer in LAYERS)
        pass_s = m["trace.pass_s"]["value"]
        if abs(total - pass_s) > SELF_TOL * pass_s:
            problems.append("%s: self times sum to %.4fs, traced pass %.4fs"
                            % (w, total, pass_s))

        bad = run(w, 0, "--corrupt")
        if bad["correct"] or bad["failed"] < 1 or \
                bad["metrics"]["ok_frac"]["value"] >= 1:
            problems.append("%s: corrupted expected output not detected" % w)
        print("%-10s self-time sum %.4fs / pass %.4fs; corrupt run failed "
              "%d of %d" % (w, total, pass_s, bad["failed"], bad["attempted"]))
    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
