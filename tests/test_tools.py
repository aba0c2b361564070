"""Smoke tests of the scripts under tools/."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ABRUN = ROOT / "tools" / "abrun.py"


def abrun(*args):
    return subprocess.run([sys.executable, str(ABRUN), str(ROOT), str(ROOT),
                           "--workload", "perline", *args],
                          capture_output=True, text=True, timeout=600)


def test_abrun_one_round():
    """One round of the checkout against itself: both sides print their
    line with no failed op, then the ratio of the pass medians."""
    out = abrun("--rounds", "1")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    sides = [line for line in lines if line.startswith(("parent ", "change "))]
    assert len(sides) == 2
    assert all("failed ops 0," in line for line in sides)
    assert lines[-1].startswith("ratio change/parent of pass medians: ")
    float(lines[-1].rpartition(" ")[2])


def test_abrun_rejects_no_rounds():
    """--rounds below 1 is a usage error, not a failure on an empty
    median."""
    out = abrun("--rounds", "0")
    assert out.returncode == 2
    assert "--rounds: must be at least 1" in out.stderr


def test_abrun_two_seeds():
    """--seeds runs each seed in one call: one ratio line per seed after
    its two side lines, then the median of the seeds' ratios."""
    out = abrun("--rounds", "1", "--seeds", "1,2")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert [line for line in lines if line.startswith("seed ")] == [
        "seed 1", "seed 2"]
    sides = [line for line in lines if line.startswith(("parent ", "change "))]
    assert len(sides) == 4
    assert all("failed ops 0," in line for line in sides)
    ratios = [float(line.rpartition(" ")[2]) for line in lines
              if line.startswith("ratio change/parent of pass medians: ")]
    assert len(ratios) == 2
    assert lines[-1].startswith("median ratio over seeds 1,2: ")
    # the median of two seeds is their mean, each printed to 4 places
    median = float(lines[-1].rpartition(" ")[2])
    assert abs(median - sum(ratios) / 2) <= 1e-4
