"""Smoke tests of the scripts under tools/."""
import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ABRUN = ROOT / "tools" / "abrun.py"
BENCHPAIRS = ROOT / "tools" / "benchpairs.py"
STAGES = ROOT / "tools" / "stages.py"


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


def test_abrun_names_failed_ops(tmp_path):
    """Against a copied checkout whose distances are off by one, the
    change's line names its failed ops in op order, one per failed dist
    op, and the parent's reads failed ops 0."""
    src = tmp_path / "src" / "matchdist"
    shutil.copytree(ROOT / "src" / "matchdist", src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "exactdist.py"
    text = path.read_text()
    exact = "return DistanceResult(value, line, wit, count)"
    assert text.count(exact) == 1
    path.write_text(text.replace(exact, exact.replace("value,", "value + 1,")))
    out = subprocess.run([sys.executable, str(ABRUN), str(ROOT),
                          str(tmp_path), "--workload", "perline", "--rounds",
                          "1"], capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    parent, change = [line for line in out.stdout.splitlines()
                      if line.startswith(("parent ", "change "))]
    assert "failed ops 0," in parent
    found = re.search(r"failed ops (\d+) \(([^)]*)\), ", change)
    assert found
    names = found.group(2).split(", ")
    assert int(found.group(1)) == len(set(names)) == len(names) > 0
    assert all(name.strip() for name in names)


def test_abrun_rejects_no_rounds():
    """--rounds below 1 is a usage error, not a failure on an empty
    median."""
    out = abrun("--rounds", "0")
    assert out.returncode == 2
    assert "--rounds: must be at least 1" in out.stderr


def test_abrun_two_seeds():
    """--seeds, given as a range, runs each seed in one call: one ratio
    line per seed after its two side lines, then the median of the seeds'
    ratios."""
    out = abrun("--rounds", "1", "--seeds", "1-2")
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


def test_abrun_forms():
    """--form rect,pres times the parent's side in rectangle form and the
    change's in presentation form, each op passing its checks; a form
    other than rect or pres is a usage error."""
    out = abrun("--rounds", "1", "--form", "rect,pres")
    assert out.returncode == 0, out.stderr
    sides = [line for line in out.stdout.splitlines()
             if line.startswith(("parent ", "change "))]
    assert [line.split(": ")[0].rpartition(" ")[2] for line in sides] == [
        "(rect)", "(pres)"]
    assert all("failed ops 0," in line for line in sides)
    out = abrun("--rounds", "1", "--form", "pres,box")
    assert out.returncode == 2
    assert "--form: expected rect, pres" in out.stderr


def test_abrun_kind():
    """--kind lines times only explore's line sets, 20 of its 40 ops on
    seed 1, each passing its checks; a kind outside dist, lines and scan,
    or kinds that leave the workload no op, are usage errors."""
    run = [sys.executable, str(ABRUN), str(ROOT), str(ROOT), "--workload",
           "explore", "--rounds", "1"]
    out = subprocess.run(run + ["--kind", "lines"], capture_output=True,
                         text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    sides = [line for line in out.stdout.splitlines()
             if line.startswith(("parent ", "change "))]
    assert len(sides) == 2
    assert all(": 20 ops, " in line and "failed ops 0," in line
               for line in sides)
    out = subprocess.run(run + ["--kind", "lines,scan,dist"],
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    assert ": 40 ops, " in out.stdout
    out = abrun("--rounds", "1", "--kind", "line")
    assert out.returncode == 2
    assert "--kind: expected kinds among dist, lines, scan" in out.stderr
    out = abrun("--rounds", "1", "--kind", "lines,scan")
    assert out.returncode == 2
    assert "--kind: workload perline has no op of kind lines,scan" \
        in out.stderr


def test_abrun_pres_form_converts_every_rectangle_module():
    """in_form turns every rectangle module of an op into one presentation
    and keeps the rest of the op; the rect form keeps the op as it is."""
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "import abrun, matchdist\n"
        "lib = abrun.C.load_library('perline')\n"
        "ops = abrun.C.build_ops(matchdist, lib, 1)\n"
        "pres = [abrun.in_form(matchdist, op, 'pres') for op in ops]\n"
        "print(sum(op.M.rectangles is not None for op in ops),\n"
        "      all(m.presentation is not None\n"
        "          for op in pres for m in (op.M, op.N)),\n"
        "      [(p.ident, p.kind, p.expect) for p in pres]\n"
        "      == [(op.ident, op.kind, op.expect) for op in ops],\n"
        "      [abrun.in_form(matchdist, op, 'rect') for op in ops] == ops)\n"
        % str(ABRUN.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    converted, *flags = out.stdout.split()
    assert int(converted) > 0 and flags == ["True"] * 3


def stages(*args):
    return subprocess.run([sys.executable, str(STAGES), *args],
                          capture_output=True, text=True, timeout=600)


def test_stages_tiny():
    """One pass of a tiny rect_small corpus: the pass line, then one line
    per stage, in order, each with its seconds, its share of the pass, its
    calls and its items; the key stages and the witness's matching run,
    and each takes at most the pass.  The selection is offered keys,
    leaves at most those live, values some and the kernel values lines;
    the stages without a count print "-".  On a tiny explore corpus of
    scans and line sets, the scan's and the line set's own stages run."""
    out = stages("rect_small", "--tiny", "4", "--passes", "1")
    assert out.returncode == 0, out.stderr
    head, total, *rows = out.stdout.splitlines()
    assert head.startswith("rect_small seed 1: 4 ops, best of 1 passes")
    name, secs, _, share = total.split()
    assert name == "pass" and share == "100.0%" and float(secs) > 0
    names = [row.split()[0] for row in rows]
    assert names == ["%s.%s" % stage for stage in (
        ("exactdist", "_lattice"), ("exactdist", "_stream"),
        ("exactdist", "_pair_keys"), ("exactdist", "_Keys._compact"),
        ("exactdist", "_Select.run"), ("exactdist", "_Select._live"),
        ("exactdist", "_Select._score"), ("exactdist", "_result_at"),
        ("_fastpath", "_chunk"), ("_fastpath", "_live_span"),
        ("gridscan", "_theta_table"), ("gridscan", "_first_max"),
        ("gridscan", "scan"), ("exactdist", "_key_lines"),
        ("exactdist", "candidate_lines"), ("bottleneck", "bottleneck"))]
    stats = {row.split()[0]: row.split()[1:] for row in rows}
    for name in ("exactdist._lattice", "exactdist._stream",
                 "exactdist._result_at", "bottleneck.bottleneck"):
        secs, unit, share, calls, _, items, _ = stats[name]
        assert unit == "s" and 0 < float(secs) <= float(total.split()[1])
        assert share.endswith("%") and int(calls) > 0 and items == "-"
    offered, live, valued, lines = (int(stats[name][5]) for name in (
        "exactdist._Select.run", "exactdist._Select._live",
        "exactdist._Select._score", "_fastpath._chunk"))
    assert live <= offered and 0 < valued <= offered and lines > 0
    # every sixth entry of explore's alternating scans and line sets
    out = stages("explore", "--tiny", "6", "--passes", "1")
    assert out.returncode == 0, out.stderr
    head, total, *rows = out.stdout.splitlines()
    assert head.startswith("explore seed 1: 6 ops, best of 1 passes")
    stats = {row.split()[0]: row.split()[1:] for row in rows}
    for name in ("_fastpath._chunk", "_fastpath._live_span",
                 "gridscan._theta_table", "gridscan._first_max",
                 "gridscan.scan", "exactdist._key_lines",
                 "exactdist.candidate_lines"):
        assert int(stats[name][3]) > 0, name
    assert int(stats["exactdist._Select.run"][3]) == 0
    out = stages("rect_small", "--passes", "0")
    assert out.returncode == 2 and "--passes must be at least 1" in out.stderr


def benchpairs(parent, change, *args):
    return subprocess.run([sys.executable, str(BENCHPAIRS), str(parent),
                           str(change), "--workload", "perline", *args],
                          capture_output=True, text=True, timeout=600)


def _copies(stderr):
    """The parent's and the change's copy, as benchpairs names them."""
    line = next(line for line in stderr.splitlines()
                if line.startswith("parent runs in "))
    a, _, b = line.removeprefix("parent runs in ").partition(", change in ")
    return Path(a), Path(b)


def test_benchpairs_one_pair():
    """One seed of the checkout against itself, tiny, an A/A control: the
    sides run in sibling copies whose paths have equal length, removed at
    exit; the parent runs first on an odd seed, each run prints every
    metric and its page faults, and the summary has one line per
    metric, ending in its verdict."""
    out = benchpairs(ROOT, ROOT, "--tiny", "2", "--seeds", "1")
    assert out.returncode == 0, out.stderr
    a, b = _copies(out.stderr)
    assert a.parent == b.parent != ROOT and len(str(a)) == len(str(b))
    assert a != b and not a.parent.exists()
    lines = out.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == [
        "parent seed 1", "change seed 1"]
    names = lines[0].split(": ")[1].split()[::2]
    assert {"ops_per_s", "peak_rss_mb", "ok_frac", "raw_ops_per_s",
            "minflt"} <= set(names)
    assert lines[2].startswith("metric: parent median, change median")
    summary = dict(line.split(": ") for line in lines[3:])
    assert list(summary) == names
    assert float(summary["ok_frac"].split()[0]) == 1
    assert {v.split()[-1] for v in summary.values()} <= {
        "gain", "worse", "unresolved", "flat"}
    assert int(summary["minflt"].split()[0]) > 0


def _fake_checkout(where, detail, result, code=0):
    """A checkout whose perfbench/run.py appends its working directory and
    the names in it to ../runs.log, prints the two JSON lines and exits
    with code."""
    (where / "perfbench").mkdir(parents=True)
    (where / "perfbench" / "run.py").write_text(
        "import os, sys\n"
        "with open(%r, 'a') as f:\n"
        "    print(os.getcwd(), *sorted(os.listdir()), file=f)\n"
        "print(%r)\nprint(%r)\nsys.exit(%d)\n"
        % (str(where.parent / "runs.log"), json.dumps({"detail": detail}),
           json.dumps(result), code))
    return where


def test_benchpairs_fails_on_failed_or_incorrect_run(tmp_path):
    """Seeds given as a range run with the sides alternating; a run that
    exits non-zero, or reports correct: false, stops the pairs with exit
    status 1 and says which checkout and seed."""
    detail = {"raw": {"ops_per_s": 1.0}}
    metrics = {"ops_per_s": {"value": 1.0, "unit": "1/s"}}
    good = {"correct": True, "attempted": 2, "failed": 0, "metrics": metrics}
    bad = dict(good, correct=False, failed=1)
    ok = _fake_checkout(tmp_path / "ok", detail, good)
    crash = _fake_checkout(tmp_path / "crash", detail, good, code=3)
    wrong = _fake_checkout(tmp_path / "wrong", detail, bad)
    (ok / "BENCHMARK.json").write_text("{}")
    out = benchpairs(ok, ok, "--seeds", "1-2")
    assert out.returncode == 0, out.stderr
    assert [line.split(":")[0] for line in out.stdout.splitlines()[:4]] == [
        "parent seed 1", "change seed 1", "change seed 2", "parent seed 2"]
    # each side ran in its own copy of perfbench/ and BENCHMARK.json
    a, b = _copies(out.stderr)
    runs = [line.split() for line in
            (tmp_path / "runs.log").read_text().splitlines()]
    assert runs == [[str(w), "BENCHMARK.json", "perfbench"]
                    for w in (a, b, b, a)]
    out = benchpairs(ok, crash, "--seeds", "1")
    assert out.returncode == 1
    assert "run failed in %s, seed 1 (exit 3)" % crash in out.stderr
    out = benchpairs(wrong, ok, "--seeds", "2")
    assert out.returncode == 1
    assert "incorrect run in %s, seed 2: 1 of 2 ops failed" % wrong \
        in out.stderr


def _load_benchpairs():
    spec = importlib.util.spec_from_file_location("benchpairs", BENCHPAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchpairs_verdict():
    """The verdict on synthetic runs of ten seeds: gain needs nine of ten
    wins and a median gain past the parent's IQR, worse a median past the
    bound, unresolved a parent spread past the bound that the change does
    not clear run for run; a metric with no bound reads gain or flat."""
    verdict = _load_benchpairs().verdict
    parent = [100.0 + i % 5 for i in range(10)]   # median 102, IQR 2
    up = [p + 3 for p in parent]
    assert verdict(parent, up, True, 0.24) == "gain"
    assert verdict(up, parent, False, 0.24) == "gain"
    assert verdict(parent, up, False, 0.24) == "flat"
    assert verdict(parent, up, True, None) == "gain"
    # nine of ten wins is enough, eight is not
    nine = up[:9] + [parent[9] - 1]
    assert verdict(parent, nine, True, 0.24) == "gain"
    assert verdict(parent, up[:8] + parent[8:], True, 0.24) == "flat"
    # a median gain of exactly the parent's IQR is not enough
    assert verdict(parent, [p + 2 for p in parent], True, 0.24) == "flat"
    # worse by more than the bound, in either direction of better
    assert verdict(parent, [p * 0.75 for p in parent], True, 0.24) == "worse"
    assert verdict(parent, [p * 0.77 for p in parent], True, 0.24) == "flat"
    assert verdict(parent, [p * 1.25 for p in parent], False, 0.24) == \
        "worse"
    assert verdict(parent, [p * 1.25 for p in parent], False, None) == \
        "flat"
    # a parent spread wider than the bound leaves a small move unresolved,
    # unless every change run beats every parent run
    wide = [60.0, 80.0, 100.0, 120.0, 140.0] * 2    # IQR 40, median 100
    assert verdict(wide, [w + 1 for w in wide], True, 0.24) == "unresolved"
    assert verdict(wide, [w + 1 for w in wide], True, None) == "flat"
    split = [60.0, 60.0, 100.0, 140.0, 140.0] * 2   # IQR 80, median 100
    assert verdict(split, [141.0] * 10, True, 0.24) == "flat"
    assert verdict(split, [59.0] * 10, False, 0.24) == "flat"
    assert verdict(split, [59.0] * 10, True, 0.24) == "worse"


CODELINES = ROOT / "tools" / "codelines.py"
# a commit whose package the counts of earlier changes were taken on
COUNTED_COMMIT = "9493590fe7741b36a22c3ec51ccabf9eac829b3f"


def codelines(checkout):
    """tools/codelines.py's counts for checkout, as {name: (code lines,
    bytes)}, the totals under "total"."""
    out = subprocess.run([sys.executable, str(CODELINES), str(checkout)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return {name: (int(n), int(b)) for n, b, name in
            (line.split() for line in out.stdout.splitlines())}


def test_codelines_skips_blanks_comments_and_docstrings(tmp_path):
    """A code line holds a token other than a comment, outside every
    module, class and function docstring; a string that is not a
    docstring counts each of its lines, and a line of code with a
    trailing comment counts once.  Each file's bytes count everything,
    and the totals add up."""
    pkg = tmp_path / "src" / "matchdist"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(
        '"""Module\n\ndocstring."""\n'
        "# a comment\n"
        "\n"
        "X = 1  # code and a comment\n"
        "Y = '''two\n"
        "lines'''\n"
        "\n"
        "class C:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        '        """Function\n'
        '        docstring."""\n'
        "        return (1 +\n"
        "                2)\n")
    (pkg / "b.py").write_text("")
    size = (pkg / "a.py").stat().st_size
    assert size == 222
    assert codelines(tmp_path) == {"a.py": (7, size), "b.py": (0, 0),
                                   "total": (7, size)}


def test_codelines_reads_the_counted_commit(tmp_path):
    """At the commit whose package earlier changes counted by hand, the
    script reads their 1,582 code lines, file by file as they did, and
    119,527 source bytes, the sum of the files' sizes."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", COUNTED_COMMIT, "src/matchdist"],
        capture_output=True, timeout=60, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tmp_path)], input=archive,
                   check=True, timeout=60)
    counts = codelines(tmp_path)
    assert counts["total"] == (1582, 119527)
    assert {k: counts[k][0] for k in ("_fastpath.py", "cli.py",
                                      "exactdist.py", "gridscan.py")} == {
        "_fastpath.py": 316, "cli.py": 228, "exactdist.py": 438,
        "gridscan.py": 141}
    files = (tmp_path / "src" / "matchdist").glob("*.py")
    assert sum(counts[p.name][1] == p.stat().st_size for p in files) == 10


def test_codelines_prints_deltas_between_two_checkouts(tmp_path):
    """Given PARENT and CHANGE, where CHANGE is a copy of this checkout's
    package with one code line removed from one file, the script prints
    per file and for the total the code lines at both and their
    difference, then the bytes at both and theirs: -1 line and minus that
    line's bytes on the file and the total, +0 on every other file."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        shutil.copytree(ROOT / "src" / "matchdist", root / "src" / "matchdist",
                        ignore=shutil.ignore_patterns("__pycache__"))
    path = change / "src" / "matchdist" / "rational.py"
    text = path.read_text()
    line = "from __future__ import annotations\n"
    assert text.count(line) == 1
    path.write_text(text.replace(line, ""))
    out = subprocess.run([sys.executable, str(CODELINES), str(parent),
                          str(change)], capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    got = {name: tuple(map(int, nums)) for *nums, name in
           (row.split() for row in out.stdout.splitlines())}
    before = codelines(parent)
    assert list(got) == list(before)
    for name, (n, b) in before.items():
        dn, db = ((-1, -len(line)) if name in ("rational.py", "total")
                  else (0, 0))
        assert got[name] == (n, n + dn, dn, b, b + db, db)
