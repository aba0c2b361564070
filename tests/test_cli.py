"""CLI tests: the module file grammar, each command, and every exit code."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matchdist.cli as cli
from conftest import ex_need_omega
from matchdist.cli import ParseError, main, parse_module
from matchdist.exactdist import candidate_lines, matching_distance
from matchdist.geometry import line_through
from matchdist.fibered import restrict_module
from matchdist.modules import Presentation, TwoParamModule, rect
from matchdist.rational import INF, Q, fmt

EX1_M = "rect 0 0 7 7\nrect 0 4 7 11\n"
EX1_N = "rect 0 0 7 11\nrect 0 4 7 7\n"
EX2_M = "rect 0 0 7 8\nrect 0 4 7 11\n"
EX2_N = "rect 0 0 7 11\nrect 0 4 7 8\n"
PRES = "gen g 0 0\nrel r 0 7 g\n"


def put(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# Grammar.

def test_parse_rect_statements():
    m = parse_module("# heading\n\nrect 0 4 7 11  # trailing\nrect 2 2 inf 7")
    assert m.rectangles == (rect(0, 4, 7, 11), rect(2, 2, INF, 7))
    m = parse_module("rect 0.5 0 7/2 inf")
    assert m.rectangles[0].lower == (Q(1, 2), Q(0))
    assert m.rectangles[0].upper == (Q(7, 2), INF)


def test_parse_presentation():
    m = parse_module(PRES)
    assert m.presentation.generators == (("g", (Q(0), Q(0))),)
    assert m.presentation.relations == (("r", (Q(0), Q(7)),
                                         frozenset({"g"})),)
    # one bar-producing pair
    d = restrict_module(m, line_through((0, 0), (1, 1)))
    assert len(d) == 1


def test_parse_empty_is_trivial():
    assert parse_module("# nothing\n").is_trivial


@pytest.mark.parametrize("text,lineno,needle", [
    ("rect 0 0 7 x", 1, "'x'"),
    ("rect 0 0 7", 1, "4 coordinates"),
    ("rect inf 0 7 7", 1, "inf"),
    ("rect 0 0 0 7", 1, "lower < upper"),
    ("rect 0 0 7/0 7", 1, "'7/0'"),
    ("box 0 0 7 7", 1, "unknown statement"),
    ("rect 0 0 7 7\ngen g 0 0", 2, "mix"),
    ("gen g 0 0\nrect 0 0 7 7", 2, "mix"),
    ("gen g 0 0\ngen g 1 1", 2, "duplicate"),
    ("gen g 0 0\nrel r 0 7 h", 2, "unknown generator 'h'"),
    ("gen g 2 2\nrel r 0 7 g", 2, "below generator"),
    ("gen g 0 0\nrel r 1 1 g\ngen g 2 2", 3, "duplicate"),
])
def test_parse_errors(text, lineno, needle):
    with pytest.raises(ParseError) as e:
        parse_module(text)
    assert e.value.lineno == lineno
    assert needle in str(e.value)


def test_parse_validates_presentation_once(monkeypatch):
    """A bad statement is located by one check of the whole presentation,
    not one per prefix of the file."""
    built = []

    def counted(*args):
        built.append(args)
        return Presentation(*args)

    monkeypatch.setattr(cli, "Presentation", counted)
    text = "".join("gen g%d %d 0\n" % (i, i) for i in range(10000))
    with pytest.raises(ParseError) as e:
        parse_module(text + "rel r 0 0 g9999\n")
    assert e.value.lineno == 10001
    assert "below generator 'g9999'" in str(e.value)
    assert len(built) == 1


def serialize_module(module: TwoParamModule) -> str:
    """Module file text that parses back to an equal module."""
    out = []
    if module.rectangles is not None:
        for r in module.rectangles:
            out.append("rect %s %s %s %s" % (fmt(r.lower[0]), fmt(r.lower[1]),
                                             fmt(r.upper[0]),
                                             fmt(r.upper[1])))
    else:
        p = module.presentation
        for n, g in p.generators:
            out.append("gen %s %s %s" % (n, fmt(g[0]), fmt(g[1])))
        for n, g, col in p.relations:
            out.append(("rel %s %s %s %s" % (n, fmt(g[0]), fmt(g[1]),
                                             " ".join(sorted(col)))).rstrip())
    return "".join(s + "\n" for s in out)


def test_round_trip():
    mods = [parse_module(EX1_M), parse_module(PRES),
            parse_module("rect 1/3 0.25 inf inf"),
            parse_module("gen a 0 0\ngen b 1 1\nrel r 2 2 a b\nrel z 3 3"),
            TwoParamModule.from_rects([])]
    for m in mods:
        assert parse_module(serialize_module(m)) == m


# Commands.

def test_dist_plain(tmp_path, capsys):
    a, b = put(tmp_path, "a", EX1_M), put(tmp_path, "b", EX1_N)
    assert main(["dist", a, b]) == 0
    frac, flt = capsys.readouterr().out.split()
    assert frac == "28/11"
    assert abs(float(flt) - 28 / 11) < 1e-12


def test_dist_json(tmp_path, capsys):
    a, b = put(tmp_path, "a", EX2_M), put(tmp_path, "b", EX2_N)
    assert main(["dist", a, b, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == "21/10"
    assert abs(doc["value_float"] - 2.1) <= 2.1 * 1e-12
    assert doc["witness_line"] == {"m1": "7/10", "m2": "1",
                                   "b1": "-7/17", "b2": "7/17"}
    s, t, delta = doc["realizer"]["s"], doc["realizer"]["t"], \
        doc["realizer"]["delta"]
    assert abs(Q(s) - Q(t)) / delta * Q(7, 10) == Q(21, 10)
    res = matching_distance(*ex_need_omega())
    assert doc["candidate_count"] == res.candidate_count
    assert doc["seconds"] >= 0


def test_dist_infinite(tmp_path, capsys):
    a = put(tmp_path, "a", "rect 0 0 inf inf\n")
    b = put(tmp_path, "b", "rect 0 0 4 4\n")
    assert main(["dist", a, b]) == 0
    assert capsys.readouterr().out.split() == ["inf", "inf"]
    assert main(["dist", a, b, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == "inf" and doc["value_float"] is None
    assert doc["witness_line"] is not None and doc["realizer"] is None


def test_bottleneck_through_and_line(tmp_path, capsys):
    a, b = put(tmp_path, "a", EX1_M), put(tmp_path, "b", EX1_N)
    assert main(["bottleneck", a, b, "--through", "0,0,7,11"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert main(["bottleneck", a, b, "--line", "7/11,1,0,0"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_restrict(tmp_path, capsys):
    a = put(tmp_path, "a", EX1_M)
    assert main(["restrict", a, "--through", "0,0,7,11"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 7", "4 11"]


def test_switchpoints(tmp_path, capsys):
    a, b = put(tmp_path, "a", EX2_M), put(tmp_path, "b", EX2_N)
    assert main(["switchpoints", a, b]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "point 7/2 6" in lines
    assert "direction 1 1" in lines


def test_lines(tmp_path, capsys):
    a = put(tmp_path, "a", "rect 2 2 inf 7\n")
    b = put(tmp_path, "b", "rect 2 2 inf 10\n")
    assert main(["lines", a, b]) == 0
    out = capsys.readouterr().out.splitlines()
    M, N = parse_module("rect 2 2 inf 7"), parse_module("rect 2 2 inf 10")
    cl = candidate_lines(M, N).lines
    assert len(out) == len(cl)
    assert out[0].split() == [str(cl[0].m[0]), str(cl[0].m[1]),
                              str(cl[0].b[0]), str(cl[0].b[1])]


def test_vcost_hcost(tmp_path, capsys):
    a = put(tmp_path, "a", "rect 2 2 7 inf\n")
    b = put(tmp_path, "b", "rect 2 2 10 inf\n")
    assert main(["vcost", a, b, "--x", "8"]) == 0
    assert capsys.readouterr().out.split() == ["1", "1.0"]
    sa = put(tmp_path, "sa", "rect 2 2 inf 7\n")
    sb = put(tmp_path, "sb", "rect 2 2 inf 10\n")
    assert main(["hcost", sa, sb, "--y", "8"]) == 0
    assert capsys.readouterr().out.split() == ["1", "1.0"]


def test_scan_stdout_and_file(tmp_path, capsys):
    a = put(tmp_path, "a", "rect 2 2 inf 7\n")
    b = put(tmp_path, "b", "rect 2 2 inf 10\n")
    assert main(["scan", a, b, "--theta-steps", "3",
                 "--offset-steps", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "theta,offset,weighted_bottleneck"
    assert len(out) == 1 + 3 * 4
    csv_path = str(tmp_path / "rows.csv")
    assert main(["scan", a, b, "--theta-steps", "3", "--offset-steps", "4",
                 "--out", csv_path]) == 0
    assert capsys.readouterr().out.startswith("max ")
    with open(csv_path) as f:
        assert f.read().splitlines() == out


# Exit codes.

def _help_texts():
    """The --help texts of the program and of each subcommand, by command
    line, from cli_help.txt: argparse's output at 80 columns on Python
    3.11, one section per command, each after a "== matchdist ... ==" line."""
    text = (Path(__file__).parent / "cli_help.txt").read_text()
    parts = text.split("== ")[1:]
    return {head: body for head, _, body in
            (p.partition(" ==\n") for p in parts)}


def test_help_texts_unchanged(capsys, monkeypatch):
    """--help of the program and of every subcommand prints cli_help.txt's
    text byte for byte and exits 0."""
    monkeypatch.setenv("COLUMNS", "80")
    texts = _help_texts()
    assert len(texts) == 9
    for head, want in texts.items():
        with pytest.raises(SystemExit) as done:
            main([*head.split()[1:], "--help"])
        assert done.value.code == 0
        assert capsys.readouterr().out == want, head


def test_exit_2_parse_error(tmp_path, capsys):
    a = put(tmp_path, "a", "rect 0 0 7 x\n")
    b = put(tmp_path, "b", EX1_N)
    assert main(["dist", a, b]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "'x'" in err
    assert main(["dist", str(tmp_path / "missing"), b]) == 2
    # a file error is reported before a bad line spec
    for cmd in (["bottleneck", b, str(tmp_path / "missing")],
                ["restrict", str(tmp_path / "missing")]):
        capsys.readouterr()
        assert main([*cmd, "--line", "0,1,0,0"]) == 2
        err = capsys.readouterr().err
        assert "No such file" in err and "missing" in err


def test_exit_3_bad_line_spec(tmp_path, capsys):
    a, b = put(tmp_path, "a", EX1_M), put(tmp_path, "b", EX1_N)
    assert main(["bottleneck", a, b, "--through", "0,0,0,7"]) == 3
    assert main(["bottleneck", a, b, "--through", "0,0,7"]) == 3
    assert main(["bottleneck", a, b, "--line=-1,1,0,0"]) == 3
    assert main(["bottleneck", a, b, "--line", "0,1,0,0"]) == 3
    assert main(["restrict", a, "--line", "1,0,0,0"]) == 3
    capsys.readouterr()


def test_exit_1_closed_output_pipe(tmp_path):
    """A scan whose CSV, 10,000 rows of some 300 KB, well over a pipe
    buffer, goes to a reader that closes after one line: it exits 1, with
    no error message."""
    a, b = put(tmp_path, "a", EX1_M), put(tmp_path, "b", EX1_N)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "matchdist.cli", "scan", "--theta-steps",
         "100", "--offset-steps", "100", a, b],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"theta,offset,")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "error:" not in err


def test_exit_4_both_trivial(tmp_path, capsys):
    a = put(tmp_path, "a", "# empty\n")
    b = put(tmp_path, "b", "")
    assert main(["lines", a, b]) == 4
    assert main(["vcost", a, b, "--x", "1"]) == 4
    assert main(["hcost", a, b, "--y", "1"]) == 4
    capsys.readouterr()
    # dist stays defined: zero with no witness
    assert main(["dist", a, b]) == 0
    assert capsys.readouterr().out.split() == ["0", "0.0"]
