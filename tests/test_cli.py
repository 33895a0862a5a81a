"""Command-line contract: outputs and exit codes."""

import os
import pathlib
import subprocess
import sys

import pytest

import remora
from remora.cli import main

from .util import TWO_LAMS_SOURCE, atom_in_surviving_lam, plant_divergence, reduce_source

PROGRAMS = "programs"
DOCUMENTED_EXITS = (0, 1, 2, 3, 4, 64, 66)


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_prints_principal_type(self, capsys):
        code, out, _ = run(capsys, "check", f"{PROGRAMS}/head-col.remora")
        assert code == 0
        assert out.strip() == "(Arr Num (Shp 3))"

    def test_type_error_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.remora"
        bad.write_text("(array (2 2) 1 2 3)")
        code, out, err = run(capsys, "check", str(bad))
        assert code == 1
        assert "LengthMismatch" in err and out == ""

    def test_error_carries_location(self, capsys, tmp_path):
        bad = tmp_path / "bad.remora"
        bad.write_text(";\n(array (2 2) 1 2 3)")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 1 and "bad.remora:2" in err

    def test_list_prims(self, capsys):
        code, out, _ = run(capsys, "check", "--list-prims")
        assert code == 0
        assert out == LIST_PRIMS


class TestEval:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "eval", f"{PROGRAMS}/head-col.remora")
        assert code == 0 and out.strip() == "(array (3) 0 2 4)"

    def test_stuck_exits_2(self, capsys):
        code, out, _ = run(capsys, "eval", f"{PROGRAMS}/div0.remora")
        assert code == 2 and out.strip() == "stuck: misapplied /"

    def test_out_of_fuel_exits_3(self, capsys):
        code, out, _ = run(capsys, "eval", f"{PROGRAMS}/head-col.remora", "--fuel", "2")
        assert code == 3 and out.strip() == "out of fuel"

    def test_fuel_counts_as_in_bisim(self, capsys):
        # head-col is a value after 10 contractions: both commands say so at
        # --fuel 10, and both run out at --fuel 9.
        path = f"{PROGRAMS}/head-col.remora"
        assert run(capsys, "eval", "--fuel", "10", path)[:2] == (0, "(array (3) 0 2 4)\n")
        assert run(capsys, "bisim", "--fuel", "10", path)[:2] == (0, "both-value steps=10\n")
        assert run(capsys, "eval", "--fuel", "9", path)[:2] == (3, "out of fuel\n")
        assert run(capsys, "bisim", "--fuel", "9", path)[:2] == (3, "diverged steps=9\n")

    def test_trace_lines(self, capsys):
        code, out, _ = run(capsys, "eval", f"{PROGRAMS}/frame.remora", "--trace")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split("\t")[0] == "collapse"
        assert lines[-1] == "(array (2 2) 1 2 3 4)"


class TestEraseBisimFmt:
    def test_erase(self, capsys):
        code, out, _ = run(capsys, "erase", f"{PROGRAMS}/frame.remora")
        assert code == 0
        assert out.strip() == "(frame (Shp 2 2) (array (2) 1 2) (array (2) 3 4))"

    def test_bisim_verdict(self, capsys):
        code, out, _ = run(capsys, "bisim", f"{PROGRAMS}/head-col.remora")
        assert code == 0 and out.strip() == "both-value steps=10"

    def test_bisim_out_of_fuel_exits_3(self, capsys):
        code, out, _ = run(capsys, "bisim", "--trace", "--fuel", "4", f"{PROGRAMS}/filter-keep.remora")
        lines = out.splitlines()
        assert code == 3 and lines[-1] == "diverged steps=4"
        assert [line.split("\t")[0] for line in lines[:-1]] == ["0", "1", "2", "3"]

    def test_bisim_stuck(self, capsys):
        code, out, _ = run(capsys, "bisim", f"{PROGRAMS}/div0.remora")
        assert code == 0 and out.strip() == "both-stuck steps=0"

    def test_fmt_canonical(self, capsys, tmp_path):
        p = tmp_path / "t.remora"
        p.write_text("(array () (lam ((x (Arr Num (++ (Shp 3) (Shp 4))))) x))")
        code, out, _ = run(capsys, "fmt", str(p), "--canonical")
        assert code == 0
        assert "(Shp 3 4)" in out

    def test_fmt_annotations(self, capsys, tmp_path):
        p = tmp_path / "t.remora"
        p.write_text("(array (2) 1 2)")
        code, out, _ = run(capsys, "fmt", str(p), "--annotations")
        assert code == 0
        assert out.strip() == "(array (2) 1 2 : (Arr Num (Shp 2)))"


class TestExitCodes:
    def test_usage_error_is_64(self, capsys):
        code, _, _ = run(capsys, "evaluate-everything")
        assert code == 64

    def test_bad_fuel_is_64(self, capsys):
        code, _, _ = run(capsys, "eval", f"{PROGRAMS}/frame.remora", "--fuel", "0")
        assert code == 64

    def test_unreadable_file_is_66(self, capsys):
        code, _, _ = run(capsys, "eval", "no/such/file.remora")
        assert code == 66

    def test_file_not_utf8_is_66(self, capsys, tmp_path):
        p = tmp_path / "bytes.remora"
        p.write_bytes(b"\xff\xfe(array () 1)")
        code, out, err = run(capsys, "eval", str(p))
        assert code == 66 and out == ""
        assert err == f"cannot read {p}: not UTF-8 text\n" and "Traceback" not in err

    def test_outcomes_disjoint_over_corpus(self, capsys):
        for command in ("check", "eval", "erase", "bisim", "fmt"):
            for path in sorted(pathlib.Path(PROGRAMS).glob("*.remora")):
                code, _, err = run(capsys, command, str(path))
                assert code in DOCUMENTED_EXITS and "Traceback" not in err, (command, path.name)
                if command == "eval":
                    assert code in (0, 2, 3)


class TestLazyImports:
    """A command loads only the modules it uses, checked in a fresh process
    without `site`, so that nothing else has loaded them first."""

    def test_cli_import_and_fmt_load_only_what_they_use(self):
        script = (
            "import sys\n"
            "watch = ('dataclasses', 'inspect', 'remora.check', 'remora.erase', 'remora.eval')\n"
            "import remora.cli\n"
            "print(' '.join(m for m in watch if m in sys.modules), file=sys.stderr)\n"
            "remora.cli.main(['fmt', 'programs/frame.remora'])\n"
            "print(' '.join(m for m in watch if m in sys.modules), file=sys.stderr)\n"
        )
        src = str(pathlib.Path(remora.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "(frame (2) (array (2) 1 2) (array (2) 3 4))\n"
        assert proc.stderr.split("\n") == ["", "", ""]


class TestBisimMismatchReport:
    def test_planted_divergence_names_first_difference(self, capsys, monkeypatch, tmp_path):
        p = tmp_path / "two-lams.remora"
        p.write_text(TWO_LAMS_SOURCE)
        planted = plant_divergence(monkeypatch, 2, atom_in_surviving_lam)
        code, out, err = run(capsys, "bisim", str(p))
        assert code == 1 and out == "mismatch step=2\n"
        assert planted["path"] == "cell1/fn/atom0/body/arg1/atom0"
        assert err == (
            "first difference at cell1/fn/atom0/body/arg1/atom0:"
            " typed state erases to 3, erased machine has 4\n"
        )


def run_fresh(tmp_path, source: str, *argv):
    """`remora <argv> <file holding source>` in a fresh process, so that a
    host RecursionError would show on stderr."""
    path = tmp_path / "prog.remora"
    path.write_text(source + "\n", encoding="utf-8")
    src = str(pathlib.Path(remora.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, "-m", "remora.cli", *argv, str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestDeepEvaluation:
    def test_deep_reduce_evaluates_without_traceback(self, tmp_path):
        proc = run_fresh(tmp_path, reduce_source(10_000), "eval")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "(array () 49995000)\n"
        assert "Traceback" not in proc.stderr


class TestResourceLimit:
    """Input that nests deeper than the Python stack allows exits 4 with a
    one-line diagnostic, never a traceback."""

    @pytest.mark.parametrize("argv, n", [(("bisim",), 10_000), (("eval", "--trace"), 2_000)])
    def test_deep_reduce_exits_4(self, tmp_path, argv, n):
        proc = run_fresh(tmp_path, reduce_source(n), *argv)
        assert proc.returncode == 4, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("resource limit: ") and proc.stderr.count("\n") == 1


# `check --list-prims`, one operator and its signature per line
LIST_PRIMS = (
    "*\t(-> ((Arr Num (Shp)) (Arr Num (Shp))) (Arr Num (Shp)))\n"
    "+\t(-> ((Arr Num (Shp)) (Arr Num (Shp))) (Arr Num (Shp)))\n"
    "-\t(-> ((Arr Num (Shp)) (Arr Num (Shp))) (Arr Num (Shp)))\n"
    "/\t(-> ((Arr Num (Shp)) (Arr Num (Shp))) (Arr Num (Shp)))\n"
    "<\t(-> ((Arr Num (Shp)) (Arr Num (Shp))) (Arr Bool (Shp)))\n"
    "=\t(-> ((Arr Num (Shp)) (Arr Num (Shp))) (Arr Bool (Shp)))\n"
    "append\t(Pi ((c Shape) (m Dim) (n Dim)) (Arr (Forall ((a Atom)) (Arr (-> ((Arr a (++ (Shp m) c)) (Arr a (++ (Shp n) c))) (Arr a (++ (Shp (+ m n)) c))) (Shp))) (Shp)))\n"
    "filter\t(Pi ((d Dim) (c Shape)) (Arr (Forall ((a Atom)) (Arr (-> ((Arr Bool (Shp d)) (Arr a (++ (Shp d) c))) (Arr (Sigma ((m Dim)) (Arr a (++ (Shp m) c))) (Shp))) (Shp))) (Shp)))\n"
    "head\t(Pi ((d Dim) (s Shape)) (Arr (Forall ((a Atom)) (Arr (-> ((Arr a (++ (Shp (+ 1 d)) s))) (Arr a s)) (Shp))) (Shp)))\n"
    "iota/s\t(Pi ((s Shape)) (Arr (-> () (Arr Num s)) (Shp)))\n"
    "iota/v\t(-> ((Arr Num (Shp))) (Arr (Sigma ((n Dim)) (Arr Num (Shp n))) (Shp)))\n"
    "ravel\t(Pi ((c Shape)) (Arr (Forall ((a Atom)) (Arr (-> ((Arr a c)) (Arr (Sigma ((n Dim)) (Arr a (Shp n))) (Shp))) (Shp))) (Shp)))\n"
    "reduce\t(Pi ((d Dim) (c Shape)) (Arr (Forall ((a Atom)) (Arr (-> ((Arr (-> ((Arr a c) (Arr a c)) (Arr a c)) (Shp)) (Arr a (++ (Shp (+ 1 d)) c))) (Arr a c)) (Shp))) (Shp)))\n"
    "reshape\t(Pi ((d Dim) (c Shape)) (Arr (Forall ((a Atom)) (Arr (-> ((Arr Num (Shp d)) (Arr a c)) (Arr (Sigma ((s Shape)) (Arr a s)) (Shp))) (Shp))) (Shp)))\n"
)
