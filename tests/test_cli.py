"""Command-line contract: outputs and exit codes."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import remora
from remora.cli import COMMANDS, main

from .util import TWO_LAMS_SOURCE, atom_in_surviving_lam, family_source, plant_divergence, reduce_source

PROGRAMS = "programs"
HEAD_COL = f"{PROGRAMS}/head-col.remora"
DOCUMENTED_EXITS = (0, 1, 2, 3, 4, 64, 66, 74)


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

    def test_annotation_of_nothing_is_a_parse_error(self, tmp_path):
        proc = run_fresh(tmp_path, "(: Num)", "check")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"{tmp_path / 'prog.remora'}:1:1: empty application\n"

    @pytest.mark.parametrize(
        "source, diagnostic",
        [
            ("(array (²) 1)", "1:9: dimensions must be natural number literals"),
            ("(array () (lam ((x (Arr Num (Shp ²)))) x))", "1:34: UnboundVar: unbound index variable ²"),
        ],
    )
    def test_digit_that_int_cannot_read(self, tmp_path, source, diagnostic):
        proc = run_fresh(tmp_path, source, "check")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"{tmp_path / 'prog.remora'}:{diagnostic}\n"

    def test_annotation_must_match_the_type(self, tmp_path):
        proc = run_fresh(tmp_path, "(frame (1)\n  (array (2) 1 2 : (Arr Bool (Shp 5))))", "check")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            f"{tmp_path / 'prog.remora'}:2:3: AnnotationMismatch: annotation (Arr Bool (Shp 5))"
            " does not match the form's type (Arr Num (Shp 2))\n"
        )

    @pytest.mark.parametrize(
        "source, diagnostic",
        [
            ("(array (2) 1 2 : (Arr Num 3))", "1:27: SortMismatch: expected sort Shape, got Dim"),
            ("(array (2) 1 2 : (Arr Num (Shp (Shp 2))))", "1:27: SortMismatch: Shp elements must have sort Dim"),
            (
                "(array () (lam ((x (Arr Num (Shp)))) x : (-> ((Arr Num 3)) (Arr Num (Shp)))))",
                "1:56: SortMismatch: expected sort Shape, got Dim",
            ),
        ],
    )
    def test_ill_sorted_annotation_is_a_diagnostic(self, tmp_path, source, diagnostic):
        proc = run_fresh(tmp_path, source, "check")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"{tmp_path / 'prog.remora'}:{diagnostic}\n"
        assert "Traceback" not in proc.stderr

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

    def test_erase_spells_characters_as_the_reader_does(self, capsys, tmp_path):
        p = tmp_path / "chars.remora"
        p.write_text("(array (3) #\\space #\\a #\\newline)")
        assert run(capsys, "erase", str(p))[:2] == (0, "(array (3) #\\space #\\a #\\newline)\n")
        assert run(capsys, "bisim", str(p))[:2] == (0, "both-value steps=0\n")

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

    @pytest.mark.parametrize(
        "source, diagnostic",
        [
            ("(array () (lam ((x (Arr Num (Shp (Shp 1))))) x))",
             "1:34: SortMismatch: expected a Dim-sorted index, got a Shape form"),
            ("(i-app (array () (ilam ((n Dim)) (array () 1))) (Shp (+ (Shp) 1)))",
             "1:57: SortMismatch: expected a Dim-sorted index, got a Shape form"),
            ("(array (0) : (Arr Num (++ 3)))", "1:27: SortMismatch: expected a Shape-sorted index, got a Dim form"),
        ],
    )
    def test_fmt_canonical_ill_sorted_index_is_a_diagnostic(self, tmp_path, source, diagnostic):
        # fmt does not check the program, so the normal form of an index is
        # the first thing to find its sort wrong; the location is inside it.
        proc = run_fresh(tmp_path, source, "fmt", "--canonical")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"{tmp_path / 'prog.remora'}:{diagnostic}\n"


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


class TestUsage:
    """Every malformed command line is one `usage error:` line and exit 64;
    `-h` is usage on stdout and exit 0; the accepted spellings agree."""

    @pytest.mark.parametrize(
        "argv",
        [
            (),
            ("evaluate-everything", HEAD_COL),
            ("--fuel", "3", "eval", HEAD_COL),
            ("eval", "--trace-all", HEAD_COL),
            ("fmt", "--trace", HEAD_COL),
            ("erase", "--fuel", "3", HEAD_COL),
            ("check", "--canonical", HEAD_COL),
            ("eval", "--fu", "3", HEAD_COL),
            ("fmt", "--canon", HEAD_COL),
            ("eval", "--trace=1", HEAD_COL),
            ("eval",),
            ("bisim", "--trace"),
            ("eval", HEAD_COL, HEAD_COL),
            ("check", HEAD_COL, "extra"),
            ("eval", HEAD_COL, "--fuel"),
            ("eval", "--fuel", "ten", HEAD_COL),
            ("bisim", "--fuel=", HEAD_COL),
            ("eval", "--fuel=2.5", HEAD_COL),
            ("eval", "--fuel", "0", HEAD_COL),
            ("bisim", "--fuel=0", HEAD_COL),
            ("eval", "--fuel", "-3", HEAD_COL),
            ("bisim", "--fuel=-1", HEAD_COL),
        ],
        ids=lambda argv: " ".join(argv) or "(nothing)",
    )
    def test_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (64, "")
        assert err.startswith("usage error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_check_needs_a_file_or_list_prims(self, capsys):
        assert run(capsys, "check") == (64, "", "usage error: check needs a file (or --list-prims)\n")

    @pytest.mark.parametrize("argv", [("-h",), ("--help",), ("-h", "eval")])
    def test_help(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: remora COMMAND [PATH] [flags]\n")
        for name, (_, help_line, *_) in COMMANDS.items():
            assert f"  {name} " in out and help_line in out

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_command_help(self, capsys, name, flag):
        for argv in ((name, flag), (name, HEAD_COL, flag), (name, "--no-such-flag", flag)):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            assert out.startswith(f"usage: remora {name} ") and COMMANDS[name][1] in out

    @pytest.mark.parametrize(
        "documented, spellings",
        [
            (
                ("eval", f"{PROGRAMS}/lift-add.remora", "--trace"),
                [("eval", "--trace", f"{PROGRAMS}/lift-add.remora")],
            ),
            (
                ("eval", HEAD_COL, "--fuel", "9"),
                [("eval", HEAD_COL, "--fuel=9"), ("eval", "--fuel", "9", HEAD_COL), ("eval", "--fuel=9", HEAD_COL)],
            ),
            (
                ("bisim", f"{PROGRAMS}/filter-keep.remora", "--fuel", "4", "--trace"),
                [
                    ("bisim", "--trace", "--fuel=4", f"{PROGRAMS}/filter-keep.remora"),
                    ("bisim", "--fuel", "4", f"{PROGRAMS}/filter-keep.remora", "--trace"),
                ],
            ),
            (
                ("fmt", f"{PROGRAMS}/reshape.remora", "--canonical", "--annotations"),
                [
                    ("fmt", "--annotations", "--canonical", f"{PROGRAMS}/reshape.remora"),
                    ("fmt", "--canonical", f"{PROGRAMS}/reshape.remora", "--annotations"),
                ],
            ),
            (("check", "--list-prims"), [("check", "--list-prims", "--list-prims")]),
        ],
    )
    def test_spellings_agree(self, capsys, documented, spellings):
        expected = run(capsys, *documented)
        assert expected[0] in (0, 3) and expected[1]
        for argv in spellings:
            assert run(capsys, *argv) == expected, argv


class TestClosedOutput:
    def test_closed_stdout_exits_74(self, tmp_path):
        # The trace is over 1 MB, far more than a pipe holds, so the process
        # is still writing when the reader goes away.
        path = tmp_path / "prog.remora"
        path.write_text(reduce_source(300) + "\n", encoding="utf-8")
        src = str(pathlib.Path(remora.__file__).resolve().parent.parent)
        with subprocess.Popen(
            [sys.executable, "-m", "remora.cli", "eval", "--trace", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
        ) as proc:
            head = proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=120)
        assert len(head) == 100
        assert (code, err) == (74, "cannot write output: Broken pipe\n")


class TestLazyImports:
    """A command loads only the modules it uses, checked in a fresh process
    without `site`, so that nothing else has loaded them first. Reading argv
    loads no option parser: argparse would bring gettext and locale."""

    LOADED = {
        "check": "remora.check",
        "eval": "remora.check remora.eval",
        "erase": "remora.check remora.erase remora.eval",
        "bisim": "remora.check remora.erase remora.eval",
        "fmt": "",
    }

    WATCH = (
        "import sys\n"
        "watch = ('argparse', 'gettext', 'locale', 'dataclasses', 'inspect',"
        " 'remora.check', 'remora.erase', 'remora.eval')\n"
        "def loaded():\n"
        "    print(' '.join(m for m in watch if m in sys.modules), file=sys.stderr)\n"
    )
    # The two ways a process runs a command: `python -m remora.cli`, which
    # runs the module as `__main__`, and the installed `remora` script, which
    # calls `entry`. Each ends in `sys.exit`, so an atexit handler prints what
    # was loaded.
    PROCESS_PATHS = {
        "module": (
            "import atexit, runpy\natexit.register(loaded)\nloaded()\n"
            "sys.argv = ['remora', {command!r}, 'programs/head-col.remora']\n"
            "runpy.run_module('remora.cli', run_name='__main__')\n"
        ),
        "script": (
            "import atexit\nimport remora.cli\natexit.register(loaded)\nloaded()\n"
            "sys.argv = ['remora', {command!r}, 'programs/head-col.remora']\nremora.cli.entry()\n"
        ),
    }

    def run_without_site(self, script: str, command: str):
        src = str(pathlib.Path(remora.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-S", "-c", self.WATCH + script], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.split("\n") == ["", self.LOADED[command], ""]
        if command == "fmt":
            assert proc.stdout == "((t-app (i-app (array () head) 1 (Shp)) Num) (array (3 2) 0 1 2 3 4 5))\n"

    @pytest.mark.parametrize("command", list(LOADED))
    def test_cli_import_and_command_load_only_what_they_use(self, command):
        script = f"import remora.cli\nloaded()\nremora.cli.main([{command!r}, 'programs/head-col.remora'])\nloaded()\n"
        self.run_without_site(script, command)

    @pytest.mark.parametrize("path", list(PROCESS_PATHS))
    @pytest.mark.parametrize("command", list(LOADED))
    def test_process_entry_loads_only_what_the_command_uses(self, command, path):
        self.run_without_site(self.PROCESS_PATHS[path].format(command=command), command)


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


def run_process(*argv):
    """`python -m remora.cli <argv>` in a fresh process."""
    src = str(pathlib.Path(remora.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, "-m", "remora.cli", *argv], capture_output=True, text=True, env=env, timeout=120,
    )


def run_fresh(tmp_path, source: str, *argv):
    """`remora <argv> <file holding source>` in a fresh process, so that a
    host RecursionError would show on stderr."""
    path = tmp_path / "prog.remora"
    path.write_text(source + "\n", encoding="utf-8")
    return run_process(*argv, str(path))


def _corpus_expected() -> dict:
    """(file, command) -> (exit code, stdout line), as `perfbench/corpus.expected`
    lists them. The file is only read here."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "corpus.expected"
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines() if line and line[0] != "#"]
    return {(name, command): (int(code), out) for name, command, code, out in rows}


CORPUS_EXPECTED = _corpus_expected()


def test_corpus_expected_covers_every_program_and_command():
    names = {p.name for p in pathlib.Path(PROGRAMS).glob("*.remora")}
    assert set(CORPUS_EXPECTED) == {(n, c) for n in names for c in COMMANDS}


@pytest.mark.parametrize("name, command", sorted(CORPUS_EXPECTED))
def test_corpus_process_matches_expected(name, command):
    """Each `programs/` file under each command as its own `python -m
    remora.cli` process, the path users take."""
    proc = run_process(command, f"{PROGRAMS}/{name}")
    code, line = CORPUS_EXPECTED[name, command]
    assert (proc.returncode, proc.stdout) == (code, line + "\n"), proc.stderr
    assert "Traceback" not in proc.stderr


class TestDeepEvaluation:
    def test_deep_reduce_evaluates_without_traceback(self, tmp_path):
        proc = run_fresh(tmp_path, reduce_source(10_000), "eval")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "(array () 49995000)\n"
        assert "Traceback" not in proc.stderr

    def test_deep_reduce_traces_every_step(self, tmp_path):
        # Each state is an App chain up to 2,000 deep; the printer is a loop.
        proc = run_fresh(tmp_path, reduce_source(2_000), "eval", "--trace")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert len(lines) == 2_008 and sum("\t" in line for line in lines) == 2_007
        assert lines[-1] == "(array () 1999000)"


class TestResourceLimit:
    """Input that nests deeper than the Python stack allows exits 4 with a
    one-line diagnostic, never a traceback. A deep fold is bounded by fuel
    alone: both machines and erasure take no Python frame per level."""

    @pytest.mark.parametrize("argv, n", [(("bisim",), 10_000)])
    def test_deep_reduce_runs_out_of_fuel(self, tmp_path, argv, n):
        # `bisim`'s default fuel is 10^4 steps; this fold takes n + 7.
        proc = run_fresh(tmp_path, reduce_source(n), *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, f"diverged steps={n}\n", "")

    @pytest.mark.parametrize("argv, out", [
        (("bisim", "--fuel", "30000"), "both-value steps=10007\n"),
        (("eval",), "(array () 49995000)\n"),
    ], ids=["bisim", "eval"])
    def test_deep_reduce_reaches_its_value(self, tmp_path, argv, out):
        proc = run_fresh(tmp_path, reduce_source(10_000), *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")

    @pytest.mark.parametrize("command, code", [("check", 0), ("eval", 0), ("fmt", 0), ("erase", 0)])
    def test_frame_900_deep(self, tmp_path, command, code):
        # The grammar and `elaborate` take one Python frame per level and
        # handle 900; `erase` parses and elaborates as `check` does, and
        # `erase_term` takes none.
        proc = run_fresh(tmp_path, family_source("frame", 899), command)
        assert (proc.returncode, proc.stderr) == (code, "")
        if command == "erase":
            assert proc.stdout == "(frame (Shp) " * 899 + "(array () 7)" + ")" * 899 + "\n"

    def test_deep_frame_fmt_exits_4(self, tmp_path):
        # The grammar pass (`parser._parse`) still recurses once per level.
        proc = run_fresh(tmp_path, family_source("frame", 10_000), "fmt")
        assert proc.returncode == 4, proc.stderr
        assert proc.stdout == "" and "Traceback" not in proc.stderr
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


class TestBenchmarkHooks:
    def test_every_traced_name_resolves(self):
        # The benchmark's tracer wraps these names by (module, attribute); a
        # moved name would break only its traced runs.
        path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        assert tracer.TARGETS
        for module, attr, _ in tracer.TARGETS:
            assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
