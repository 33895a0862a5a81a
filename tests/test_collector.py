"""The cyclic garbage collector around the library's entry points.

`syntax.gc_paused` pauses the collector inside `parse_term`, `parse_type`,
`parse_index`, `elaborate`, `eval.run` (so `evaluate` and `erased_evaluate`),
`erase_term` and `bisim_run`. That is safe only while nothing they allocate
forms a reference cycle: a cycle made while the collector is paused would
stay in memory until the call returns. The first test holds the entry points
to that. The others check that each leaves the collector as it found it."""

import gc
from collections import Counter

import pytest

from remora import cli
from remora.check import EMPTY_ENV, TypeCheckError, elaborate
from remora.erase import ErasedMachine, bisim_run, erase_term, erased_evaluate
from remora.eval import DEFAULT_FUEL, Machine, evaluate, run
from remora.parser import ParseError, parse_index, parse_term, parse_type
from remora.printer import print_term, print_type
from remora.prims import SIGNATURE
from remora.syntax import ArrayLit, Frame, gc_paused, num

from .util import ORACLE_GROUPS, PROGRAMS_DIR, check_src, family_source, oracle_programs, reduce_source

PARSE_ERROR = "(array (2) 1"
TYPE_ERROR = "(array (2 2) 1 2 3)"
# Elaborates (the front end takes one Python frame per level) but nests too
# deep for `erase_term` and `bisim_run`, which take more.
DEEP_FRAME = 700
# States of each program's run that the no-cycles round re-elaborates.
STATES = 10


def _library_round() -> None:
    """Every wrapped entry point over every oracle group: each program's
    printed text parsed back, its first states re-elaborated and erased, and
    it run with a trace on both machines alone and in lockstep, then again
    out of fuel. The front end also rejects a parse error and a type error."""
    for group in ORACLE_GROUPS:
        for t in oracle_programs(group):
            _, ty = elaborate(EMPTY_ENV, SIGNATURE, parse_term(print_term(t)))
            parse_type(print_type(ty))
            r = evaluate(t, trace=True)
            for _, s in r.trace[:STATES]:
                elaborate(EMPTY_ENV, SIGNATURE, s)
                erase_term(s)
            e = erase_term(t)
            erased_evaluate(e, trace=True)
            bisim_run(t, trace=True)
            evaluate(t, fuel=1)
            erased_evaluate(e, fuel=1)
            bisim_run(t, fuel=1)
    parse_index("(++ (Shp 2) (Shp n))")
    for source, error in ((PARSE_ERROR, ParseError), (TYPE_ERROR, TypeCheckError)):
        try:
            elaborate(EMPTY_ENV, SIGNATURE, parse_term(source))
        except error:
            pass


def _cli(*argv) -> int:
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code


def _cli_round(tmp_path) -> Counter:
    """Every subcommand over `programs/`, with and without its flags, and the
    inputs that end in each other exit code: a parse error and a type error
    (1), out of fuel (3) and a fold nested too deep for `bisim` (4). The
    corpus holds a stuck program (2). Returns the exit codes seen."""
    inputs = {"parse-error": PARSE_ERROR, "type-error": TYPE_ERROR, "deep-reduce": reduce_source(10_000)}
    paths = [str(p) for p in sorted(PROGRAMS_DIR.glob("*.remora"))]
    for name, source in inputs.items():
        path = tmp_path / f"{name}.remora"
        path.write_text(source, encoding="utf-8")
        inputs[name] = str(path)
    codes = Counter()
    for path in paths + [inputs["parse-error"], inputs["type-error"]]:
        for argv in (
            ("check",), ("eval",), ("eval", "--trace"), ("erase",), ("bisim",), ("bisim", "--trace"),
            ("fmt",), ("fmt", "--canonical", "--annotations"),
        ):
            codes[_cli(*argv, path)] += 1
    codes[_cli("check", "--list-prims")] += 1
    codes[_cli("eval", "--fuel", "1", str(PROGRAMS_DIR / "sum-iota.remora"))] += 1
    codes[_cli("bisim", inputs["deep-reduce"])] += 1
    return codes


def test_entry_points_leave_no_cyclic_garbage(tmp_path, capsys):
    for group in ORACLE_GROUPS:  # built, and cached, with the collector on
        oracle_programs(group)
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        _library_round()
        codes = _cli_round(tmp_path)
        found = gc.collect()
        kinds = Counter(type(x).__name__ for x in gc.garbage)
        assert found == 0, f"cyclic garbage by type: {kinds.most_common()}"
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    capsys.readouterr()
    assert set(codes) == {0, 1, 2, 3, 4}


# ---------------------------------------------------------------------------
# The collector's state around each entry point


class _Raising(Machine):
    __slots__ = ()

    def refocus(self):
        raise RecursionError("raised by the test")


def _frame_nest(n: int):
    """An unelaborated `(frame () ...)` nest n deep, built without the parser."""
    t = ArrayLit((), (num(7),))
    for _ in range(n):
        t = Frame((), (t,))
    return t


def _deep_elaborated():
    return check_src(family_source("frame", DEEP_FRAME))[0]


_PLUS = "((array () +) (array (2) 1 2) (array () 3))"

# name: (a call that returns, {exception: a call that raises it}).
ENTRY_POINTS = {
    "parse_term": (
        lambda: parse_term(_PLUS),
        {ParseError: lambda: parse_term(PARSE_ERROR), RecursionError: lambda: parse_term(family_source("frame", 3000))},
    ),
    "parse_type": (
        lambda: parse_type("(Arr Num (Shp 2))"),
        {ParseError: lambda: parse_type("(Arr Num"),
         RecursionError: lambda: parse_type("(Arr " * 3000 + "Num" + " (Shp))" * 3000)},
    ),
    "parse_index": (
        lambda: parse_index("(Shp 2)"),
        {ParseError: lambda: parse_index("(Shp 2"), RecursionError: lambda: parse_index("(+ " * 3000 + "1" + " 1)" * 3000)},
    ),
    "elaborate": (
        lambda: check_src(_PLUS),
        {TypeCheckError: lambda: check_src(TYPE_ERROR),
         RecursionError: lambda: elaborate(EMPTY_ENV, SIGNATURE, _frame_nest(3000))},
    ),
    "evaluate": (lambda: evaluate(check_src(_PLUS)[0]), {}),
    "erased_evaluate": (lambda: erased_evaluate(erase_term(check_src(_PLUS)[0])), {}),
    "run": (
        lambda: run(Machine(check_src(_PLUS)[0]), DEFAULT_FUEL, True),
        {RecursionError: lambda: run(_Raising(check_src(_PLUS)[0]), DEFAULT_FUEL, False)},
    ),
    "erase_term": (
        lambda: erase_term(check_src(_PLUS)[0]),
        {RecursionError: lambda: erase_term(_deep_elaborated())},
    ),
    "bisim_run": (
        lambda: bisim_run(check_src(_PLUS)[0]),
        {RecursionError: lambda: bisim_run(_deep_elaborated())},
    ),
}
RAISING = [(name, exc) for name, (_, raising) in ENTRY_POINTS.items() for exc in raising]


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The collector's state before the call; restored after the test."""
    enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_return_leaves_collector_as_found(collector, name):
    ENTRY_POINTS[name][0]()
    assert gc.isenabled() is collector


@pytest.mark.parametrize("name, exc", RAISING, ids=[f"{n}-{e.__name__}" for n, e in RAISING])
def test_raise_leaves_collector_as_found(collector, name, exc):
    with pytest.raises(exc):
        ENTRY_POINTS[name][1][exc]()
    assert gc.isenabled() is collector


class _Probe(Machine):
    """A machine that records the collector's state at each refocus."""

    __slots__ = ()
    seen: list = []

    def refocus(self):
        self.seen.append(gc.isenabled())
        return super().refocus()


def test_entry_point_runs_with_collector_paused():
    assert gc.isenabled()
    _Probe.seen = []
    run(_Probe(check_src(_PLUS)[0]), DEFAULT_FUEL, False)
    assert _Probe.seen and not any(_Probe.seen)
    assert gc.isenabled()


def test_nested_call_does_not_resume_collector():
    seen = []

    @gc_paused
    def host():
        check_src(_PLUS)  # two wrapped calls
        seen.append(gc.isenabled())
        bisim_run(check_src(_PLUS)[0])
        seen.append(gc.isenabled())

    assert gc.isenabled()
    host()
    assert seen == [False, False] and gc.isenabled()


@pytest.mark.parametrize("machine", ["typed", "erased"])
def test_machine_run_makes_no_collection(machine):
    # Collections are counted through `gc.callbacks`, not inferred from
    # timings. The same run unwrapped makes some, so the count is not
    # vacuous.
    t = check_src(family_source("lift", 1600))[0]
    if machine == "typed":
        term, evaluator, make = t, evaluate, Machine
    else:
        term, evaluator, make = erase_term(t), erased_evaluate, ErasedMachine
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(count)
    try:
        gc.collect()
        starts.clear()
        r = evaluator(term)
        paused = len(starts)
        gc.collect()
        starts.clear()
        run.__wrapped__(make(term), DEFAULT_FUEL, False)
        unpaused = len(starts)
    finally:
        gc.callbacks.remove(count)
    assert r.outcome == "value"
    assert paused == 0 and unpaused > 0
