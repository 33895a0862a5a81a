"""The benchmark's four workloads, their inputs and their correctness oracles.

Each `setup_<workload>(ctx)` makes the inputs from `ctx.seed` and returns a
`Prepared`: a list of operations and a fingerprint of the inputs. An operation
is a function that does the measured work and returns the oracle, a function
that checks the output and returns an error message or None. The oracle runs
outside the timed part of the operation.

Every call into remora goes through `call(layer, fn, ...)`, so an exception is
recorded with the layer whose call raised it. The layer functions are looked up
on their modules at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import remora.check as check
import remora.erase as erase
import remora.eval as ev
import remora.gen as gen
import remora.parser as parser
import remora.printer as printer
import remora.prims as prims

ROOT = Path(__file__).resolve().parents[1]
PROGRAMS = ROOT / "programs"
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

# Exit codes documented in the README and the `remora.cli` docstring.
DOCUMENTED_EXITS = {0, 1, 2, 3, 64, 66}
CLI_COMMANDS = ("check", "eval", "erase", "bisim", "fmt")

GEN_PIPELINE_PROGRAMS = 800
GEN_CONFIG = gen.GenConfig(stuck_rate=0.05)  # as in the acceptance batch
# The verify slice is the head of the acceptance batch (seed 2024) that Tier-1
# criteria 5 and 7 check, so its cost tracks theirs. Bisim cost per generated
# program is heavy-tailed (median 0.1 s, max over 3 s), so a seed-drawn slice
# of this size would make the workload's throughput depend on the seed.
VERIFY_SLICE = 20
ACCEPTANCE_SEED = 2024
BISIM_FUEL = 10_000  # criterion 7
PRESERVE_STEPS = 10_000  # criterion 5

WIDE_FAMILIES = (
    ("lift", (100, 400, 1600)),
    ("reduce", (100, 300, 900, 1200)),
    ("frame", (100, 400, 1000)),
)
VERIFY_FAMILIES = (("lift", 100), ("reduce", 250), ("frame", 200))


class LayerError(Exception):
    """An exception raised by a call into one layer of remora."""

    def __init__(self, layer: str, exc: BaseException):
        super().__init__(f"{layer}: {type(exc).__name__}")
        self.layer = layer
        self.exc = exc


def call(layer: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise LayerError(layer, exc) from exc


Oracle = Callable[[], Optional[str]]


@dataclass
class Op:
    name: str
    run: Callable[[], Oracle]


@dataclass
class Prepared:
    ops: list[Op]
    fingerprint: str
    notes: dict = field(default_factory=dict)


@dataclass
class Context:
    seed: int
    tracer: object = None  # a tracer.Tracer during the traced phase


def fingerprint(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]


def _elaborate(term):
    return call("check", check.elaborate, check.EMPTY_ENV, prims.SIGNATURE, term)


def _front_end(src: str):
    return _elaborate(call("parser", parser.parse_term, src))


def _verdict_line(result) -> str:
    """The line `remora eval` prints for a final state."""
    if result.outcome == "value":
        return call("printer", printer.print_term, result.term)
    if result.outcome == "stuck" and result.stuck.reason == "misapplied":
        return f"stuck: misapplied {result.stuck.op}"
    return f"{result.outcome}: {result.stuck.detail if result.stuck else ''}"


# ---------------------------------------------------------------------------
# Size families


def family_source(family: str, n: int, rng: random.Random) -> tuple[str, str]:
    """Source of one family member and the source of its value (closed form)."""
    if family == "lift":
        v = [rng.randrange(100) for _ in range(n)]
        vec = f"(array ({n}) {' '.join(map(str, v))})"
        return f"((array () +) {vec} {vec})", f"(array ({n}) {' '.join(str(2 * x) for x in v)})"
    if family == "reduce":
        return (
            f"((t-app (i-app (array () reduce) {n - 1} (Shp)) Num) (array () +)"
            f" ((i-app (array () iota/s) (Shp {n}))))",
            f"(array () {n * (n - 1) // 2})",
        )
    if family == "frame":
        # Scalar frames nest without growing the rank, so depth is the only size.
        x = rng.randrange(100)
        src = f"(array () {x})"
        for _ in range(n):
            src = f"(frame () {src})"
        return src, f"(array () {x})"
    raise ValueError(family)


@dataclass
class Case:
    """One program; its front end runs in set-up, and again inside each
    operation while it fails, so a front-end defect is a failed operation."""

    label: str
    source: str
    typed: object = None
    type: object = None

    def prepare(self):
        if self.typed is None:
            self.typed, self.type = _front_end(self.source)
        return self

    def try_prepare(self) -> Optional[str]:
        try:
            self.prepare()
        except LayerError as err:
            return f"{err.layer}: {type(err.exc).__name__}"
        return None


@dataclass
class Member(Case):
    """A size-family member with the printed closed form of its value."""

    expected: str = ""
    erased: object = None
    expected_erased: object = None

    def prepare(self):
        if self.erased is None:
            super().prepare()
            value, _ = _front_end(self.expected)
            self.expected_erased = call("erase", erase.erase_term, value)
            self.erased = call("erase", erase.erase_term, self.typed)
        return self


def wide_members(seed: int) -> list[Member]:
    rng = random.Random(seed)
    members = []
    for family, sizes in WIDE_FAMILIES:
        for n in sizes:
            src, value = family_source(family, n, rng)
            members.append(Member(f"{family}.n{n}", src, expected=value))
    return members


# ---------------------------------------------------------------------------
# gen-pipeline


def setup_gen_pipeline(ctx: Context) -> Prepared:
    programs = gen.generate_programs(GEN_PIPELINE_PROGRAMS, seed=ctx.seed, config=GEN_CONFIG)
    sources = [call("printer", printer.print_term, p) for p in programs]
    ops = [Op(f"gen-{i}", _pipeline_op(src)) for i, src in enumerate(sources)]
    return Prepared(ops, fingerprint(sources))


def _pipeline_op(src: str):
    def run():
        typed, _ = _front_end(src)
        typed_result = call("eval", ev.evaluate, typed)
        erased_result = call("erase", erase.erased_evaluate, call("erase", erase.erase_term, typed))
        call("printer", printer.print_term, typed_result.term)

        def oracle():
            t, e = typed_result, erased_result
            if (t.outcome, t.steps) != (e.outcome, e.steps):
                return f"typed {t.outcome}/{t.steps} steps, erased {e.outcome}/{e.steps} steps"
            if t.outcome == "fuel":
                return "out of fuel"
            if t.outcome == "stuck" and not (t.stuck.reason == e.stuck.reason == "misapplied"):
                return f"stuck for an internal reason: {t.stuck.detail} / {e.stuck.detail}"
            if not call("erase", erase.erased_alpha_equal, e.term, call("erase", erase.erase_term, t.term)):
                return "erased final state differs from the erasure of the typed final state"
            return None

        return oracle

    return run


# ---------------------------------------------------------------------------
# verify


def read_expected() -> dict[tuple[str, str], tuple[int, str]]:
    """(file, subcommand) -> (exit code, stdout line) from corpus.expected."""
    out = {}
    for line in (HERE / "corpus.expected").read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, cmd, code, stdout = line.split("\t")
        out[(name, cmd)] = (int(code), stdout)
    return out


def corpus_sources() -> list[tuple[str, str]]:
    return [(p.name, p.read_text(encoding="utf-8")) for p in sorted(PROGRAMS.glob("*.remora"))]


def setup_verify(ctx: Context) -> Prepared:
    rng = random.Random(ctx.seed)
    programs = gen.generate_programs(VERIFY_SLICE, seed=ACCEPTANCE_SEED, config=GEN_CONFIG)
    sources = [call("printer", printer.print_term, p) for p in programs]
    expected = read_expected()
    # (case, expected bisim line, expected eval line)
    cases = [(Case(f"gen-{i}", s), None, None) for i, s in enumerate(sources)]
    for name, src in corpus_sources():
        cases.append((Case(name, src), expected[(name, "bisim")][1], expected[(name, "eval")][1]))
    for family, n in VERIFY_FAMILIES:
        src, value = family_source(family, n, rng)
        cases.append((Case(f"{family}.n{n}", src), None, value))
    ops = []
    for case, bisim_line, eval_line in cases:
        case.try_prepare()
        ops.append(Op(f"bisim:{case.label}", _bisim_op(case, bisim_line)))
        ops.append(Op(f"preserve:{case.label}", _preserve_op(case, eval_line)))
    rng.shuffle(ops)
    return Prepared(ops, fingerprint(case.source for case, _, _ in cases))


def _bisim_op(case: Case, expected_line: Optional[str]):
    def run():
        report = call("erase", erase.bisim_run, case.prepare().typed, fuel=BISIM_FUEL)

        def oracle():
            line = f"{report.outcome} steps={report.steps}"
            if expected_line is not None:
                return None if line == expected_line else f"got {line!r}, expected {expected_line!r}"
            return None if report.outcome in ("both-value", "both-stuck") else line

        return oracle

    return run


def _preserve_op(case: Case, expected_line: Optional[str]):
    """Criterion 5: step, re-elaborate every state, and compare its type."""

    def run():
        cur, ty = case.prepare().typed, case.type
        problem = f"no verdict in {PRESERVE_STEPS} steps"
        final = None
        for _ in range(PRESERVE_STEPS):
            r = call("eval", ev.step, cur)
            if isinstance(r, ev.AlreadyValue):
                final = ev.EvalResult("value", cur, 0)
                problem = None if ev.is_value(cur) else "claimed value is not a value"
                break
            if isinstance(r, ev.Stuck):
                final = ev.EvalResult("stuck", cur, 0, stuck=r)
                problem = None if r.reason == "misapplied" else f"internal stuck: {r.detail}"
                break
            cur = r.term
            _, ty2 = _elaborate(cur)
            if not call("check", check.types_equal, ty, ty2):
                problem = "type not preserved"
                break

        def oracle():
            if problem is not None or expected_line is None:
                return problem
            line = _verdict_line(final)
            return None if line == expected_line else f"got {line!r}, expected {expected_line!r}"

        return oracle

    return run


# ---------------------------------------------------------------------------
# wide


def setup_wide(ctx: Context) -> Prepared:
    members = wide_members(ctx.seed)
    setup_errors = {m.label: err for m in members if (err := m.try_prepare())}
    ops = []
    for m in members:
        ops.append(Op(f"eval:{m.label}", _wide_typed_op(m)))
        ops.append(Op(f"erased:{m.label}", _wide_erased_op(m)))
    random.Random(ctx.seed).shuffle(ops)
    return Prepared(ops, fingerprint(m.source for m in members), {"setup_errors": setup_errors})


def _wide_typed_op(m: Member):
    def run():
        result = call("eval", ev.evaluate, m.prepare().typed)

        def oracle():
            line = _verdict_line(result)
            return None if line == m.expected else f"got {line[:80]!r}, expected {m.expected[:80]!r}"

        return oracle

    return run


def _wide_erased_op(m: Member):
    def run():
        result = call("erase", erase.erased_evaluate, m.prepare().erased)

        def oracle():
            if result.outcome != "value":
                return f"erased machine ended {result.outcome}"
            if not call("erase", erase.erased_alpha_equal, result.term, m.expected_erased):
                return "erased value differs from the erasure of the closed form"
            return None

        return oracle

    return run


# ---------------------------------------------------------------------------
# cli-corpus


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list[str], ctx: Context):
    """One CLI process; under tracing, its spans join the open operation span."""
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "remora.cli", *argv]
        return subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)
    OUT.mkdir(parents=True, exist_ok=True)
    trace_path = OUT / f"cli-child-{os.getpid()}.json"
    cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_path), *argv]
    spawned = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)
    if trace_path.exists():
        with open(trace_path, encoding="utf-8") as fh:
            ctx.tracer.merge_child(json.load(fh), spawned)
        trace_path.unlink()
    return proc


class CliCrash(Exception):
    pass


def setup_cli_corpus(ctx: Context) -> Prepared:
    expected = read_expected()
    sources = corpus_sources()
    # One warm-up process, so that later ones find a warm file cache.
    run_cli(["check", "--list-prims"], Context(ctx.seed))
    ops = [
        Op(f"{cmd}:{name}", _cli_op(cmd, name, expected[(name, cmd)], ctx))
        for name, _ in sources
        for cmd in CLI_COMMANDS
    ]
    random.Random(ctx.seed).shuffle(ops)
    return Prepared(ops, fingerprint([s for _, s in sources] + [json.dumps(sorted(expected.items()))]))


def _cli_op(cmd: str, name: str, expected: tuple[int, str], ctx: Context):
    def run():
        proc = call("cli", run_cli, [cmd, f"programs/{name}"], ctx)
        if "Traceback" in proc.stderr or proc.returncode not in DOCUMENTED_EXITS:
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            raise LayerError("cli", CliCrash(f"exit {proc.returncode}: {last[0][:100]}"))

        def oracle():
            got = (proc.returncode, proc.stdout.rstrip("\n"))
            return None if got == expected else f"got {got!r}, expected {expected!r}"

        return oracle

    return run


SETUPS = {
    "gen-pipeline": setup_gen_pipeline,
    "verify": setup_verify,
    "wide": setup_wide,
    "cli-corpus": setup_cli_corpus,
}
