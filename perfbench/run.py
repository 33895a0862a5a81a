"""remora's benchmark: four closed-loop workloads, checked outputs, traced layers.

Run from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare RESULTS_A RESULTS_B

Workloads (see BENCHMARK.json for why each exists):

    gen-pipeline  generated programs: parse, elaborate, evaluate, erase,
                  erased evaluate, print the result
    verify        lockstep bisimulation and the criterion-5 preservation loop
                  over the acceptance batch's head, the corpus and mid-size
                  family members
    wide          size families through the typed and the erased machine
    cli-corpus    each programs/ file under each subcommand, one fresh
                  `python -m remora.cli` process at a time

One process issues one operation at a time. A run repeats whole rounds of the
workload's operations, so every run measures the same mix: at least
MIN_SAMPLES operations, then as many rounds as bring the operations' scaled
time (below) nearest to --seconds. Each operation's output is checked by an
oracle outside the timed part; a wrong output or an exception counts as a
failed operation, recorded with the layer whose call raised it.

Times are scaled to a nominal machine speed (see `Pacer`): around each
operation, and each set-up, the run times a probe of fixed work and reports
the operation in seconds of a machine that runs the probe in its nominal time.
The wall-clock figures are printed beside them.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics. With --trace 1 the run measures the workload untraced and
then traced (wrappers around remora's module attributes, see tracer.py), and
the metrics are the per-layer ones. Every run also writes a result file under
perfbench/out/runs (or --results DIR); --compare reads two such directories.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, deque
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have been
# spent on it; setup_s is the median.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 8
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.5, 99.9)
# Every run measures at least this many operations, in whole rounds; the tail
# percentile is fixed from that count, so it does not move with machine speed.
MIN_SAMPLES = 40
FAILURE_LAYERS = ("parser", "check", "eval", "erase", "printer", "cli", "oracle")
RULES = ("lift", "map", "beta", "delta", "tbeta", "ibeta", "collapse", "unbox")
# Family members with a per-step metric: those that complete today. reduce.n1200
# and frame.n1000 end in RecursionError, so they are scaling rows only.
SCALED_MEMBERS = ("lift.n100", "lift.n400", "lift.n1600", "reduce.n100", "reduce.n300",
                  "reduce.n900", "frame.n100", "frame.n400")
# The pacer's probes (see `Pacer`): for in-process work the reference
# computation, whose result is REF_CHECKSUM, also run every REF_SAMPLE_S while
# an operation runs; for CLI processes the start of a bare interpreter. Each
# has its time on the nominal machine and the most calls it makes on either
# side of a piece of work. After the work the pacer spends about REF_SHARE of
# the work's time on probes, at least one call.
REF_CHECKSUM = 19586
REF_NOMINAL_S = 0.001
REF_BOUNDARY = 7
REF_SAMPLE_S = 0.1
SPAWN_NOMINAL_S = 0.04
SPAWN_BOUNDARY = 2
REF_SHARE = 0.1
# What a traced run executes for the layers its workload never reaches.
BISIM_PROBE = ("lift", 100)
CLI_PROBE = (["eval", "programs/head-col.remora"], 5)


# ---------------------------------------------------------------------------
# Measuring


def origin(exc: BaseException) -> str:
    """Innermost remora frame of a traceback, then the innermost frame; the
    message for an exception that was never raised (a CLI process's failure)."""
    frames = traceback.extract_tb(exc.__traceback__)
    if not frames:
        return str(exc)[:120]
    inner = [f for f in frames if f"{os.sep}remora{os.sep}" in f.filename]
    parts = []
    if inner:
        parts.append(f"{Path(inner[-1].filename).stem}.{inner[-1].name}")
    if not inner or frames[-1] is not inner[-1]:
        parts.append(f"{Path(frames[-1].filename).name}:{frames[-1].name}")
    return " > ".join(parts)


class Pacer:
    """The machine's current speed, read from a probe of fixed work.

    On a host shared with other tenants the same work can run twice as fast in
    one minute as in the next, and a virtual machine often exposes no hardware
    counters to count work instead. So the pacer times its probe just before
    and right after each piece of work, and for in-process work also every
    `sample_s` while it runs (from a SIGALRM handler, so one thread still does
    everything); the work's seconds, without the probes taken inside it, are
    scaled by the probe's nominal time over the median of those probe times.
    In-process work is paced by `reference.run`, a Python computation of the
    same kind as remora's; a CLI process by the start of a bare interpreter,
    which tracks process start-up far better than any in-process probe."""

    def __init__(self, probe, nominal_s: float, boundary: int, sample_s: float = 0.0):
        self.probe = probe
        self.nominal_s = nominal_s
        self.sample_s = sample_s
        self.recent: deque[float] = deque(maxlen=boundary)
        self.during: list[tuple[float, float]] = []  # (start, seconds) of in-work probes
        self.inside: list[float] = []  # those that fell inside the last timed work
        self.factors: list[float] = []
        for _ in range(boundary):
            self.recent.append(self._time_probe())
        if sample_s:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _time_probe(self) -> float:
        t0 = perf_counter()
        self.probe()
        return perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        try:
            self.probe()
        except RecursionError:  # the alarm came deep inside remora's recursion
            return
        self.during.append((start, perf_counter() - start))

    def begin(self, sample: bool) -> None:
        """Start probing at intervals, if `sample` and this pacer does."""
        self.during = []
        if sample and self.sample_s:
            signal.setitimer(signal.ITIMER_REAL, self.sample_s, self.sample_s)

    def stop(self, t0: float, t1: float) -> float:
        """Stop probing; return the seconds probes took between t0 and t1."""
        if self.sample_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.inside = [dt for start, dt in self.during if t0 <= start and start + dt <= t1]
        return sum(self.inside)

    def scale(self, work_s: float) -> float:
        """Probe right after `work_s` seconds of work; return the factor for them."""
        samples = list(self.recent) + self.inside
        self.inside = []
        spent = 0.0
        for _ in range(self.recent.maxlen):
            dt = self._time_probe()
            self.recent.append(dt)
            samples.append(dt)
            spent += dt
            if spent >= REF_SHARE * work_s:
                break
        factor = self.nominal_s / statistics.median(samples)
        self.factors.append(factor)
        return factor


def make_pacer(workload: str, wl) -> Pacer:
    if workload == "cli-corpus":
        cmd, env = [sys.executable, "-c", "pass"], wl.child_env()

        def bare_interpreter():
            # No timeout: with one, `wait` polls in sleeps of up to 50 ms.
            subprocess.run(cmd, cwd=ROOT, env=env, check=True)

        return Pacer(bare_interpreter, SPAWN_NOMINAL_S, SPAWN_BOUNDARY)
    import reference

    if reference.run() != REF_CHECKSUM:
        raise RuntimeError("the reference computation gave a wrong checksum")
    return Pacer(reference.run, REF_NOMINAL_S, REF_BOUNDARY, REF_SAMPLE_S)


def run_op(op, wl):
    """Time one operation; return (start, end, oracle or None, (layer, exception) or None)."""
    t0 = perf_counter()
    try:
        oracle = op.run()
    except wl.LayerError as err:
        return t0, perf_counter(), None, (err.layer, err.exc)
    except Exception as exc:  # a defect in the benchmark itself, still counted
        return t0, perf_counter(), None, ("bench", exc)
    return t0, perf_counter(), oracle, None


def check_output(oracle, wl):
    try:
        problem = oracle()
    except wl.LayerError as err:
        return (err.layer, type(err.exc).__name__, origin(err.exc))
    return None if problem is None else ("oracle", "WrongOutput", problem[:160])


def rounds_for_samples(ops) -> int:
    return math.ceil(MIN_SAMPLES / len(ops))


def measure(ops, seconds: float, wl, min_rounds: int, pacer: Pacer, tracer=None) -> dict:
    """Whole rounds of `ops`: at least `min_rounds`, then more while another
    round brings the operations' scaled time nearer to `seconds`. Latencies
    are scaled by the pacer; `wall` holds them unscaled. Counting scaled time,
    a run makes the same number of rounds however fast the machine is."""
    from tracer import OP_SPAN

    latencies, wall, ok, failures = [], [], [], []
    rounds = 0
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op = len(latencies)
                tracer.begin(OP_SPAN)
            pacer.begin(sample=tracer is None)  # probes would land in remora's spans
            t0, t1, oracle, raised = run_op(op, wl)
            dt = t1 - t0 - pacer.stop(t0, t1)
            if tracer is not None:
                tracer.end()
                tracer.op = -1
            scale = pacer.scale(dt)
            if raised is None:
                failure = check_output(oracle, wl)
            else:
                layer, exc = raised
                failure = (layer, type(exc).__name__, origin(exc))
            latencies.append(dt * scale)
            wall.append(dt)
            ok.append(failure is None)
            if failure is not None:
                failures.append((op.name, *failure))
        rounds += 1
        spent = sum(latencies)
        if rounds >= min_rounds and spent + spent / rounds / 2 >= seconds:
            break
    return {"latencies": latencies, "wall": wall, "ok": ok, "failures": failures, "rounds": rounds}


def tail_percentile(samples: int) -> float:
    """The highest listed percentile with at least 10 of `samples` above it."""
    return max(p for p in TAIL_PERCENTILES if samples - math.ceil(samples * p / 100) >= 10)


def end_to_end(res: dict, n_ops: int, setup_s: float, peak_rss_mib: float, pct: float) -> tuple[dict, dict]:
    """Throughput is that of a median round: each operation takes the median
    of its latencies over the rounds. The percentiles are over every latency."""
    lat, ok = res["latencies"], res["ok"]
    passed = sum(ok)
    op_medians = [statistics.median(lat[i::n_ops]) for i in range(n_ops)]
    # A failed operation counts as slower than any that passed. Should a
    # percentile land on one, the slowest operation's median stands in for it.
    ranked = sorted(t for t, good in zip(lat, ok) if good) + [math.inf] * (len(lat) - passed)
    worst = max(op_medians)
    p50 = statistics.median(ranked)
    tail_s = ranked[math.ceil(len(ranked) * pct / 100) - 1]  # nearest rank
    metrics = {
        "ops_per_s": (passed / res["rounds"] / sum(op_medians), "1/s"),
        "op_p50_ms": (min(p50, worst) * 1e3, "ms"),
        "op_tail_ms": (min(tail_s, worst) * 1e3, "ms"),
        "pass_rate": (passed / len(lat), "ratio"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "setup_s": (setup_s, "s"),
    }
    above = len(lat) - math.ceil(len(lat) * pct / 100)
    notes = {
        "op_tail_ms": f"p{pct:g} of {len(lat)} samples ({above} above it; failed ones rank slowest)",
        "wall_clock": f"{passed / sum(res['wall']):.4g} ops/s, p50 {statistics.median(res['wall']) * 1e3:.4g} ms",
    }
    return metrics, notes


# ---------------------------------------------------------------------------
# Per-layer metrics


def per_layer(tr, probe, failures, overhead_ratio: float, op_wall_s: float, scaling: dict) -> dict:
    """Layer figures from the traced phase, set-up included. Times named `_s`
    are self times; `us_per_*` divide inclusive time by units of work. A layer
    the workload never reaches (bisim, the CLI) is read from the probe."""
    main, extra, in_ops = tr.totals(), probe.totals(), tr.totals(ops_only=True)

    def get(span, key, rows=main):
        return rows.get(span, {}).get(key, 0)

    def per(num, den, scale=1e6):
        return num * scale / den if den else 0.0

    c = tr.counts
    m = {
        "parser.parse_s": (get("parser.parse", "self_s") + get("parser.tokenize", "self_s"), "s"),
        "parser.us_per_token": (per(get("parser.parse", "total_s"), c["parser.tokens"]), "us"),
        "check.elaborate_s": (get("check.elaborate", "self_s"), "s"),
        "check.us_per_node": (per(get("check.elaborate", "total_s"), c["check.nodes"]), "us"),
    }
    for machine in ("eval", "erase"):
        span = f"{machine}.step"
        m[f"{machine}.step_s"] = (get(span, "self_s"), "s")
        m[f"{machine}.us_per_step"] = (per(get(span, "total_s"), c[span + "s"]), "us")
        m[f"{machine}.step_calls_per_step"] = (per(tr.entries.get(span, 0), c[span + "s"], 1), "ratio")
    for rule in RULES:
        m[f"eval.rule.{rule}"] = (c[f"eval.step.rule.{rule}"], "count")
    for label in SCALED_MEMBERS:
        row = scaling[label]
        m[f"eval.us_per_step.{label}"] = (row.get("eval_us_per_step", 0.0), "us")
        m[f"erase.us_per_step.{label}"] = (row.get("erase_us_per_step", 0.0), "us")
    for what in ("erase_term", "alpha_equal"):
        m[f"erase.{what}_s"] = (get(f"erase.{what}", "self_s"), "s")
        m[f"erase.{what}_calls"] = (get(f"erase.{what}", "spans"), "count")
    bisim, bisim_steps = (main, c) if get("erase.bisim", "spans") else (extra, probe.counts)
    m["erase.us_per_bisim_step"] = (per(get("erase.bisim", "total_s", bisim), bisim_steps["erase.bisim_steps"]), "us")
    for key, span in (("prims.delta", "prims.delta"), ("names.subst", "names.subst")):
        m[f"{key}_s"] = (get(span, "self_s"), "s")
        m[f"{key}_calls"] = (get(span, "spans"), "count")
    m["printer.print_s"] = (get("printer.print", "self_s"), "s")
    cli_runs = tr.cli_runs or probe.cli_runs
    for i, key in enumerate(("cli.interp_start_s", "cli.import_s", "cli.main_s")):
        m[key] = (statistics.median(r[i] for r in cli_runs), "s")
    by_layer = Counter(f[1] for f in failures)
    for layer in FAILURE_LAYERS:
        m[f"{layer}.failures"] = (by_layer[layer], "count")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    m["trace.self_coverage"] = (sum(row["self_s"] for row in in_ops.values()) / op_wall_s, "ratio")
    m["trace.bench_self_share"] = (get("bench.op", "self_s", in_ops) / op_wall_s, "ratio")
    return m


def scaling_rows(wl) -> dict:
    """Microseconds per step of each wide-family member on each machine, untraced."""
    rows = {}
    for member in wl.wide_members(seed=0):
        err = member.try_prepare()
        if err is None:
            try:
                t0 = perf_counter()
                typed = wl.ev.evaluate(member.typed)
                t1 = perf_counter()
                erased = wl.erase.erased_evaluate(member.erased)
                t2 = perf_counter()
            except Exception as exc:
                err = f"{type(exc).__name__} at {origin(exc)}"
        if err is not None:
            rows[member.label] = {"error": err}
            continue
        rows[member.label] = {
            "steps": typed.steps,
            "eval_us_per_step": (t1 - t0) * 1e6 / max(typed.steps, 1),
            "erase_us_per_step": (t2 - t1) * 1e6 / max(erased.steps, 1),
        }
    return rows


def run_probe(tr, wl) -> None:
    """Reach the layers a workload may not: one bisim run and a few CLI processes."""
    from tracer import OP_SPAN

    family, n = BISIM_PROBE
    src, _ = wl.family_source(family, n, random.Random(0))
    typed, _ = wl._front_end(src)
    tr.op = 0
    wl.erase.bisim_run(typed)
    ctx = wl.Context(0, tracer=tr)
    argv, count = CLI_PROBE
    for _ in range(count):
        tr.begin(OP_SPAN)
        wl.run_cli(argv, ctx)
        tr.end()


# ---------------------------------------------------------------------------
# A run


def import_seconds(wl) -> float:
    """Time `import remora.cli` in a fresh interpreter, as this process paid it."""
    code = "import time; t = time.perf_counter(); import remora.cli; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=wl.child_env(),
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def traced_phase(args, wl, setup, pacer: Pacer, base: dict, notes: dict):
    """Set up and measure again under the tracer; return the traced result,
    the per-layer metrics and the scaling rows."""
    from tracer import Tracer

    tr = Tracer()
    tr.install()
    try:
        prepared = setup(wl.Context(args.seed, tracer=tr))  # set-up spans have op -1
        res = measure(prepared.ops, 0, wl, min_rounds=1, pacer=pacer, tracer=tr)  # one round, as the base
    finally:
        tr.uninstall()
    notes.update(traced_rounds=res["rounds"], traced_operations=len(res["latencies"]))
    probe = Tracer()
    if not tr.counts["erase.bisim_steps"] or not tr.cli_runs:
        probe.install()
        try:
            run_probe(probe, wl)
        finally:
            probe.uninstall()
    scaling = scaling_rows(wl)
    untraced = len(base["latencies"]) / sum(base["latencies"])
    traced = len(res["latencies"]) / sum(res["latencies"])
    metrics = per_layer(tr, probe, base["failures"], untraced / traced, sum(res["wall"]), scaling)
    wl.OUT.mkdir(parents=True, exist_ok=True)
    trace_file = wl.OUT / f"trace-{args.workload}-s{args.seed}.json"
    tr.dump(trace_file, workload=args.workload, seed=args.seed)
    notes["trace_file"] = str(trace_file.relative_to(ROOT))
    return res, metrics, scaling


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def run(args) -> int:
    if not (ROOT / "src" / "remora" / "__init__.py").is_file() or not (ROOT / "programs").is_dir():
        print(f"error: no remora sources under {ROOT}/src and {ROOT}/programs", file=sys.stderr)
        return 2
    # Compile the bytecode first, as installing a package does, so that no
    # timed import (here or in a CLI process) depends on an earlier run.
    for directory in (ROOT / "src" / "remora", HERE):
        compileall.compile_dir(str(directory), maxlevels=0, quiet=1)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads as wl  # imports remora

    setup = wl.SETUPS[args.workload]
    ctx = wl.Context(args.seed)
    pacer = make_pacer(args.workload, wl)
    setup_times = []
    while True:
        imported = import_seconds(wl)
        t0 = perf_counter()
        prepared = setup(ctx)
        spent = imported + perf_counter() - t0
        setup_times.append(spent * pacer.scale(spent))
        if args.trace or len(setup_times) >= SETUP_MAX_REPEATS:
            break
        if len(setup_times) >= SETUP_REPEATS and sum(setup_times) >= SETUP_SECONDS:
            break
    setup_s = statistics.median(setup_times)
    cli = args.workload == "cli-corpus"

    scaling = None
    if args.trace:
        base = measure(prepared.ops, 0, wl, min_rounds=1, pacer=pacer)  # base of the overhead ratio
        notes = {"rounds": base["rounds"], "operations": len(base["latencies"])}
        res, metrics, scaling = traced_phase(args, wl, setup, pacer, base, notes)
    else:
        rounds = rounds_for_samples(prepared.ops)
        base = res = measure(prepared.ops, args.seconds, wl, min_rounds=rounds, pacer=pacer)
        notes = {"rounds": base["rounds"], "operations": len(base["latencies"]), "setups": len(setup_times)}
        metrics, tail_notes = end_to_end(
            base, len(prepared.ops), setup_s, peak_rss_mib(cli), tail_percentile(rounds * len(prepared.ops)))
        notes.update(tail_notes)

    q = quartiles(pacer.factors)
    notes["speed_factor"] = f"median {q[1]:.4g}, quartiles {q[0]:.4g}..{q[2]:.4g}"
    # Outcomes are the untraced round's: under tracing the recursion limit is
    # raised, so the deepest inputs may fail elsewhere or not at all.
    failures = base["failures"]
    wrong = [f for f in failures + res["failures"] if f[1] == "oracle"]
    result = {
        "correct": not wrong,
        "attempted": len(base["latencies"]),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    grouped = Counter((layer, kind, where) for _name, layer, kind, where in failures)
    failure_rows = [
        {"layer": layer, "type": kind, "origin": where, "count": n,
         "ops": sorted({f[0] for f in failures if f[1:] == (layer, kind, where)})}
        for (layer, kind, where), n in grouped.items()
    ]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "fingerprint": prepared.fingerprint, "notes": {**notes, **prepared.notes},
        "failures": failure_rows, "scaling": scaling, "result": result,
    }
    results_dir = Path(args.results) if args.results else wl.OUT / "runs"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    with open(results_dir / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} inputs {prepared.fingerprint}")
    for key, value in record["notes"].items():
        print(f"  {key}: {value}")
    for row in failure_rows:
        print(f"  failed x{row['count']}: {row['layer']} {row['type']} at {row['origin']} ({', '.join(row['ops'][:4])})")
    for label, row in (scaling or {}).items():
        text = row.get("error") or (
            f"{row['steps']} steps, eval {row['eval_us_per_step']:.1f} us/step, "
            f"erased {row['erase_us_per_step']:.1f} us/step")
        print(f"  scaling {label}: {text}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:34s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Comparing two result sets


def load_results(directory: str) -> list[dict]:
    out = []
    for path in sorted(Path(directory).glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def verdict(a: list[float], b: list[float], better: str, bound) -> str:
    """improved / unchanged / regressed / unresolved for result sets A -> B."""
    sign = 1 if better == "lower" else -1
    pairs = [sign * (y - x) for x in b for y in a]  # > 0: this run of B beats this run of A
    if all(d > 0 for d in pairs):
        return "improved"
    if bound is None:  # per-layer metrics fix no bound
        if all(d < 0 for d in pairs):
            return "regressed"
        return "unchanged" if all(d == 0 for d in pairs) else "unresolved"
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if max(spread_share(a), spread_share(b)) > bound:
        return "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > spread_share(a) and sum(d > 0 for d in pairs) >= 0.9 * len(pairs):
        return "improved"
    return "unchanged"


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread_share(xs: list[float]) -> float:
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def compare(path_a: str, path_b: str) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    defs = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = load_results(path_a), load_results(path_b)
    prints_a = {(r["workload"], r["seed"]): r["fingerprint"] for r in a}
    for r in b:
        fa = prints_a.get((r["workload"], r["seed"]))
        if fa is not None and fa != r["fingerprint"]:
            print(f"inputs differ: {r['workload']} seed {r['seed']} ({fa} vs {r['fingerprint']})")
    print(f"{'workload':13s} {'metric':32s} {'A median':>11s} {'A q1..q3':>23s} "
          f"{'B median':>11s} {'B q1..q3':>23s} {'B/A':>7s}  verdict")
    workloads = sorted({r["workload"] for r in a} & {r["workload"] for r in b})
    for w in workloads:
        for name, (better, bound) in defs.items():
            va = [r["result"]["metrics"][name]["value"] for r in a if r["workload"] == w and name in r["result"]["metrics"]]
            vb = [r["result"]["metrics"][name]["value"] for r in b if r["workload"] == w and name in r["result"]["metrics"]]
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            print(f"{w:13s} {name:32s} {qa[1]:11.5g} {qa[0]:11.5g}..{qa[2]:<11.5g}"
                  f"{qb[1]:11.5g} {qb[0]:11.5g}..{qb[2]:<11.5g}{ratio:7.3f}  {verdict(va, vb, better, bound)}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("gen-pipeline", "verify", "wide", "cli-corpus"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", help="directory for the result file (default perfbench/out/runs)")
    p.add_argument("--compare", nargs=2, metavar=("RESULTS_A", "RESULTS_B"))
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
