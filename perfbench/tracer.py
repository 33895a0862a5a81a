"""In-memory span recorder that wraps remora's module attributes from outside.

`Tracer.install()` replaces each attribute in `TARGETS` with a wrapper and
`uninstall()` puts the originals back. Nothing under `src/` is edited: the
package looks these names up in its module globals at call time, so its own
calls (for example `evaluate` calling `step`, or `step` calling itself) go
through the wrapper.

A span is (name, start, end, parent, op). A call to a name that already has an
open span (recursion, such as `step` descending to its redex) is counted as an
entry but opens no span, so one machine step is one span however deep the
search goes. Self time is a span's duration minus the time its child spans
cover; children never overlap because the benchmark runs one call at a time.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name). A span name is "<layer>.<what>"; the layer is
# the remora module whose work the span measures.
_SUBST = [
    ("remora.eval", n, "names.subst")
    for n in ("subst_idx_in_term", "subst_idx_in_type", "subst_term",
              "subst_ty_in_term", "subst_ty_in_type")
] + [
    ("remora.check", n, "names.subst")
    for n in ("subst_idx", "subst_idx_in_type", "subst_ty_in_type")
]

TARGETS = [
    ("remora.parser", "parse_term", "parser.parse"),
    ("remora.parser", "_tokenize", "parser.tokenize"),
    ("remora.check", "elaborate", "check.elaborate"),
    ("remora.check", "types_equal", "check.types_equal"),
    ("remora.eval", "evaluate", "eval.evaluate"),
    ("remora.eval", "step", "eval.step"),
    ("remora.erase", "typed_step", "eval.step"),
    ("remora.eval", "apply_delta", "prims.delta"),
    ("remora.erase", "erase_term", "erase.erase_term"),
    ("remora.erase", "erased_step", "erase.step"),
    ("remora.erase", "erased_evaluate", "erase.evaluate"),
    ("remora.erase", "erased_alpha_equal", "erase.alpha_equal"),
    ("remora.erase", "bisim_run", "erase.bisim"),
    ("remora.erase", "print_erased", "erase.print"),
    ("remora.printer", "print_term", "printer.print"),
    # The CLI binds its own copies of these names at import.
    ("remora.cli", "parse_term", "parser.parse"),
    ("remora.cli", "elaborate", "check.elaborate"),
    ("remora.cli", "evaluate", "eval.evaluate"),
    ("remora.cli", "erase_term", "erase.erase_term"),
    ("remora.cli", "bisim_run", "erase.bisim"),
    ("remora.cli", "print_erased", "erase.print"),
    ("remora.cli", "print_term", "printer.print"),
] + _SUBST

OP_SPAN = "bench.op"
FRAMES_PER_WRAPPED_CALL = 3  # the original function, `traced` and `Tracer.call`


def count_nodes(t) -> int:
    """Syntax nodes (terms, types, indices) under `t`; source locations excluded."""
    n = 0
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack.extend(x)
        elif hasattr(x, "__dataclass_fields__"):
            n += 1
            stack.extend(getattr(x, f) for f in x.__dataclass_fields__ if f != "loc")
    return n


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Closed spans: (name id, start, end, parent index or -1, op id).
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.self_time: list[float] = []
        self.entries: dict[str, int] = {}  # every call, re-entrant ones too
        self.counts: Counter = Counter()  # work counters (tokens, rules, ...)
        self._open: list[list] = []  # [name id, start, child time, index]
        self._active: set[str] = set()
        self.lost_counts = 0  # work counts dropped at the recursion limit
        self._saved: list[tuple[object, str, object]] = []
        self.op = -1  # operation id; -1 is set-up
        # Per CLI process: (interpreter start, import, main) seconds.
        self.cli_runs: list[tuple[float, float, float]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- spans ------------------------------------------------------------
    def begin(self, name: str, start: float | None = None) -> None:
        index = len(self.spans)
        self.spans.append(None)  # type: ignore[arg-type]  # filled by end()
        self.self_time.append(0.0)
        self._open.append([self._id(name), perf_counter() if start is None else start, 0.0, index])

    def end(self, end: float | None = None) -> float:
        end = perf_counter() if end is None else end
        nid, start, child, index = self._open.pop()
        parent = self._open[-1][3] if self._open else -1
        self.spans[index] = (nid, start, end, parent, self.op)
        dur = end - start
        self.self_time[index] = dur - child
        if self._open:
            self._open[-1][2] += dur
        return dur

    def add_closed(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (a child process) as a child of the open span."""
        self.begin(name, start)
        self.end(end)

    def call(self, name: str, fn, args, kwargs):
        # Near the recursion limit any Python call can raise RecursionError,
        # so the bookkeeping around `fn` uses only built-in operations and the
        # span is closed in `finally` whatever `fn` raises.
        entries = self.entries
        entries[name] = entries.get(name, 0) + 1
        active = self._active
        if name in active:
            return fn(*args, **kwargs)
        active.add(name)
        index = len(self.spans)
        self.spans.append(None)  # type: ignore[arg-type]  # filled below
        self.self_time.append(0.0)
        opened = [self._name_ids[name], perf_counter(), 0.0, index]
        self._open.append(opened)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            dur = end - opened[1]
            self.spans[index] = (opened[0], opened[1], end, self._open[-1][3] if self._open else -1, self.op)
            self.self_time[index] = dur - opened[2]
            if self._open:
                self._open[-1][2] += dur
            active.discard(name)
        try:
            self._count(name, args, result)
        except RecursionError:
            self.lost_counts += 1
        return result

    def _count(self, name: str, args, result) -> None:
        if name == "check.elaborate":
            self.counts["check.nodes"] += count_nodes(args[2])
        elif name == "parser.tokenize":
            self.counts["parser.tokens"] += len(result)
        elif name in ("eval.step", "erase.step"):
            rule = getattr(result, "rule", None)
            if rule is not None:
                self.counts[name + "s"] += 1
                self.counts[f"{name}.rule.{rule}"] += 1
        elif name == "erase.bisim":
            self.counts["erase.bisim_steps"] += result.steps

    def merge_child(self, child: dict, spawned: float) -> None:
        """Adopt the spans a traced CLI process wrote, under the open span.

        `perf_counter` reads the system's monotonic clock, so the child's
        times are on this process's time line."""
        self.add_closed("cli.interp_start", spawned, child["t0"])
        self.add_closed("cli.import", *child["import_span"])
        base = len(self.spans)
        parent = self._open[-1][3] if self._open else -1
        for nid, start, end, span_parent, _op, self_s in child["spans"]:
            top = span_parent < 0
            self.spans.append((self._id(child["names"][nid]), start, end, parent if top else base + span_parent, self.op))
            self.self_time.append(self_s)
            if top and self._open:
                self._open[-1][2] += end - start
        for name, n in child["entries"].items():
            self.entries[name] = self.entries.get(name, 0) + n
        self.counts.update(child["counts"])
        self.cli_runs.append((child["t0"] - spawned, child["import_span"][1] - child["import_span"][0], child["main_s"]))

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        # A wrapped recursive call (`step` descending to its redex) runs in
        # three frames instead of one, so the recursion limit is raised to
        # give traced code the depth it has untraced.
        self._saved_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(FRAMES_PER_WRAPPED_CALL * self._saved_limit)
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            self._id(span)
            setattr(module, attr, self._wrap(span, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        sys.setrecursionlimit(self._saved_limit)

    def _wrap(self, name: str, fn):
        call = self.call

        def traced(*args, **kwargs):
            return call(name, fn, args, kwargs)

        return traced

    # -- summaries ----------------------------------------------------------
    def totals(self, ops_only: bool = False) -> dict[str, dict[str, float]]:
        """Per span name: span count, inclusive seconds and self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"spans": 0, "total_s": 0.0, "self_s": 0.0})
        for (nid, start, end, _parent, op), self_s in zip(self.spans, self.self_time):
            if ops_only and op < 0:
                continue
            row = out[self.names[nid]]
            row["spans"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_s
        return dict(out)

    def dump(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "span_fields": ["name", "start", "end", "parent", "op", "self"],
                    "spans": [list(s) + [x] for s, x in zip(self.spans, self.self_time)],
                    "entries": dict(self.entries),
                    "counts": dict(self.counts),
                    "lost_counts": self.lost_counts,
                    "cli_runs": self.cli_runs,
                    **extra,
                },
                fh,
                separators=(",", ":"),
            )
