"""Command-line front end.

Exit codes: 0 success, 1 parse/type error or a bisim mismatch, 2 stuck
evaluation, 3 out of fuel, 4 resource limit (the input nests deeper than the
Python stack allows, or memory ran out), 64 usage error, 66 unreadable input
file. Results go to stdout, diagnostics to stderr.

Each command imports the modules it uses when it runs, so `fmt` never loads
the checker or the machines, and only `erase` and `bisim` load `erase`.
"""

from __future__ import annotations

import argparse
import sys

EX_RESOURCE = 4
EX_USAGE = 64
EX_NOINPUT = 66


def __getattr__(name):
    """The library functions the commands call, which tools wrap as
    `remora.cli.<name>`, resolve as the package's names do (PEP 562)."""
    import remora
    return getattr(remora, name)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract says 64
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        print(f"cannot read {path}: {exc.strerror}", file=sys.stderr)
    except UnicodeDecodeError:
        print(f"cannot read {path}: not UTF-8 text", file=sys.stderr)
    raise SystemExit(EX_NOINPUT)


def _parse(path: str):
    from .parser import ParseError, parse_term

    text = _read(path)
    try:
        return parse_term(text, filename=path)
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
        raise SystemExit(1)


def _load(path: str):
    from .check import EMPTY_ENV, TypeCheckError, elaborate
    from .prims import SIGNATURE

    term = _parse(path)
    try:
        return elaborate(EMPTY_ENV, SIGNATURE, term)
    except TypeCheckError as exc:
        print(str(exc), file=sys.stderr)
        raise SystemExit(1)


def _cmd_check(args) -> int:
    from .printer import print_type
    from .prims import SIGNATURE

    if args.list_prims:
        for name in sorted(SIGNATURE):
            print(f"{name}\t{print_type(SIGNATURE[name])}")
        if args.path is None:
            return 0
    if args.path is None:
        print("usage error: check needs a file (or --list-prims)", file=sys.stderr)
        return EX_USAGE
    _, ty = _load(args.path)
    print(print_type(ty, canonical=True))
    return 0


def _cmd_eval(args) -> int:
    from .eval import DEFAULT_FUEL, evaluate
    from .printer import print_term

    term, _ = _load(args.path)
    result = evaluate(term, fuel=DEFAULT_FUEL if args.fuel is None else args.fuel, trace=args.trace)
    if result.trace is not None:
        for rule, t in result.trace:
            print(f"{rule}\t{print_term(t)}")
    if result.outcome == "value":
        print(print_term(result.term))
        return 0
    if result.outcome == "stuck":
        if result.stuck and result.stuck.reason == "misapplied":
            print(f"stuck: misapplied {result.stuck.op}")
        else:
            detail = result.stuck.detail if result.stuck else ""
            print(f"stuck: internal ({detail})")
        return 2
    print("out of fuel")
    return 3


def _cmd_erase(args) -> int:
    from .erase import erase_term, print_erased

    term, _ = _load(args.path)
    print(print_erased(erase_term(term)))
    return 0


def _cmd_bisim(args) -> int:
    from .erase import bisim_run, erase_term, erased_subterm, print_erased

    term, _ = _load(args.path)
    report = bisim_run(term, fuel=args.fuel, trace=args.trace)
    if report.trace is not None:
        for k, (typed_rule, erased_rule) in enumerate(report.trace):
            print(f"{k}\t{typed_rule}\t{erased_rule}")
    if report.outcome == "mismatch":
        print(f"mismatch step={report.mismatch_step}")
        path = report.mismatch_path
        if path is not None:
            typed = erased_subterm(erase_term(report.typed_term), path)
            erased = erased_subterm(report.erased_term, path)
            print(
                f"first difference at {path or '(root)'}: typed state erases to"
                f" {print_erased(typed)}, erased machine has {print_erased(erased)}",
                file=sys.stderr,
            )
        return 1
    print(f"{report.outcome} steps={report.steps}")
    return 3 if report.outcome == "diverged" else 0


def _cmd_fmt(args) -> int:
    from .printer import print_term

    term = _load(args.path)[0] if args.annotations else _parse(args.path)
    print(print_term(term, annotations=args.annotations, canonical=args.canonical))
    return 0


def main(argv=None) -> int:
    parser = _Parser(prog="remora", description="Rank-polymorphic array language tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="type-check a program and print its type")
    p_check.add_argument("path", nargs="?")
    p_check.add_argument("--list-prims", action="store_true")
    p_check.set_defaults(fn=_cmd_check)

    p_eval = sub.add_parser("eval", help="evaluate a program")
    p_eval.add_argument("path")
    p_eval.add_argument("--fuel", type=int)  # default: eval.DEFAULT_FUEL
    p_eval.add_argument("--trace", action="store_true")
    p_eval.set_defaults(fn=_cmd_eval)

    p_erase = sub.add_parser("erase", help="print the type-erased program")
    p_erase.add_argument("path")
    p_erase.set_defaults(fn=_cmd_erase)

    p_bisim = sub.add_parser("bisim", help="run typed and erased machines in lockstep")
    p_bisim.add_argument("path")
    p_bisim.add_argument("--fuel", type=int, default=10_000)
    p_bisim.add_argument("--trace", action="store_true")
    p_bisim.set_defaults(fn=_cmd_bisim)

    p_fmt = sub.add_parser("fmt", help="parse and pretty-print a program")
    p_fmt.add_argument("path")
    p_fmt.add_argument("--canonical", action="store_true")
    p_fmt.add_argument("--annotations", action="store_true")
    p_fmt.set_defaults(fn=_cmd_fmt)

    args = parser.parse_args(argv)
    if getattr(args, "fuel", None) is not None and args.fuel < 1:
        print("usage error: --fuel must be at least 1", file=sys.stderr)
        return EX_USAGE
    try:
        return args.fn(args)
    except RecursionError:
        print("resource limit: the term nests deeper than the Python stack allows", file=sys.stderr)
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
    return EX_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
