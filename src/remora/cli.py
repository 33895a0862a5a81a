"""Command-line front end.

    remora COMMAND [PATH] [flags]
    remora COMMAND -h

COMMAND is `check`, `eval`, `erase`, `bisim` or `fmt`; `COMMANDS` lists each
one's flags. Flags may come before or after PATH, and each is accepted only as
spelled there (no abbreviations). `--fuel` takes an integer of at least 1, as
`--fuel N` or `--fuel=N`. `-h` or `--help`, alone or after a command, prints
usage on stdout.

Exit codes: 0 success, 1 parse/type error or a bisim mismatch, 2 stuck
evaluation, 3 out of fuel, 4 resource limit (the input nests deeper than the
Python stack allows, or memory ran out), 64 usage error, 66 unreadable input
file, 74 output could not be written (stdout was closed early). Results go to
stdout, diagnostics to stderr.

Each command imports the modules it uses when it runs, so `fmt` never loads
the checker or the machines, and only `erase` and `bisim` load `erase`. argv is
read by one loop over `COMMANDS`, not by argparse, whose import (with gettext
and locale) would cost a fresh process more than reading argv does.

A process runs `entry`, both as `python -m remora.cli` and as the installed
`remora` script: it turns CPython's cyclic collector off, runs `main` on
`sys.argv`, and calls `gc.freeze()` just before `sys.exit`. Terms never form
reference cycles, so the collector has nothing to find in a command; frozen,
everything the command left alive sits where the interpreter's last
collection at exit does not walk it. The exit is otherwise the usual one:
atexit handlers run and stdout and stderr are flushed. `main` itself leaves
the collector as it found it, for tests and hosts that call it in-process.
"""

import sys

EX_RESOURCE = 4
EX_USAGE = 64
EX_NOINPUT = 66
EX_IOERR = 74


def __getattr__(name):
    """The library functions the commands call, which tools wrap as
    `remora.cli.<name>`, resolve as the package's names do (PEP 562)."""
    import remora
    return getattr(remora, name)


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


def _cmd_check(path, list_prims) -> int:
    from .printer import print_type
    from .prims import SIGNATURE

    if list_prims:
        for name in sorted(SIGNATURE):
            print(f"{name}\t{print_type(SIGNATURE[name])}")
        if path is None:
            return 0
    if path is None:
        print("usage error: check needs a file (or --list-prims)", file=sys.stderr)
        return EX_USAGE
    _, ty = _load(path)
    print(print_type(ty, canonical=True))
    return 0


def _cmd_eval(path, fuel, trace) -> int:
    from .eval import DEFAULT_FUEL, evaluate
    from .printer import print_term

    term, _ = _load(path)
    result = evaluate(term, fuel=DEFAULT_FUEL if fuel is None else fuel, trace=trace)
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


def _cmd_erase(path) -> int:
    from .erase import erase_term, print_erased

    term, _ = _load(path)
    print(print_erased(erase_term(term)))
    return 0


def _cmd_bisim(path, fuel, trace) -> int:
    from .erase import bisim_run, erase_term, erased_subterm, print_erased

    term, _ = _load(path)
    report = bisim_run(term, fuel=fuel, trace=trace)
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


def _cmd_fmt(path, canonical, annotations) -> int:
    from .indices import SortError
    from .printer import print_term

    term = _load(path)[0] if annotations else _parse(path)
    try:
        text = print_term(term, annotations=annotations, canonical=canonical)
    except SortError as exc:  # --canonical normalizes indices no checker has sorted
        loc = getattr(exc.index, "loc", None)
        where = f"{loc}: " if loc else ""
        print(f"{where}SortMismatch: {exc}", file=sys.stderr)
        return 1
    print(text)
    return 0


# name: (function, help line, path required, boolean flags, integer options
# with their defaults). The function takes PATH as its keyword `path` (None
# when absent) and each flag or option `--x-y` as `x_y`. An eval `--fuel` of
# None means `eval.DEFAULT_FUEL`.
COMMANDS = {
    "check": (_cmd_check, "type-check a program and print its type", False, ("--list-prims",), {}),
    "eval": (_cmd_eval, "evaluate a program", True, ("--trace",), {"--fuel": None}),
    "erase": (_cmd_erase, "print the type-erased program", True, (), {}),
    "bisim": (_cmd_bisim, "run typed and erased machines in lockstep", True, ("--trace",), {"--fuel": 10_000}),
    "fmt": (_cmd_fmt, "parse and pretty-print a program", True, ("--canonical", "--annotations"), {}),
}
HELP = ("-h", "--help")


class _UsageError(Exception):
    pass


def _keyword(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _synopsis(name: str) -> str:
    _, _, path_required, flags, options = COMMANDS[name]
    words = [name, "PATH" if path_required else "[PATH]"]
    words += [f"[{opt} N]" for opt in options] + [f"[{flag}]" for flag in flags]
    return " ".join(words)


def _help(name=None) -> int:
    if name is None:
        lines = ["usage: remora COMMAND [PATH] [flags]", "", "Rank-polymorphic array language tools", "", "commands:"]
        lines += [f"  {_synopsis(n):44s}{row[1]}" for n, row in COMMANDS.items()]
        lines += ["", "Flags may come before or after PATH. `remora COMMAND -h` describes a command."]
    else:
        lines = [f"usage: remora {_synopsis(name)}", "", COMMANDS[name][1]]
        for opt, default in COMMANDS[name][4].items():
            tail = "" if default is None else f", default {default}"
            lines.append(f"{opt} N: an integer of at least 1{tail}")
    print("\n".join(lines))
    return 0


def _read_argv(argv):
    """The function argv names and its keyword arguments; `_help` for -h."""
    if not argv:
        raise _UsageError(f"no command (choose from {', '.join(COMMANDS)})")
    name, rest = argv[0], iter(argv[1:])
    if name in HELP:
        return _help, {}
    if name not in COMMANDS:
        raise _UsageError(f"unknown command {name!r} (choose from {', '.join(COMMANDS)})")
    if any(arg in HELP for arg in argv[1:]):
        return _help, {"name": name}
    fn, _, path_required, flags, options = COMMANDS[name]
    kwargs = {_keyword(flag): False for flag in flags}
    kwargs.update((_keyword(opt), default) for opt, default in options.items())
    paths = []
    for arg in rest:
        if arg in flags:
            kwargs[_keyword(arg)] = True
        elif arg[:1] != "-" or arg == "-":
            paths.append(arg)
        else:
            opt, eq, value = arg.partition("=")
            if opt not in options:
                raise _UsageError(f"unrecognized argument {arg!r} for {name}")
            if not eq:
                value = next(rest, None)
                if value is None:
                    raise _UsageError(f"{opt} expects an integer")
            try:
                n = int(value)
            except ValueError:
                raise _UsageError(f"{opt} expects an integer, got {value!r}") from None
            if n < 1:
                raise _UsageError(f"{opt} must be at least 1")
            kwargs[_keyword(opt)] = n
    if len(paths) > 1:
        raise _UsageError(f"{name} takes one PATH, got {len(paths)}")
    if path_required and not paths:
        raise _UsageError(f"{name} needs a PATH")
    kwargs["path"] = paths[0] if paths else None
    return fn, kwargs


def main(argv=None) -> int:
    try:
        fn, kwargs = _read_argv(sys.argv[1:] if argv is None else argv)
        code = fn(**kwargs)
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except BrokenPipeError as exc:
        import os

        # Whatever is still buffered goes nowhere, so the interpreter's
        # flush at exit cannot raise again.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        print(f"cannot write output: {exc.strerror}", file=sys.stderr)
        return EX_IOERR
    except RecursionError:
        print("resource limit: the term nests deeper than the Python stack allows", file=sys.stderr)
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
    return EX_RESOURCE


def entry():
    """Run one command as a whole process and exit with its code (see the
    module docstring)."""
    import gc

    gc.disable()
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
