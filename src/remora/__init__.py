"""Rank-polymorphic array language with shape-indexed types.

Library surface: parse and print (`parser`, `printer`), the index theory
(`indices`), the static semantics (`check`), primitive operators (`prims`),
the type-driven evaluator (`eval`), and type erasure with its own evaluator
and the lockstep harness (`erase`).

The names below are imported from their modules on first use (PEP 562): the
package, or one module of it, loads only what it needs.
"""

import importlib

_EXPORTS = {
    "check": ("EMPTY_ENV", "Env", "ErrorKind", "TypeCheckError", "elaborate", "types_equal"),
    "erase": ("bisim_run", "erase_term", "erase_type", "erased_evaluate"),
    "eval": ("evaluate", "step"),
    "parser": ("ParseError", "parse_index", "parse_term", "parse_type"),
    "printer": ("print_erased", "print_index", "print_term", "print_type"),
    "prims": ("SIGNATURE", "delta_apply", "signature_lookup"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
