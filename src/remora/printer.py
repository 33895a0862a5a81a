"""Printers for indices, types, and terms, inverse to the parser.

print_term(parse_term(s)) round-trips structurally for annotation-free
terms. Empty array/frame literals always print their annotation (there is
no other way to read their element type back); other nodes print a trailing
`: type` only when asked.
"""

from __future__ import annotations

from .indices import normalize_index
from .syntax import (
    App,
    ArrayLit,
    ArrType,
    BaseType,
    BaseVal,
    Box,
    CHAR_NAMES,
    EmptyArray,
    EmptyFrame,
    ForallType,
    Frame,
    FunType,
    IApp,
    IdxAppend,
    IdxVar,
    ILam,
    IndexExpr,
    Lam,
    NatLit,
    PiType,
    Plus,
    PrimOp,
    ShapeLit,
    SigmaType,
    TApp,
    Term,
    TLam,
    TypeExpr,
    TyVar,
    Unbox,
    Var,
)

_CHAR_SPELLINGS = {c: name for name, c in CHAR_NAMES.items()}


def print_base(base: str, v) -> str:
    """A Num, Bool or Char literal, spelled as the reader reads it."""
    if base == "Num":
        if v != v:  # NaN
            return "nan"
        if v in (float("inf"), float("-inf")):
            return "inf" if v > 0 else "-inf"
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if base == "Bool":
        return "#t" if v else "#f"
    return "#\\" + _CHAR_SPELLINGS.get(v, v)


def print_index(i: IndexExpr, canonical: bool = False) -> str:
    if canonical:
        return print_index(normalize_index(i))
    if isinstance(i, NatLit):
        return str(i.value)
    if isinstance(i, IdxVar):
        return i.name
    if isinstance(i, Plus):
        return "(+ " + " ".join(print_index(o) for o in i.operands) + ")"
    if isinstance(i, ShapeLit):
        if not i.dims:
            return "(Shp)"
        return "(Shp " + " ".join(print_index(o) for o in i.dims) + ")"
    if isinstance(i, IdxAppend):
        return "(++ " + " ".join(print_index(o) for o in i.operands) + ")"
    raise TypeError(i)


def _binders(binders, tag) -> str:
    return "(" + " ".join(f"({x} {tag(b)})" for x, b in binders) + ")"


def print_type(t: TypeExpr, canonical: bool = False) -> str:
    if isinstance(t, BaseType):
        return t.name
    if isinstance(t, TyVar):
        return t.name
    if isinstance(t, FunType):
        ins = " ".join(print_type(x, canonical) for x in t.inputs)
        return f"(-> ({ins}) {print_type(t.output, canonical)})"
    if isinstance(t, ArrType):
        return f"(Arr {print_type(t.elem, canonical)} {print_index(t.shape, canonical)})"
    if isinstance(t, ForallType):
        return f"(Forall {_binders(t.binders, str)} {print_type(t.body, canonical)})"
    if isinstance(t, PiType):
        return f"(Pi {_binders(t.binders, str)} {print_type(t.body, canonical)})"
    if isinstance(t, SigmaType):
        return f"(Sigma {_binders(t.binders, str)} {print_type(t.body, canonical)})"
    raise TypeError(t)


def _dims(dims: tuple[int, ...]) -> str:
    return "(" + " ".join(str(d) for d in dims) + ")"


def print_term(t: Term, annotations: bool = False, canonical: bool = False) -> str:
    return _TermPrinter(annotations, canonical).go(t)


class _TermPrinter:
    """One Python frame per nesting level. (A class, not a closure: a
    recursive closure is a reference cycle, and one per call keeps the
    collector busy.)"""

    __slots__ = ("annotations", "canonical")

    def __init__(self, annotations: bool, canonical: bool) -> None:
        self.annotations, self.canonical = annotations, canonical

    def ann(self, node, body: str, force: bool = False) -> str:
        if node.annot is not None and (self.annotations or force):
            return f"{body} : {print_type(node.annot, self.canonical)}"
        return body

    def go(self, t: Term) -> str:
        canonical = self.canonical
        if isinstance(t, BaseVal):
            return print_base(t.base, t.value)
        if isinstance(t, PrimOp):
            return t.name
        if isinstance(t, Var):
            return t.name
        if isinstance(t, Lam):
            params = " ".join(f"({x} {print_type(ty, canonical)})" for x, ty in t.params)
            return "(" + self.ann(t, f"lam ({params}) {self.go(t.body)}") + ")"
        if isinstance(t, TLam):
            return "(" + self.ann(t, f"tlam {_binders(t.binders, str)} {self.go(t.body)}") + ")"
        if isinstance(t, ILam):
            return "(" + self.ann(t, f"ilam {_binders(t.binders, str)} {self.go(t.body)}") + ")"
        if isinstance(t, Box):
            idxs = " ".join(print_index(i, canonical) for i in t.indices)
            idxs = idxs + " " if idxs else ""
            return "(" + self.ann(t, f"box {idxs}{self.go(t.payload)} {print_type(t.box_type, canonical)}") + ")"
        if isinstance(t, ArrayLit):
            parts = " ".join(self.go(a) for a in t.atoms)
            body = f"array {_dims(t.dims)}" + (f" {parts}" if parts else "")
            return "(" + self.ann(t, body, force=not t.atoms) + ")"
        if isinstance(t, Frame):
            parts = " ".join(self.go(c) for c in t.cells)
            body = f"frame {_dims(t.dims)}" + (f" {parts}" if parts else "")
            return "(" + self.ann(t, body, force=not t.cells) + ")"
        if isinstance(t, EmptyArray):
            return "(" + self.ann(t, f"empty-array {print_type(t.elem_type, canonical)} {_dims(t.dims)}") + ")"
        if isinstance(t, EmptyFrame):
            return "(" + self.ann(t, f"empty-frame {print_type(t.cell_type, canonical)} {_dims(t.dims)}") + ")"
        if isinstance(t, App):
            parts = " ".join(self.go(a) for a in t.args)
            body = self.go(t.fn) + (f" {parts}" if parts else "")
            return "(" + self.ann(t, body) + ")"
        if isinstance(t, TApp):
            parts = " ".join(print_type(x, canonical) for x in t.type_args)
            body = f"t-app {self.go(t.fn)}" + (f" {parts}" if parts else "")
            return "(" + self.ann(t, body) + ")"
        if isinstance(t, IApp):
            parts = " ".join(print_index(i, canonical) for i in t.idx_args)
            body = f"i-app {self.go(t.fn)}" + (f" {parts}" if parts else "")
            return "(" + self.ann(t, body) + ")"
        if isinstance(t, Unbox):
            names = " ".join(t.idx_vars + (t.val_var,))
            return "(" + self.ann(t, f"unbox ({names} {self.go(t.box)}) {self.go(t.body)}") + ")"
        raise TypeError(t)
