"""S-expression reader for the surface language.

One top-level expression per file; `;` comments run to end of line. The
grammar distinguishes expression position from atom position: identifiers
are variables as expressions and primitive operators as atoms, and the
abstraction/box forms are atoms, legal only inside array literals.

Any parenthesized form may end with `: <type>`; the parsed type lands in the
node's annotation slot. Only array and frame forms need it in source (empty
literals), but the printer's annotated output stays readable.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from typing import Optional, Union

from .syntax import (
    App,
    ArrayLit,
    ArrType,
    AtomTerm,
    BASE_TYPE_NAMES,
    BaseType,
    BaseVal,
    Box,
    CHAR_NAMES,
    EmptyArray,
    EmptyFrame,
    ExprTerm,
    ForallType,
    Frame,
    FunType,
    HEADS,
    IApp,
    IdxAppend,
    IdxVar,
    ILam,
    IndexExpr,
    Kind,
    Lam,
    NatLit,
    PiType,
    Plus,
    PrimOp,
    ShapeLit,
    SigmaType,
    Sort,
    SourceLocation,
    TApp,
    TLam,
    TypeExpr,
    TyVar,
    Unbox,
    Var,
    node,
)


class ParseError(Exception):
    def __init__(self, message: str, loc: Optional[SourceLocation] = None):
        self.message = message
        self.loc = loc
        where = f"{loc}: " if loc else ""
        super().__init__(f"{where}{message}")


_NUMBER_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")

# The head words of the typed term forms: no variable or operator is spelled
# as one.
KEYWORDS = {word for cls, word in HEADS.items() if "annot" in cls._roles}


_NEWLINE_RE = re.compile(r"\n")


class Lines:
    """The offset at which each line of one source text starts. A token is
    read with its offset only; this table turns an offset into a
    `SourceLocation` when a node or a `ParseError` needs one."""

    __slots__ = ("file", "starts")

    def __init__(self, text: str, file: str):
        self.file = file
        self.starts = [0, *(m.end() for m in _NEWLINE_RE.finditer(text))]

    def locate(self, offset: int) -> SourceLocation:
        line = bisect_right(self.starts, offset)
        return SourceLocation(self.file, line, offset - self.starts[line - 1] + 1)


def _loc(s) -> SourceLocation:
    return s.lines.locate(s.offset)


@node
class SAtom:
    text: str
    offset: int
    lines: Lines

    loc = property(_loc)


@node
class SList:
    items: tuple[SExpr, ...]
    offset: int  # of the open paren
    lines: Lines

    loc = property(_loc)


SExpr = Union[SAtom, SList]


# Each match is a comment or one token. The character of a `#\` literal may
# be a delimiter or a blank.
_TOKEN_RE = re.compile(r";[^\n]*|([()]|#\\[\s\S][^ \t\r\n();]*|[^ \t\r\n();]+)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    """Each token of `text` with its offset."""
    return [(tok, m.start()) for m in _TOKEN_RE.finditer(text) if (tok := m[1])]


def _read(text: str, filename: str) -> SExpr:
    """The one s-expression `text` spells, read with a stack of the lists
    still open, so nesting costs no Python frames."""
    tokens = _tokenize(text)
    lines = Lines(text, filename)
    stack = []  # (items of the enclosing list, offset of this list's paren)
    items: list = []
    for k, (tok, at) in enumerate(tokens):
        if tok == "(":
            stack.append((items, at))
            items = []
            continue
        if tok == ")":
            if not stack:
                raise ParseError("unexpected ')'", lines.locate(at))
            outer, at = stack.pop()
            outer.append(SList(tuple(items), at, lines))
            items = outer
        else:
            items.append(SAtom(tok, at, lines))
        if not stack:
            if k + 1 < len(tokens):
                raise ParseError("trailing content after expression", lines.locate(tokens[k + 1][1]))
            return items[0]
    if stack:
        raise ParseError("unbalanced parentheses", lines.locate(stack[-1][1]))
    raise ParseError("empty input")


def _split_annotation(items: tuple[SExpr, ...]) -> tuple[tuple[SExpr, ...], Optional[SExpr]]:
    """Strip a trailing `: type` pair from a form's items."""
    for k, it in enumerate(items):
        if isinstance(it, SAtom) and it.text == ":":
            if k != len(items) - 2:
                raise ParseError("':' must be followed by exactly one type", it.loc)
            return items[:k], items[k + 1]
    return items, None


def _is_nat(text: str) -> bool:
    return text.isdecimal()  # exactly what int() reads


def _parse_dims(s: SExpr) -> tuple[int, ...]:
    if not isinstance(s, SList):
        raise ParseError("expected a dimension list", s.loc)
    dims = []
    for it in s.items:
        if not isinstance(it, SAtom) or not _is_nat(it.text):
            raise ParseError("dimensions must be natural number literals", it.loc)
        dims.append(int(it.text))
    return tuple(dims)


def _parse_index(s: SExpr) -> IndexExpr:
    if isinstance(s, SAtom):
        if _is_nat(s.text):
            return NatLit(int(s.text), loc=s.loc)
        if _NUMBER_RE.match(s.text):
            raise ParseError(f"index literals must be naturals: {s.text}", s.loc)
        return IdxVar(s.text, loc=s.loc)
    if not s.items:
        raise ParseError("empty index form", s.loc)
    head = s.items[0]
    if isinstance(head, SAtom):
        if head.text == "Shp":
            return ShapeLit(tuple(_parse_index(x) for x in s.items[1:]), loc=s.loc)
        if head.text == "+":
            return Plus(tuple(_parse_index(x) for x in s.items[1:]), loc=s.loc)
        if head.text == "++":
            return IdxAppend(tuple(_parse_index(x) for x in s.items[1:]), loc=s.loc)
    raise ParseError("unknown index form", s.loc)


def _parse_kind(s: SExpr) -> Kind:
    if isinstance(s, SAtom) and s.text in ("Atom", "Array"):
        return Kind.ATOM if s.text == "Atom" else Kind.ARRAY
    raise ParseError("expected a kind (Atom or Array)", s.loc)


def _parse_sort(s: SExpr) -> Sort:
    if isinstance(s, SAtom) and s.text in ("Dim", "Shape"):
        return Sort.DIM if s.text == "Dim" else Sort.SHAPE
    raise ParseError("expected a sort (Dim or Shape)", s.loc)


def _parse_type(s: SExpr) -> TypeExpr:
    if isinstance(s, SAtom):
        if s.text in BASE_TYPE_NAMES:
            return BaseType(s.text, loc=s.loc)
        if _NUMBER_RE.match(s.text):
            raise ParseError(f"expected a type, got a number: {s.text}", s.loc)
        return TyVar(s.text, loc=s.loc)
    if not s.items:
        raise ParseError("empty type form", s.loc)
    head = s.items[0]
    if not isinstance(head, SAtom):
        raise ParseError("unknown type form", s.loc)
    kw = head.text
    rest = s.items[1:]
    if kw == "Arr":
        if len(rest) != 2:
            raise ParseError("Arr takes an atom type and a shape", s.loc)
        return ArrType(_parse_type(rest[0]), _parse_index(rest[1]), loc=s.loc)
    if kw == "->":
        if len(rest) != 2 or not isinstance(rest[0], SList):
            raise ParseError("-> takes an input type list and an output type", s.loc)
        return FunType(
            tuple(_parse_type(x) for x in rest[0].items),
            _parse_type(rest[1]),
            loc=s.loc,
        )
    if kw in _QUANTIFIERS:
        if len(rest) != 2 or not isinstance(rest[0], SList):
            raise ParseError(f"{kw} takes a binder list and a body", s.loc)
        binders = _binders(rest[0], _parse_kind if kw == "Forall" else _parse_sort)
        return _QUANTIFIERS[kw](binders, _parse_type(rest[1]), loc=s.loc)
    raise ParseError(f"unknown type keyword: {kw}", s.loc)


_QUANTIFIERS = {"Forall": ForallType, "Pi": PiType, "Sigma": SigmaType}


def _binders(s: SList, parse, what: str = "binder") -> tuple:
    """The `(name thing)` pairs of a binder or parameter list."""
    out = []
    for b in s.items:
        if not isinstance(b, SList) or len(b.items) != 2 or not isinstance(b.items[0], SAtom):
            raise ParseError(f"malformed {what}", b.loc)
        out.append((b.items[0].text, parse(b.items[1])))
    return tuple(out)


def _parse_atom(s: SExpr) -> AtomTerm:
    if isinstance(s, SAtom):
        t = s.text
        if _NUMBER_RE.match(t):
            value = float(t)
            if not math.isfinite(value):
                raise ParseError(f"number literal out of range: {t}", s.loc)
            return BaseVal("Num", value, loc=s.loc)
        if t == "#t":
            return BaseVal("Bool", True, loc=s.loc)
        if t == "#f":
            return BaseVal("Bool", False, loc=s.loc)
        if t.startswith("#\\"):
            body = t[2:]
            if body in CHAR_NAMES:
                return BaseVal("Char", CHAR_NAMES[body], loc=s.loc)
            if len(body) != 1:
                raise ParseError(f"bad character literal: {t}", s.loc)
            return BaseVal("Char", body, loc=s.loc)
        if t in KEYWORDS:
            raise ParseError(f"reserved word in atom position: {t}", s.loc)
        return PrimOp(t, loc=s.loc)
    if not s.items:
        raise ParseError("empty atom form", s.loc)
    head = s.items[0]
    if not isinstance(head, SAtom):
        raise ParseError("unknown atom form", s.loc)
    kw = head.text
    items, annot_s = _split_annotation(s.items)
    rest = items[1:]
    annot = _parse_type(annot_s) if annot_s is not None else None
    if kw in ("lam", "tlam", "ilam"):
        if len(rest) != 2 or not isinstance(rest[0], SList):
            raise ParseError(f"{kw} takes a binder list and a body", s.loc)
        body = _parse_expr(rest[1])
        if kw == "lam":
            return Lam(_binders(rest[0], _parse_type, "parameter"), body, annot=annot, loc=s.loc)
        if kw == "tlam":
            return TLam(_binders(rest[0], _parse_kind), body, annot=annot, loc=s.loc)
        return ILam(_binders(rest[0], _parse_sort), body, annot=annot, loc=s.loc)
    if kw == "box":
        if len(rest) < 2:
            raise ParseError("box takes indices, a payload, and a type", s.loc)
        indices = tuple(_parse_index(x) for x in rest[:-2])
        payload = _parse_expr(rest[-2])
        box_type = _parse_type(rest[-1])
        return Box(indices, payload, box_type, annot=annot, loc=s.loc)
    raise ParseError(f"not an atom form: {kw}", s.loc)


def _parse_expr(s: SExpr) -> ExprTerm:
    if isinstance(s, SAtom):
        t = s.text
        if _NUMBER_RE.match(t) or t.startswith("#"):
            raise ParseError(
                f"bare atom in expression position (wrap it in an array literal): {t}",
                s.loc,
            )
        if t in KEYWORDS:
            raise ParseError(f"reserved word in expression position: {t}", s.loc)
        return Var(t, loc=s.loc)
    items, annot_s = _split_annotation(s.items)
    if not items:  # `()`, or `(: type)` with nothing to annotate
        raise ParseError("empty application", s.loc)
    annot = _parse_type(annot_s) if annot_s is not None else None
    head = items[0]
    if isinstance(head, SAtom) and head.text in KEYWORDS:
        kw = head.text
        rest = items[1:]
        if kw == "array":
            if not rest:
                raise ParseError("array needs a dimension list", s.loc)
            dims = _parse_dims(rest[0])
            atoms = tuple(_parse_atom(x) for x in rest[1:])
            return ArrayLit(dims, atoms, annot=annot, loc=s.loc)
        if kw == "frame":
            if not rest:
                raise ParseError("frame needs a dimension list", s.loc)
            dims = _parse_dims(rest[0])
            cells = tuple(_parse_expr(x) for x in rest[1:])
            return Frame(dims, cells, annot=annot, loc=s.loc)
        if kw == "empty-array":
            if len(rest) != 2:
                raise ParseError("empty-array takes an atom type and dimensions", s.loc)
            return EmptyArray(_parse_type(rest[0]), _parse_dims(rest[1]), annot=annot, loc=s.loc)
        if kw == "empty-frame":
            if len(rest) != 2:
                raise ParseError("empty-frame takes a cell type and dimensions", s.loc)
            return EmptyFrame(_parse_type(rest[0]), _parse_dims(rest[1]), annot=annot, loc=s.loc)
        if kw == "t-app":
            if not rest:
                raise ParseError("t-app needs a function expression", s.loc)
            return TApp(
                _parse_expr(rest[0]),
                tuple(_parse_type(x) for x in rest[1:]),
                annot=annot,
                loc=s.loc,
            )
        if kw == "i-app":
            if not rest:
                raise ParseError("i-app needs a function expression", s.loc)
            return IApp(
                _parse_expr(rest[0]),
                tuple(_parse_index(x) for x in rest[1:]),
                annot=annot,
                loc=s.loc,
            )
        if kw == "unbox":
            if len(rest) != 2 or not isinstance(rest[0], SList):
                raise ParseError("unbox takes a binding list and a body", s.loc)
            binding = rest[0].items
            if len(binding) < 2:
                raise ParseError(
                    "unbox binding needs a value variable and a box expression",
                    rest[0].loc,
                )
            names = binding[:-1]
            for nm in names:
                if not isinstance(nm, SAtom) or nm.text in KEYWORDS:
                    raise ParseError("malformed unbox binder", nm.loc)
            idx_vars = tuple(nm.text for nm in names[:-1])
            val_var = names[-1].text
            box = _parse_expr(binding[-1])
            body = _parse_expr(rest[1])
            return Unbox(idx_vars, val_var, box, body, annot=annot, loc=s.loc)
        raise ParseError(f"'{kw}' cannot appear here", s.loc)
    fn = _parse_expr(head)
    args = tuple(_parse_expr(x) for x in items[1:])
    return App(fn, args, annot=annot, loc=s.loc)


def parse_term(text: str, filename: str = "<string>") -> ExprTerm:
    """Parse one top-level expression from source text."""
    return _parse_expr(_read(text, filename))


def parse_type(text: str, filename: str = "<string>") -> TypeExpr:
    return _parse_type(_read(text, filename))


def parse_index(text: str, filename: str = "<string>") -> IndexExpr:
    return _parse_index(_read(text, filename))
