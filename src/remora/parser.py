"""S-expression reader for the surface language.

One top-level expression per file; `;` comments run to end of line. The
grammar distinguishes expression position from atom position: identifiers
are variables as expressions and primitive operators as atoms, and the
abstraction/box forms are atoms, legal only inside array literals.

Any parenthesized form may end with `: <type>`; the parsed type lands in the
node's annotation slot. Only array and frame forms need it in source (empty
literals), but the printer's annotated output stays readable.

A loop reads the text into s-expressions; one recursive function, `_parse`,
reads every index, type, atom and expression from them. It looks a form up
by its head word (`syntax.HEADS`) in a table built at import from each
class's field roles, read in field order as the printer reads them: a child
is one item and a tuple of children a run of items, dimensions are a
dimension list, and a binder field is a binder list. What the roles cannot
say is written out in `_form` and `_ARITY`: `->` takes its inputs as one
list, `unbox` groups its binders with its box, an application has no head
word, and each form's arity diagnostic. A level of nesting costs one Python
frame.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from typing import Optional, Union, get_args

from .syntax import (
    DATA,
    IDX,
    MANY,
    NAMES,
    TM,
    TY,
    TYPED,
    App,
    ArrayLit,
    ArrType,
    AtomTerm,
    BASE_TYPE_NAMES,
    BaseType,
    BaseVal,
    Box,
    CHAR_NAMES,
    Child,
    EmptyArray,
    EmptyFrame,
    ExprTerm,
    ForallType,
    Frame,
    FunType,
    HEADS,
    IApp,
    IdxVar,
    ILam,
    IndexExpr,
    Kind,
    Lam,
    NatLit,
    PiType,
    PrimOp,
    Scope,
    SigmaType,
    Sort,
    SourceLocation,
    TApp,
    TLam,
    TypeExpr,
    TyVar,
    Unbox,
    Var,
    gc_paused,
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


class SAtom(metaclass=node):
    text: str
    offset: int
    lines: Lines

    loc = property(_loc)


class SList(metaclass=node):
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


def _parse_dims(s: SExpr) -> tuple[int, ...]:
    if not isinstance(s, SList):
        raise ParseError("expected a dimension list", s.loc)
    dims = []
    for it in s.items:
        if not isinstance(it, SAtom) or not it.text.isdecimal():  # exactly what int() reads
            raise ParseError("dimensions must be natural number literals", it.loc)
        dims.append(int(it.text))
    return tuple(dims)


# The positions an s-expression is parsed in, and what a diagnostic calls each.
_INDEX, _TYPE, _ATOM, _EXPR = range(4)
_WHAT = ("index", "type", "atom")
_UNKNOWN = ("unknown index form", "unknown type keyword: {}", "not an atom form: {}")

# What a step of a form reads: one item; a run of items; the items of one
# list; a dimension list; a binder list; `unbox`'s `(i ... v box)`.
_ONE, _MANY, _LIST, _DIMS, _BINDERS, _UNBOX = range(6)

# What a form with a fixed number of items says of them, after its head word.
_BODY = "takes a binder list and a body"
_ARITY = {
    ArrType: "takes an atom type and a shape", FunType: "takes an input type list and an output type",
    ForallType: _BODY, PiType: _BODY, SigmaType: _BODY, Lam: _BODY, TLam: _BODY, ILam: _BODY,
    Box: "takes indices, a payload, and a type", ArrayLit: "needs a dimension list", Frame: "needs a dimension list",
    EmptyArray: "takes an atom type and dimensions", EmptyFrame: "takes a cell type and dimensions",
    TApp: "needs a function expression", IApp: "needs a function expression", Unbox: "takes a binding list and a body",
}


def _choices(enum) -> tuple:
    """The members of a kind or sort by spelling, and the diagnostic for any
    other spelling."""
    words = {m.value: m for m in enum}
    return words, f"expected a {enum.__name__.lower()} ({' or '.join(words)})"


# What a binder list of (name kind) or (name sort) pairs binds, by namespace.
_CHOICES = {TY: _choices(Kind), IDX: _choices(Sort)}


def _form(cls, start: int) -> tuple:
    """How the grammar reads a form whose fields start at item `start`:
    (class, item count, whether a run of items makes that a least count,
    whether the item after the head must be a list, arity diagnostic, steps,
    flip). A step is (what, where, arg): where is its item's index, or the
    slice of a run; arg is the position its children are parsed in or, for a
    binder list, `_TYPE` or a `_CHOICES` entry. The steps are in field order,
    or in reverse when flip is set."""
    roles = [(f, r) for f, r in cls._roles.items() if f != "annot"]
    steps = []
    fields = iter(roles)
    for f, role in fields:
        if isinstance(role, (Child, Scope)):
            pos = {IDX: _INDEX, TY: _TYPE}.get(role.cat, _ATOM if "AtomTerm" in cls.__annotations__[f] else _EXPR)
            many = isinstance(role, Child) and role.shape == MANY
            # `(-> (in ...) out)`
            steps.append((_LIST if cls is FunType and f == "inputs" else _MANY if many else _ONE, pos))
        elif role == DATA:
            steps.append((_DIMS, None))
        elif role.form == NAMES:  # `(unbox (i ... v box) body)`
            next(fields), next(fields)
            steps.append((_UNBOX, None))
        else:
            steps.append((_BINDERS, _TYPE if role.form == TYPED else _CHOICES[role.ns]))
    n = len(steps)
    kinds = [what for what, _ in steps]
    run = kinds.index(_MANY) if _MANY in kinds else n  # the items after it count from the end
    placed = []
    for k, (what, arg) in enumerate(steps):
        placed.append((what, start + k if k < run else slice(start + k, k + 1 - n or None) if k == run else k - n, arg))
    # An abstraction in term position parses its body before its binders, so
    # that of two faults in one, the body's is the one reported.
    flip = kinds[0] is _BINDERS and roles[-1][1] == Scope(TM)
    message = f"{HEADS[cls]} {_ARITY[cls]}" if cls in _ARITY else None
    listed = kinds[0] in (_LIST, _BINDERS, _UNBOX)
    return cls, start + n - (run < n), run < n, listed, message, tuple(placed[::-1] if flip else placed), flip


_FORMS = [{HEADS[cls]: _form(cls, 1) for cls in get_args(u) if cls in HEADS}
          for u in (IndexExpr, TypeExpr, AtomTerm, ExprTerm)]
_EXPR_FORMS = _FORMS[_EXPR]
_APPLICATION = _form(App, 0)  # the one form with no head word


def _parse(s: SExpr, pos: int):
    """The index, type, atom or expression, as `pos` says, that `s` spells.
    Each child is parsed by a call from a loop here, so that a level of
    nesting costs one Python frame."""
    if s.__class__ is SAtom:
        t = s.text
        if pos is _EXPR:
            if _NUMBER_RE.match(t) or t.startswith("#"):
                raise ParseError(f"bare atom in expression position (wrap it in an array literal): {t}", s.loc)
            if t in KEYWORDS:
                raise ParseError(f"reserved word in expression position: {t}", s.loc)
            return Var(t, loc=s.loc)
        if pos is _ATOM:
            if _NUMBER_RE.match(t):
                value = float(t)
                if not math.isfinite(value):
                    raise ParseError(f"number literal out of range: {t}", s.loc)
                return BaseVal("Num", value, loc=s.loc)
            if t == "#t" or t == "#f":
                return BaseVal("Bool", t == "#t", loc=s.loc)
            if t.startswith("#\\"):
                body = t[2:]
                if len(body) != 1 and body not in CHAR_NAMES:
                    raise ParseError(f"bad character literal: {t}", s.loc)
                return BaseVal("Char", CHAR_NAMES.get(body, body), loc=s.loc)
            if t in KEYWORDS:
                raise ParseError(f"reserved word in atom position: {t}", s.loc)
            return PrimOp(t, loc=s.loc)
        if pos is _TYPE:
            if t in BASE_TYPE_NAMES:
                return BaseType(t, loc=s.loc)
            if _NUMBER_RE.match(t):
                raise ParseError(f"expected a type, got a number: {t}", s.loc)
            return TyVar(t, loc=s.loc)
        if t.isdecimal():  # exactly what int() reads
            return NatLit(int(t), loc=s.loc)
        if _NUMBER_RE.match(t):
            raise ParseError(f"index literals must be naturals: {t}", s.loc)
        return IdxVar(t, loc=s.loc)
    # A typed form's annotation is parsed before the form is looked up.
    items, annot = s.items, None
    if pos is _EXPR:
        items, annot = _split_annotation(items)
        if not items:  # `()`, or `(: type)` with nothing to annotate
            raise ParseError("empty application", s.loc)
        if annot is not None:
            annot = _parse(annot, _TYPE)
        head = items[0]
        form = _EXPR_FORMS.get(head.text) if head.__class__ is SAtom else None
        if form is None:
            if head.__class__ is SAtom and head.text in KEYWORDS:
                raise ParseError(f"'{head.text}' cannot appear here", s.loc)
            form = _APPLICATION
    else:
        if not items:
            raise ParseError(f"empty {_WHAT[pos]} form", s.loc)
        head = items[0]
        if head.__class__ is not SAtom:
            raise ParseError(f"unknown {_WHAT[pos]} form", s.loc)
        if pos is _ATOM:
            items, annot = _split_annotation(items)
            if annot is not None:
                annot = _parse(annot, _TYPE)
        form = _FORMS[pos].get(head.text)
        if form is None:
            raise ParseError(_UNKNOWN[pos].format(head.text), s.loc)
    cls, size, many, listed, message, steps, flip = form
    n = len(items)
    if (n < size if many else n != size) or (listed and items[1].__class__ is not SList):
        raise ParseError(message, s.loc)
    args = []
    for what, at, arg in steps:
        if what is _ONE:
            args.append(_parse(items[at], arg))
        elif what is _MANY or what is _LIST:
            run = []
            for x in items[at] if what is _MANY else items[at].items:
                run.append(_parse(x, arg))
            args.append(tuple(run))
        elif what is _DIMS:
            args.append(_parse_dims(items[at]))
        elif what is _BINDERS:
            binders = []
            for b in items[at].items:
                if b.__class__ is not SList or len(b.items) != 2 or b.items[0].__class__ is not SAtom:
                    raise ParseError("malformed parameter" if arg is _TYPE else "malformed binder", b.loc)
                name, x = b.items
                if arg is _TYPE:
                    binders.append((name.text, _parse(x, _TYPE)))
                elif x.__class__ is SAtom and x.text in arg[0]:
                    binders.append((name.text, arg[0][x.text]))
                else:
                    raise ParseError(arg[1], x.loc)
            args.append(tuple(binders))
        else:  # _UNBOX
            group = items[at]
            if len(group.items) < 2:
                raise ParseError("unbox binding needs a value variable and a box expression", group.loc)
            *names, box = group.items
            for name in names:
                if name.__class__ is not SAtom or name.text in KEYWORDS:
                    raise ParseError("malformed unbox binder", name.loc)
            args += (tuple([name.text for name in names[:-1]]), names[-1].text, _parse(box, _EXPR))
    if flip:
        args.reverse()
    return cls(*args, annot=annot, loc=s.loc)


@gc_paused
def parse_term(text: str, filename: str = "<string>") -> ExprTerm:
    """Parse one top-level expression from source text."""
    return _parse(_read(text, filename), _EXPR)


@gc_paused
def parse_type(text: str, filename: str = "<string>") -> TypeExpr:
    return _parse(_read(text, filename), _TYPE)


@gc_paused
def parse_index(text: str, filename: str = "<string>") -> IndexExpr:
    return _parse(_read(text, filename), _INDEX)
