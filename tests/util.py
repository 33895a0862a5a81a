"""Shared test helpers: independent evaluators for index expressions (the
brute-force oracle), random index/type generators, a one-call pipeline from
source text to a result, the reader that tracks line and column token by
token (the oracle of the parser's locations), the grammar and the printers
as first written (the oracles of `parser._parse` and `printer`), the inputs of the machine
oracle tests, the recursive specs that the looping ones are checked against,
erasure as first written (the oracle of `erase._erase`), the whole-term
reference comparison of erased terms and the pairwise one of typed terms,
one-site rewrites of typed terms, the hand-written reference
substitution on erased terms with random erased terms to run it on, the
whole-state reference lockstep check, and one-site rewrites of erased terms
with a way to plant one in the erased machine."""

from __future__ import annotations

import functools
import itertools
import math
import pathlib
import random
import re
import sys
from typing import Optional, Union

import pytest

import remora.erase
import remora.names
from remora.check import EMPTY_ENV, elaborate
from remora.erase import (
    BisimReport,
    EApp,
    EArray,
    EBase,
    EBox,
    EFrame,
    EIApp,
    EILam,
    ELam,
    EOp,
    EUnbox,
    EAtom,
    EExpr,
    EVar,
    LockstepComparer,
    _eapply,
    _eibeta,
    _eunbox,
    erase_type,
    erased_step,
    erased_subterm,
    esubst_idx,
)
from remora.eval import (
    _CONTRACT,
    _VALUE,
    AlreadyValue,
    Stepped,
    StepResult,
    Stuck,
    _apply,
    _collapse,
    _unbox,
    evaluate,
    step as typed_step,
)
from remora.gen import GenConfig, generate_programs
from remora.indices import CanonicalDim, CanonicalShape, DimC, concrete_dims, normalize_index, normalize_tag
from remora.names import IDX, LEAVES, MANY, TM, TYPED, _SPLIT, _unpack, base_name, free_vars, subst, subst_idx, term_children
from remora.parser import KEYWORDS, Lines, ParseError, SAtom, SExpr, SList, _read, _tokenize, parse_term
from remora.prims import SIGNATURE
from remora.syntax import (
    App,
    ArrayLit,
    ArrType,
    AtomTerm,
    BaseType,
    BaseVal,
    BASE_TYPE_NAMES,
    BOOL,
    Box,
    CHAR_NAMES,
    EmptyArray,
    EmptyFrame,
    ExprTerm,
    ForallType,
    Frame,
    FunType,
    IdxAppend,
    IApp,
    IdxVar,
    ILam,
    IndexExpr,
    Kind,
    Lam,
    NatLit,
    Node,
    NUM,
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
    replace,
)


# ---------------------------------------------------------------------------
# Brute-force index semantics (the oracle; no canonical forms involved)


def eval_dim(i: IndexExpr, env: dict[str, int]) -> int:
    if isinstance(i, NatLit):
        return i.value
    if isinstance(i, IdxVar):
        return env[i.name]
    if isinstance(i, Plus):
        return sum(eval_dim(o, env) for o in i.operands)
    raise TypeError(i)


def eval_shape(
    i: IndexExpr, dims: dict[str, int], shapes: dict[str, tuple[int, ...]]
) -> tuple[int, ...]:
    if isinstance(i, IdxVar):
        return shapes[i.name]
    if isinstance(i, ShapeLit):
        return tuple(eval_dim(d, dims) for d in i.dims)
    if isinstance(i, IdxAppend):
        out: tuple[int, ...] = ()
        for o in i.operands:
            out += eval_shape(o, dims, shapes)
        return out
    raise TypeError(i)


def all_assignments(names, lo=0, hi=3):
    names = list(names)
    for values in itertools.product(range(lo, hi + 1), repeat=len(names)):
        yield dict(zip(names, values))


# ---------------------------------------------------------------------------
# Random index/type generators


def random_dim(rng: random.Random, vars=("x", "y", "z"), depth: int = 3) -> IndexExpr:
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        return NatLit(rng.randint(0, 6))
    if roll < 0.6:
        return IdxVar(rng.choice(vars))
    return Plus(
        tuple(random_dim(rng, vars, depth - 1) for _ in range(rng.randint(0, 3)))
    )


def random_shape(
    rng: random.Random,
    dim_vars=("x", "y"),
    shape_vars=("s", "t"),
    depth: int = 3,
) -> IndexExpr:
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return ShapeLit(
            tuple(random_dim(rng, dim_vars, 1) for _ in range(rng.randint(0, 3)))
        )
    if roll < 0.6 and shape_vars:
        return IdxVar(rng.choice(shape_vars))
    return IdxAppend(
        tuple(
            random_shape(rng, dim_vars, shape_vars, depth - 1)
            for _ in range(rng.randint(0, 3))
        )
    )


def random_type(rng: random.Random, depth: int = 4, atom_vars=(), idx_env=None) -> TypeExpr:
    """A random Atom-kinded type; shapes stay closed unless idx_env names
    variables to draw from."""
    idx_env = idx_env or {"dims": (), "shapes": ()}

    def arr(d: int) -> ArrType:
        return ArrType(atom(d - 1), random_closed_shape(rng, idx_env))

    def atom(d: int) -> TypeExpr:
        roll = rng.random()
        if d <= 0 or roll < 0.45:
            if atom_vars and rng.random() < 0.3:
                return TyVar(rng.choice(atom_vars))
            return rng.choice((NUM, BOOL))
        if roll < 0.65:
            return FunType(
                tuple(arr(d - 1) for _ in range(rng.randint(0, 2))), arr(d - 1)
            )
        if roll < 0.78:
            return ForallType((("tv", Kind.ATOM),), arr(d - 1))
        if roll < 0.9:
            return PiType((("pv", Sort.DIM),), arr(d - 1))
        return SigmaType((("sv", Sort.DIM),), arr(d - 1))

    return atom(depth)


def random_closed_shape(rng: random.Random, idx_env) -> IndexExpr:
    dims = [NatLit(rng.randint(0, 3)) for _ in range(rng.randint(0, 2))]
    for name in idx_env.get("dims", ()):
        if rng.random() < 0.3:
            dims.append(IdxVar(name))
    if rng.random() < 0.3:
        return IdxAppend((ShapeLit(tuple(dims)), ShapeLit(())))
    return ShapeLit(tuple(dims))


def shape_of_ints(dims) -> CanonicalShape:
    return CanonicalShape(tuple(DimC(CanonicalDim(n, ())) for n in dims))


# ---------------------------------------------------------------------------
# Pipeline helpers


def check_src(src: str):
    return elaborate(EMPTY_ENV, SIGNATURE, parse_term(src))


def run_src(src: str, fuel: int = 100_000):
    term, ty = check_src(src)
    return evaluate(term, fuel=fuel), ty


# ---------------------------------------------------------------------------
# The reader as it was first written, tracking line and column token by
# token: the oracle of the offsets and the line table that replaced it.

# Each match is a run of blanks or a comment (group 1) or one token (group 2).
_REFERENCE_TOKEN_RE = re.compile(r"([ \t\r\n]+|;[^\n]*)|([()]|#\\[\s\S][^ \t\r\n();]*|[^ \t\r\n();]+)")


def reference_tokenize(text: str, filename: str) -> list[tuple[str, SourceLocation]]:
    tokens = []
    line, col = 1, 1
    for gap, tok in _REFERENCE_TOKEN_RE.findall(text):
        if gap:
            newlines = gap.count("\n")
            if newlines:
                line += newlines
                col = len(gap) - gap.rindex("\n")
            else:
                col += len(gap)
            continue
        tokens.append((tok, SourceLocation(filename, line, col)))
        if "\n" in tok:  # `#\` and a raw newline, the only token that spans lines
            line += 1
            col = len(tok) - tok.index("\n")
        else:
            col += len(tok)
    return tokens


class _Located:
    """Stands in for `parser.Lines` where each offset is a location already."""

    @staticmethod
    def locate(loc: SourceLocation) -> SourceLocation:
        return loc


def reference_read(text: str, filename: str) -> SExpr:
    """The s-expression `text` spells, read from `reference_tokenize`'s
    tokens, so that every `loc` in it, and in what the grammar builds from
    it, is the reference's."""
    tokens = reference_tokenize(text, filename)
    stack = []
    items: list = []
    for k, (tok, loc) in enumerate(tokens):
        if tok == "(":
            stack.append((items, loc))
            items = []
            continue
        if tok == ")":
            if not stack:
                raise ParseError("unexpected ')'", loc)
            outer, loc = stack.pop()
            outer.append(SList(tuple(items), loc, _Located))
            items = outer
        else:
            items.append(SAtom(tok, loc, _Located))
        if not stack:
            if k + 1 < len(tokens):
                raise ParseError("trailing content after expression", tokens[k + 1][1])
            return items[0]
    if stack:
        raise ParseError("unbalanced parentheses", stack[-1][1])
    raise ParseError("empty input")


def node_locations(t) -> list:
    """The `loc` of every node under `t`, in a fixed order."""
    out, stack = [], [t]
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack.extend(x)
        elif isinstance(x, Node):
            out.append(getattr(x, "loc", None))
            stack.extend(getattr(x, f) for f in x._fields if f != "loc")
    return out


def assert_locations_match_reference(text: str, filename: str = "f.remora") -> None:
    """Every token's location, and the `loc` of every node `parse_term`
    builds, or the location of the `ParseError` it raises, are those of the
    reference reader."""
    lines = Lines(text, filename)
    assert [(tok, lines.locate(at)) for tok, at in _tokenize(text)] == reference_tokenize(text, filename)
    try:
        expected = _reference_parse_expr(reference_read(text, filename))
    except ParseError as err:
        with pytest.raises(ParseError) as info:
            parse_term(text, filename)
        assert (info.value.message, info.value.loc) == (err.message, err.loc)
        return
    got = parse_term(text, filename)
    assert got == expected
    assert node_locations(got) == node_locations(expected)


# ---------------------------------------------------------------------------
# The grammar as it was written first, one hand-written ladder per position
# (index, type, atom, expression), recursing twice per level: the oracle of
# `parser._parse`, which must give every tree, node location and ParseError
# that these do.

_REFERENCE_NUMBER_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")


def _reference_split_annotation(items: tuple[SExpr, ...]) -> tuple[tuple[SExpr, ...], Optional[SExpr]]:
    """Strip a trailing `: type` pair from a form's items."""
    for k, it in enumerate(items):
        if isinstance(it, SAtom) and it.text == ":":
            if k != len(items) - 2:
                raise ParseError("':' must be followed by exactly one type", it.loc)
            return items[:k], items[k + 1]
    return items, None


def _reference_is_nat(text: str) -> bool:
    return text.isdecimal()  # exactly what int() reads


def _reference_parse_dims(s: SExpr) -> tuple[int, ...]:
    if not isinstance(s, SList):
        raise ParseError("expected a dimension list", s.loc)
    dims = []
    for it in s.items:
        if not isinstance(it, SAtom) or not _reference_is_nat(it.text):
            raise ParseError("dimensions must be natural number literals", it.loc)
        dims.append(int(it.text))
    return tuple(dims)


def _reference_parse_index(s: SExpr) -> IndexExpr:
    if isinstance(s, SAtom):
        if _reference_is_nat(s.text):
            return NatLit(int(s.text), loc=s.loc)
        if _REFERENCE_NUMBER_RE.match(s.text):
            raise ParseError(f"index literals must be naturals: {s.text}", s.loc)
        return IdxVar(s.text, loc=s.loc)
    if not s.items:
        raise ParseError("empty index form", s.loc)
    head = s.items[0]
    if isinstance(head, SAtom):
        if head.text == "Shp":
            return ShapeLit(tuple(_reference_parse_index(x) for x in s.items[1:]), loc=s.loc)
        if head.text == "+":
            return Plus(tuple(_reference_parse_index(x) for x in s.items[1:]), loc=s.loc)
        if head.text == "++":
            return IdxAppend(tuple(_reference_parse_index(x) for x in s.items[1:]), loc=s.loc)
    raise ParseError("unknown index form", s.loc)


def _reference_parse_kind(s: SExpr) -> Kind:
    if isinstance(s, SAtom) and s.text in ("Atom", "Array"):
        return Kind.ATOM if s.text == "Atom" else Kind.ARRAY
    raise ParseError("expected a kind (Atom or Array)", s.loc)


def _reference_parse_sort(s: SExpr) -> Sort:
    if isinstance(s, SAtom) and s.text in ("Dim", "Shape"):
        return Sort.DIM if s.text == "Dim" else Sort.SHAPE
    raise ParseError("expected a sort (Dim or Shape)", s.loc)


def _reference_parse_type(s: SExpr) -> TypeExpr:
    if isinstance(s, SAtom):
        if s.text in BASE_TYPE_NAMES:
            return BaseType(s.text, loc=s.loc)
        if _REFERENCE_NUMBER_RE.match(s.text):
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
        return ArrType(_reference_parse_type(rest[0]), _reference_parse_index(rest[1]), loc=s.loc)
    if kw == "->":
        if len(rest) != 2 or not isinstance(rest[0], SList):
            raise ParseError("-> takes an input type list and an output type", s.loc)
        return FunType(
            tuple(_reference_parse_type(x) for x in rest[0].items),
            _reference_parse_type(rest[1]),
            loc=s.loc,
        )
    if kw in _REFERENCE_QUANTIFIERS:
        if len(rest) != 2 or not isinstance(rest[0], SList):
            raise ParseError(f"{kw} takes a binder list and a body", s.loc)
        binders = _reference_binder_list(rest[0], _reference_parse_kind if kw == "Forall" else _reference_parse_sort)
        return _REFERENCE_QUANTIFIERS[kw](binders, _reference_parse_type(rest[1]), loc=s.loc)
    raise ParseError(f"unknown type keyword: {kw}", s.loc)


_REFERENCE_QUANTIFIERS = {"Forall": ForallType, "Pi": PiType, "Sigma": SigmaType}


def _reference_binder_list(s: SList, parse, what: str = "binder") -> tuple:
    """The `(name thing)` pairs of a binder or parameter list."""
    out = []
    for b in s.items:
        if not isinstance(b, SList) or len(b.items) != 2 or not isinstance(b.items[0], SAtom):
            raise ParseError(f"malformed {what}", b.loc)
        out.append((b.items[0].text, parse(b.items[1])))
    return tuple(out)


def _reference_parse_atom(s: SExpr) -> AtomTerm:
    if isinstance(s, SAtom):
        t = s.text
        if _REFERENCE_NUMBER_RE.match(t):
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
    items, annot_s = _reference_split_annotation(s.items)
    rest = items[1:]
    annot = _reference_parse_type(annot_s) if annot_s is not None else None
    if kw in ("lam", "tlam", "ilam"):
        if len(rest) != 2 or not isinstance(rest[0], SList):
            raise ParseError(f"{kw} takes a binder list and a body", s.loc)
        body = _reference_parse_expr(rest[1])
        if kw == "lam":
            return Lam(_reference_binder_list(rest[0], _reference_parse_type, "parameter"), body, annot=annot, loc=s.loc)
        if kw == "tlam":
            return TLam(_reference_binder_list(rest[0], _reference_parse_kind), body, annot=annot, loc=s.loc)
        return ILam(_reference_binder_list(rest[0], _reference_parse_sort), body, annot=annot, loc=s.loc)
    if kw == "box":
        if len(rest) < 2:
            raise ParseError("box takes indices, a payload, and a type", s.loc)
        indices = tuple(_reference_parse_index(x) for x in rest[:-2])
        payload = _reference_parse_expr(rest[-2])
        box_type = _reference_parse_type(rest[-1])
        return Box(indices, payload, box_type, annot=annot, loc=s.loc)
    raise ParseError(f"not an atom form: {kw}", s.loc)


def _reference_parse_expr(s: SExpr) -> ExprTerm:
    if isinstance(s, SAtom):
        t = s.text
        if _REFERENCE_NUMBER_RE.match(t) or t.startswith("#"):
            raise ParseError(
                f"bare atom in expression position (wrap it in an array literal): {t}",
                s.loc,
            )
        if t in KEYWORDS:
            raise ParseError(f"reserved word in expression position: {t}", s.loc)
        return Var(t, loc=s.loc)
    items, annot_s = _reference_split_annotation(s.items)
    if not items:  # `()`, or `(: type)` with nothing to annotate
        raise ParseError("empty application", s.loc)
    annot = _reference_parse_type(annot_s) if annot_s is not None else None
    head = items[0]
    if isinstance(head, SAtom) and head.text in KEYWORDS:
        kw = head.text
        rest = items[1:]
        if kw == "array":
            if not rest:
                raise ParseError("array needs a dimension list", s.loc)
            dims = _reference_parse_dims(rest[0])
            atoms = tuple(_reference_parse_atom(x) for x in rest[1:])
            return ArrayLit(dims, atoms, annot=annot, loc=s.loc)
        if kw == "frame":
            if not rest:
                raise ParseError("frame needs a dimension list", s.loc)
            dims = _reference_parse_dims(rest[0])
            cells = tuple(_reference_parse_expr(x) for x in rest[1:])
            return Frame(dims, cells, annot=annot, loc=s.loc)
        if kw == "empty-array":
            if len(rest) != 2:
                raise ParseError("empty-array takes an atom type and dimensions", s.loc)
            return EmptyArray(_reference_parse_type(rest[0]), _reference_parse_dims(rest[1]), annot=annot, loc=s.loc)
        if kw == "empty-frame":
            if len(rest) != 2:
                raise ParseError("empty-frame takes a cell type and dimensions", s.loc)
            return EmptyFrame(_reference_parse_type(rest[0]), _reference_parse_dims(rest[1]), annot=annot, loc=s.loc)
        if kw == "t-app":
            if not rest:
                raise ParseError("t-app needs a function expression", s.loc)
            return TApp(
                _reference_parse_expr(rest[0]),
                tuple(_reference_parse_type(x) for x in rest[1:]),
                annot=annot,
                loc=s.loc,
            )
        if kw == "i-app":
            if not rest:
                raise ParseError("i-app needs a function expression", s.loc)
            return IApp(
                _reference_parse_expr(rest[0]),
                tuple(_reference_parse_index(x) for x in rest[1:]),
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
            box = _reference_parse_expr(binding[-1])
            body = _reference_parse_expr(rest[1])
            return Unbox(idx_vars, val_var, box, body, annot=annot, loc=s.loc)
        raise ParseError(f"'{kw}' cannot appear here", s.loc)
    fn = _reference_parse_expr(head)
    args = tuple(_reference_parse_expr(x) for x in items[1:])
    return App(fn, args, annot=annot, loc=s.loc)


def reference_parse_term(text: str, filename: str = "<string>") -> ExprTerm:
    return _reference_parse_expr(_read(text, filename))


def reference_parse_type(text: str, filename: str = "<string>") -> TypeExpr:
    return _reference_parse_type(_read(text, filename))


def reference_parse_index(text: str, filename: str = "<string>") -> IndexExpr:
    return _reference_parse_index(_read(text, filename))


# ---------------------------------------------------------------------------
# The printers as they were written first, one hand-written ladder per
# language, recursing once per level: the oracle of `printer`'s one loop,
# which must print every term, type and index byte for byte as they do.

_REFERENCE_CHAR_SPELLINGS = {c: name for name, c in CHAR_NAMES.items()}


def reference_print_base(base: str, v) -> str:
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
    return "#\\" + _REFERENCE_CHAR_SPELLINGS.get(v, v)


def reference_print_index(i: IndexExpr, canonical: bool = False) -> str:
    if canonical:
        return reference_print_index(normalize_index(i))
    if isinstance(i, NatLit):
        return str(i.value)
    if isinstance(i, IdxVar):
        return i.name
    if isinstance(i, Plus):
        return "(+ " + " ".join(reference_print_index(o) for o in i.operands) + ")"
    if isinstance(i, ShapeLit):
        if not i.dims:
            return "(Shp)"
        return "(Shp " + " ".join(reference_print_index(o) for o in i.dims) + ")"
    if isinstance(i, IdxAppend):
        return "(++ " + " ".join(reference_print_index(o) for o in i.operands) + ")"
    raise TypeError(i)


def _reference_binders(binders) -> str:
    return "(" + " ".join(f"({x} {b})" for x, b in binders) + ")"


def reference_print_type(t: TypeExpr, canonical: bool = False) -> str:
    if isinstance(t, (BaseType, TyVar)):
        return t.name
    if isinstance(t, FunType):
        ins = " ".join(reference_print_type(x, canonical) for x in t.inputs)
        return f"(-> ({ins}) {reference_print_type(t.output, canonical)})"
    if isinstance(t, ArrType):
        return f"(Arr {reference_print_type(t.elem, canonical)} {reference_print_index(t.shape, canonical)})"
    for cls, word in ((ForallType, "Forall"), (PiType, "Pi"), (SigmaType, "Sigma")):
        if isinstance(t, cls):
            return f"({word} {_reference_binders(t.binders)} {reference_print_type(t.body, canonical)})"
    raise TypeError(t)


def _dims(dims) -> str:
    return "(" + " ".join(str(d) for d in dims) + ")"


def reference_print_term(t, annotations: bool = False, canonical: bool = False) -> str:
    def ann(node, body: str, force: bool = False) -> str:
        if node.annot is not None and (annotations or force):
            return f"{body} : {reference_print_type(node.annot, canonical)}"
        return body

    def go(t) -> str:
        if isinstance(t, BaseVal):
            return reference_print_base(t.base, t.value)
        if isinstance(t, (PrimOp, Var)):
            return t.name
        if isinstance(t, Lam):
            params = " ".join(f"({x} {reference_print_type(ty, canonical)})" for x, ty in t.params)
            return "(" + ann(t, f"lam ({params}) {go(t.body)}") + ")"
        if isinstance(t, TLam):
            return "(" + ann(t, f"tlam {_reference_binders(t.binders)} {go(t.body)}") + ")"
        if isinstance(t, ILam):
            return "(" + ann(t, f"ilam {_reference_binders(t.binders)} {go(t.body)}") + ")"
        if isinstance(t, Box):
            idxs = " ".join(reference_print_index(i, canonical) for i in t.indices)
            idxs = idxs + " " if idxs else ""
            return "(" + ann(t, f"box {idxs}{go(t.payload)} {reference_print_type(t.box_type, canonical)}") + ")"
        if isinstance(t, ArrayLit):
            parts = " ".join(go(a) for a in t.atoms)
            body = f"array {_dims(t.dims)}" + (f" {parts}" if parts else "")
            return "(" + ann(t, body, force=not t.atoms) + ")"
        if isinstance(t, Frame):
            parts = " ".join(go(c) for c in t.cells)
            body = f"frame {_dims(t.dims)}" + (f" {parts}" if parts else "")
            return "(" + ann(t, body, force=not t.cells) + ")"
        if isinstance(t, EmptyArray):
            return "(" + ann(t, f"empty-array {reference_print_type(t.elem_type, canonical)} {_dims(t.dims)}") + ")"
        if isinstance(t, EmptyFrame):
            return "(" + ann(t, f"empty-frame {reference_print_type(t.cell_type, canonical)} {_dims(t.dims)}") + ")"
        if isinstance(t, App):
            parts = " ".join(go(a) for a in t.args)
            return "(" + ann(t, go(t.fn) + (f" {parts}" if parts else "")) + ")"
        if isinstance(t, TApp):
            parts = " ".join(reference_print_type(x, canonical) for x in t.type_args)
            return "(" + ann(t, f"t-app {go(t.fn)}" + (f" {parts}" if parts else "")) + ")"
        if isinstance(t, IApp):
            parts = " ".join(reference_print_index(i, canonical) for i in t.idx_args)
            return "(" + ann(t, f"i-app {go(t.fn)}" + (f" {parts}" if parts else "")) + ")"
        if isinstance(t, Unbox):
            names = " ".join(t.idx_vars + (t.val_var,))
            return "(" + ann(t, f"unbox ({names} {go(t.box)}) {go(t.body)}") + ")"
        raise TypeError(t)

    return go(t)


def reference_print_erased(t) -> str:
    go = reference_print_erased
    if isinstance(t, EBase):
        return reference_print_base(t.base, t.value)
    if isinstance(t, (EOp, EVar)):
        return t.name
    if isinstance(t, ELam):
        return f"(lam ({' '.join(t.params)}) {go(t.body)})"
    if isinstance(t, EILam):
        return f"(ilam ({' '.join(t.params)}) {go(t.body)})"
    if isinstance(t, EBox):
        idxs = " ".join(reference_print_index(i) for i in t.indices)
        return f"(box {idxs}{' ' if idxs else ''}{go(t.payload)})"
    if isinstance(t, EArray):
        atoms = " ".join(go(a) for a in t.atoms)
        return f"(array {_dims(t.dims)}{' ' if atoms else ''}{atoms})"
    if isinstance(t, EFrame):
        cells = " ".join(go(c) for c in t.cells)
        return f"(frame {reference_print_index(t.shape)}{' ' if cells else ''}{cells})"
    if isinstance(t, EApp):
        args = " ".join(f"({go(a)} : {reference_print_index(s)})" for a, s in zip(t.args, t.arg_shapes))
        return f"({go(t.fn)}{' ' if args else ''}{args} : {reference_print_index(t.out_shape)})"
    if isinstance(t, EIApp):
        idxs = " ".join(reference_print_index(i) for i in t.idx_args)
        return f"(i-app {go(t.fn)}{' ' if idxs else ''}{idxs} : {reference_print_index(t.out_shape)})"
    if isinstance(t, EUnbox):
        names = " ".join(t.idx_vars + (t.val_var,))
        return f"(unbox ({names} {go(t.box)}) {go(t.body)} : {reference_print_index(t.body_shape)})"
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Inputs of the machine oracle tests (refocused drivers against their spec)

PROGRAMS_DIR = pathlib.Path(__file__).resolve().parent.parent / "programs"


def reduce_source(n: int) -> str:
    """`reduce +` over `iota/s n`: a right fold that is an App chain n deep."""
    return (
        f"((t-app (i-app (array () reduce) {n - 1} (Shp)) Num) (array () +)"
        f" ((i-app (array () iota/s) (Shp {n}))))"
    )


def family_source(family: str, n: int) -> str:
    if family == "lift":
        vec = f"(array ({n}) {' '.join(str(i % 97) for i in range(n))})"
        return f"((array () +) {vec} {vec})"
    if family == "reduce":
        return reduce_source(n)
    src = "(array () 7)"
    for _ in range(n):
        src = f"(frame () {src})"
    return src


_FAMILY_GROUPS = {
    "lift100": ("lift", 100),
    "lift400": ("lift", 400),
    "reduce100": ("reduce", 100),
    "reduce300": ("reduce", 300),
    "frame100": ("frame", 100),
}
ORACLE_GROUPS = ("batch", "corpus", *_FAMILY_GROUPS)


@functools.lru_cache(maxsize=None)
def oracle_programs(group: str) -> tuple:
    """Elaborated programs of one group: the first 100 of the acceptance batch
    (seed 2024), the `programs/` corpus, or one size-family member."""
    if group == "batch":
        # Each program has its own seed, so this is the batch's prefix.
        sources = generate_programs(100, seed=2024, config=GenConfig(stuck_rate=0.05))
        return tuple(elaborate(EMPTY_ENV, SIGNATURE, p)[0] for p in sources)
    if group == "corpus":
        paths = sorted(PROGRAMS_DIR.glob("*.remora"))
        return tuple(check_src(p.read_text(encoding="utf-8"))[0] for p in paths)
    return (check_src(family_source(*_FAMILY_GROUPS[group]))[0],)


# ---------------------------------------------------------------------------
# The specs as they were written first, recursing once per level of the
# spine: the oracle of the loops that replaced them (`eval.step` and
# `erase.erased_step`), which must give the same result at every step.

def recursive_is_value_atom(a: AtomTerm) -> bool:
    if isinstance(a, (BaseVal, PrimOp, Lam, TLam, ILam)):
        return True
    if isinstance(a, Box):
        return recursive_is_value(a.payload)
    return False


def recursive_is_value(e: ExprTerm) -> bool:
    return isinstance(e, ArrayLit) and all(recursive_is_value_atom(a) for a in e.atoms)


def recursive_step(e: ExprTerm) -> StepResult:
    """One reduction step of a closed, elaborated expression."""
    if isinstance(e, Var):
        return Stuck("internal", detail=f"free variable {e.name}")

    if isinstance(e, ArrayLit):
        for i, a in enumerate(e.atoms):
            if recursive_is_value_atom(a):
                continue
            if not isinstance(a, Box):
                return Stuck("internal", detail="non-value atom that is not a box")
            r = recursive_step(a.payload)
            if isinstance(r, Stepped):
                new_atom = replace(a, payload=r.term)
                atoms = e.atoms[:i] + (new_atom,) + e.atoms[i + 1 :]
                return Stepped(replace(e, atoms=atoms), r.rule)
            return r
        return _VALUE

    if isinstance(e, Frame):
        for i, c in enumerate(e.cells):
            if recursive_is_value(c):
                continue
            r = recursive_step(c)
            if isinstance(r, Stepped):
                cells = e.cells[:i] + (r.term,) + e.cells[i + 1 :]
                return Stepped(replace(e, cells=cells), r.rule)
            return r
        return _collapse(e)

    if isinstance(e, (EmptyArray, EmptyFrame)):
        return Stuck("internal", detail="empty forms must be elaborated away")

    if isinstance(e, App):
        if not recursive_is_value(e.fn):
            r = recursive_step(e.fn)
            if isinstance(r, Stepped):
                return Stepped(replace(e, fn=r.term), r.rule)
            return r
        for i, a in enumerate(e.args):
            if recursive_is_value(a):
                continue
            r = recursive_step(a)
            if isinstance(r, Stepped):
                args = e.args[:i] + (r.term,) + e.args[i + 1 :]
                return Stepped(replace(e, args=args), r.rule)
            return r
        return _apply(e)

    if isinstance(e, (TApp, IApp)):
        if not recursive_is_value(e.fn):
            r = recursive_step(e.fn)
            if isinstance(r, Stepped):
                return Stepped(replace(e, fn=r.term), r.rule)
            return r
        return _CONTRACT[type(e)](e)

    if isinstance(e, Unbox):
        if not recursive_is_value(e.box):
            r = recursive_step(e.box)
            if isinstance(r, Stepped):
                return Stepped(replace(e, box=r.term), r.rule)
            return r
        return _unbox(e)

    raise TypeError(e)


def recursive_is_evalue_atom(a: EAtom) -> bool:
    if isinstance(a, (EBase, EOp, ELam, EILam)):
        return True
    if isinstance(a, EBox):
        return recursive_is_evalue(a.payload)
    return False


def recursive_is_evalue(e: EExpr) -> bool:
    return isinstance(e, EArray) and all(recursive_is_evalue_atom(a) for a in e.atoms)


def recursive_erased_step(e: EExpr) -> Union[Stepped, AlreadyValue, Stuck]:
    if isinstance(e, EVar):
        return Stuck("internal", detail=f"free variable {e.name}")

    if isinstance(e, EArray):
        for i, a in enumerate(e.atoms):
            if recursive_is_evalue_atom(a):
                continue
            if not isinstance(a, EBox):
                return Stuck("internal", detail="non-value atom that is not a box")
            r = recursive_erased_step(a.payload)
            if isinstance(r, Stepped):
                atoms = e.atoms[:i] + (replace(a, payload=r.term),) + e.atoms[i + 1 :]
                return Stepped(replace(e, atoms=atoms), r.rule)
            return r
        return AlreadyValue()

    if isinstance(e, EFrame):
        for i, c in enumerate(e.cells):
            if recursive_is_evalue(c):
                continue
            r = recursive_erased_step(c)
            if isinstance(r, Stepped):
                cells = e.cells[:i] + (r.term,) + e.cells[i + 1 :]
                return Stepped(replace(e, cells=cells), r.rule)
            return r
        dims = concrete_dims(e.shape)
        atoms = tuple(a for c in e.cells for a in c.atoms)  # type: ignore[union-attr]
        return Stepped(EArray(dims, atoms), "collapse")

    if isinstance(e, EApp):
        if not recursive_is_evalue(e.fn):
            r = recursive_erased_step(e.fn)
            if isinstance(r, Stepped):
                return Stepped(replace(e, fn=r.term), r.rule)
            return r
        for i, a in enumerate(e.args):
            if recursive_is_evalue(a):
                continue
            r = recursive_erased_step(a)
            if isinstance(r, Stepped):
                args = e.args[:i] + (r.term,) + e.args[i + 1 :]
                return Stepped(replace(e, args=args), r.rule)
            return r
        return _eapply(e)

    if isinstance(e, EIApp):
        if not recursive_is_evalue(e.fn):
            r = recursive_erased_step(e.fn)
            if isinstance(r, Stepped):
                return Stepped(replace(e, fn=r.term), r.rule)
            return r
        return _eibeta(e)

    if isinstance(e, EUnbox):
        if not recursive_is_evalue(e.box):
            r = recursive_erased_step(e.box)
            if isinstance(r, Stepped):
                return Stepped(replace(e, box=r.term), r.rule)
            return r
        return _eunbox(e)

    raise TypeError(e)


def steps_to_reduce_delta(machine) -> int:
    """Step `machine` (typed or erased) until it has fired the delta of the
    `reduce` operator, which builds an App chain as deep as the vector it
    folds; the number of steps taken."""
    k = 0
    while True:
        assert machine.refocus() is None
        redex = machine.focus
        r = machine.contract()
        k += 1
        if r.rule == "delta" and redex.fn.atoms[0].name == "reduce":
            return k


def assert_same_steps(t, spec, reference) -> int:
    """Step t to the end with `spec`, checking each result against
    `reference` on the same state: the same class, rule, term (`==`) and
    stuck fields. Fresh names come from a global counter, so both start each
    step from the same count. Returns the number of steps."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(4 * limit)  # `==` and the reference recurse per level
    try:
        n = 0
        while True:
            start = next(remora.names._GENSYM)
            remora.names._GENSYM = itertools.count(start)
            want = reference(t)
            remora.names._GENSYM = itertools.count(start)
            got = spec(t)
            assert type(got) is type(want), (n, got, want)
            if type(got) is not Stepped:
                if type(got) is Stuck:
                    assert got == want, (n, got, want)
                return n
            assert got.rule == want.rule and got.term == want.term, (n, got.rule, want.rule)
            t, n = got.term, n + 1
    finally:
        sys.setrecursionlimit(limit)


# ---------------------------------------------------------------------------
# Erasure as it was first written, one case per typed class, recursing once
# per level: the oracle of `erase._erase`, which derives it from one table.


def reference_erase_term(t, memo: Optional[dict] = None):
    """With `memo`, a dict, each node's erasure is kept by the node's identity
    (with the node, so that the identity is not reused), and a node met again,
    as in the next state of a run, is not erased again."""
    if memo is not None and id(t) in memo:
        return memo[id(t)][1]
    if isinstance(t, BaseVal):
        e = EBase(t.base, t.value)
    elif isinstance(t, PrimOp):
        e = EOp(t.name)
    elif isinstance(t, Lam):
        e = ELam(tuple([x for x, _ in t.params]), reference_erase_term(t.body, memo))
    elif isinstance(t, (TLam, ILam)):
        e = EILam(tuple([x for x, _ in t.binders]), reference_erase_term(t.body, memo))
    elif isinstance(t, Box):
        e = EBox(tuple([normalize_tag(i) for i in t.indices]), reference_erase_term(t.payload, memo))
    elif isinstance(t, Var):
        e = EVar(t.name)
    elif isinstance(t, ArrayLit):
        e = EArray(t.dims, tuple([
            EBase(a.base, a.value) if type(a) is BaseVal else reference_erase_term(a, memo) for a in t.atoms
        ]))
    elif isinstance(t, Frame):
        if t.annot is None:
            raise ValueError("erasure requires an elaborated term (frame)")
        e = EFrame(erase_type(t.annot), tuple([reference_erase_term(c, memo) for c in t.cells]))
    elif isinstance(t, App):
        fn_annot = t.fn.annot
        if t.annot is None or fn_annot is None or not isinstance(fn_annot, ArrType):
            raise ValueError("erasure requires an elaborated term (application)")
        fun = fn_annot.elem
        if not isinstance(fun, FunType):
            raise ValueError("application head is not function-typed")
        e = EApp(
            reference_erase_term(t.fn, memo),
            tuple([reference_erase_term(a, memo) for a in t.args]),
            tuple([erase_type(i) for i in fun.inputs]),
            erase_type(t.annot),
        )
    elif isinstance(t, TApp):
        if t.annot is None:
            raise ValueError("erasure requires an elaborated term (t-app)")
        e = EIApp(
            reference_erase_term(t.fn, memo),
            tuple([normalize_tag(erase_type(x)) for x in t.type_args]),
            erase_type(t.annot),
        )
    elif isinstance(t, IApp):
        if t.annot is None:
            raise ValueError("erasure requires an elaborated term (i-app)")
        e = EIApp(reference_erase_term(t.fn, memo), tuple([normalize_tag(i) for i in t.idx_args]), erase_type(t.annot))
    elif isinstance(t, Unbox):
        if t.body.annot is None:
            raise ValueError("erasure requires an elaborated term (unbox)")
        e = EUnbox(
            t.idx_vars,
            t.val_var,
            reference_erase_term(t.box, memo),
            reference_erase_term(t.body, memo),
            erase_type(t.body.annot),
        )
    else:
        raise TypeError(t)
    if memo is not None:
        memo[id(t)] = (t, e)
    return e


# ---------------------------------------------------------------------------
# Reference alpha-equality of erased terms: freshen every binder to a name
# given by its position in a whole-term walk, respell every tag canonically,
# then compare the whole terms with `==`. The incremental comparer of the
# lockstep harness is checked against it.


class _EFreshener:
    def __init__(self) -> None:
        self._n = 0

    def fresh(self, name: str) -> str:
        # positional names only: (lam (x) x) and (lam (y) y) must align
        self._n += 1
        return f"#a{self._n}"

    def idx(self, i: IndexExpr, ix: dict) -> IndexExpr:
        return subst_idx(i, {k: IdxVar(v) for k, v in ix.items()})

    def term(self, t, ix: dict, tm: dict):
        if isinstance(t, (EBase, EOp)):
            return t
        if isinstance(t, EVar):
            return EVar(tm.get(t.name, t.name))
        if isinstance(t, ELam):
            tm2 = dict(tm)
            params = []
            for x in t.params:
                x2 = self.fresh(x)
                tm2[x] = x2
                params.append(x2)
            return ELam(tuple(params), self.term(t.body, ix, tm2))
        if isinstance(t, EILam):
            ix2 = dict(ix)
            params = []
            for x in t.params:
                x2 = self.fresh(x)
                ix2[x] = x2
                params.append(x2)
            return EILam(tuple(params), self.term(t.body, ix2, tm))
        if isinstance(t, EBox):
            return EBox(
                tuple(self.idx(i, ix) for i in t.indices),
                self.term(t.payload, ix, tm),
            )
        if isinstance(t, EArray):
            return replace(t, atoms=tuple(self.term(a, ix, tm) for a in t.atoms))
        if isinstance(t, EFrame):
            return EFrame(
                self.idx(t.shape, ix), tuple(self.term(c, ix, tm) for c in t.cells)
            )
        if isinstance(t, EApp):
            return EApp(
                self.term(t.fn, ix, tm),
                tuple(self.term(a, ix, tm) for a in t.args),
                tuple(self.idx(i, ix) for i in t.arg_shapes),
                self.idx(t.out_shape, ix),
            )
        if isinstance(t, EIApp):
            return EIApp(
                self.term(t.fn, ix, tm),
                tuple(self.idx(i, ix) for i in t.idx_args),
                self.idx(t.out_shape, ix),
            )
        if isinstance(t, EUnbox):
            box = self.term(t.box, ix, tm)
            ix2 = dict(ix)
            idx_vars = []
            for x in t.idx_vars:
                x2 = self.fresh(x)
                ix2[x] = x2
                idx_vars.append(x2)
            tm2 = dict(tm)
            v2 = self.fresh(t.val_var)
            tm2[t.val_var] = v2
            return EUnbox(
                tuple(idx_vars),
                v2,
                box,
                self.term(t.body, ix2, tm2),
                self.idx(t.body_shape, ix),
            )
        raise TypeError(t)


def efreshen(t):
    return _EFreshener().term(t, {}, {})


def normalize_tags(t):
    """Respell every residual index canonically."""
    norm = normalize_index
    if isinstance(t, (EBase, EOp, EVar)):
        return t
    if isinstance(t, (ELam, EILam)):
        return replace(t, body=normalize_tags(t.body))
    if isinstance(t, EBox):
        return EBox(tuple(norm(i) for i in t.indices), normalize_tags(t.payload))
    if isinstance(t, EArray):
        return replace(t, atoms=tuple(normalize_tags(a) for a in t.atoms))
    if isinstance(t, EFrame):
        return EFrame(norm(t.shape), tuple(normalize_tags(c) for c in t.cells))
    if isinstance(t, EApp):
        return EApp(
            normalize_tags(t.fn),
            tuple(normalize_tags(a) for a in t.args),
            tuple(norm(i) for i in t.arg_shapes),
            norm(t.out_shape),
        )
    if isinstance(t, EIApp):
        return EIApp(
            normalize_tags(t.fn),
            tuple(norm(i) for i in t.idx_args),
            norm(t.out_shape),
        )
    if isinstance(t, EUnbox):
        return EUnbox(
            t.idx_vars,
            t.val_var,
            normalize_tags(t.box),
            normalize_tags(t.body),
            norm(t.body_shape),
        )
    raise TypeError(t)


def reference_form(t):
    return normalize_tags(efreshen(t))


def reference_erased_alpha_equal(a, b) -> bool:
    return reference_form(a) == reference_form(b)


# ---------------------------------------------------------------------------
# Reference alpha-equivalence of typed terms: two terms walked in pairs,
# recursively, each bound variable named by its binder's (nesting level,
# position); independent of the canonical forms of `names.alpha_equal`.


def reference_alpha_equal(a, b) -> bool:
    """Structural equality up to the names of bound variables; annotations are
    compared too."""
    return _alpha(a, b, ({}, {}, {}), ({}, {}, {}), 0)


def _alpha(a, b, ea: tuple, eb: tuple, lvl: int) -> bool:
    cls = type(a)
    if cls is not type(b):
        return False
    data, kids, binders, scope = _SPLIT[cls]
    if any(getattr(a, f) != getattr(b, f) for f in data):
        return False
    if cls in LEAVES:
        # a bound variable is its binder's (level, position); a free one its name
        ns = LEAVES[cls]
        if ea[ns].get(a.name, a.name) != eb[ns].get(b.name, b.name):
            return False
    for f, shape, _, _ in kids:
        x, y = getattr(a, f), getattr(b, f)
        if shape != MANY:
            x, y = (() if x is None else (x,)), (() if y is None else (y,))
        if len(x) != len(y) or not all(_alpha(p, q, ea, eb, lvl) for p, q in zip(x, y)):
            return False
    if scope is None:
        return True
    ia, ib = list(ea), list(eb)
    k = 0
    for f, form, bns in binders:
        xs, ys = _unpack(getattr(a, f), form), _unpack(getattr(b, f), form)
        if len(xs) != len(ys):
            return False
        da = ia[bns] = dict(ia[bns])
        db = ib[bns] = dict(ib[bns])
        for (xa, sa), (xb, sb) in zip(xs, ys):
            if not (_alpha(sa, sb, ea, eb, lvl) if form == TYPED else sa == sb):
                return False
            da[xa] = db[xb] = (lvl, k)
            k += 1
    f = scope[0]
    return _alpha(getattr(a, f), getattr(b, f), tuple(ia), tuple(ib), lvl + 1)


def typed_sites(t) -> list:
    """(child path, node) for every term node of `t`, in pre-order; paths are
    spelled as in `BisimReport.mismatch_path`, for `rewrite_at`."""
    out, stack = [], [("", t)]
    while stack:
        path, x = stack.pop()
        out.append((path, x))
        stack += reversed([(f"{path}/{label}" if path else label, c) for label, c in term_children(x)])
    return out


def change_value(x):
    """A base literal with another value."""
    if not isinstance(x, BaseVal):
        return None
    if x.base == "Num":
        return replace(x, value=x.value + 1.0 if abs(x.value) < 1e300 else 0.0)
    return replace(x, value=not x.value) if x.base == "Bool" else replace(x, value=chr(ord(x.value) + 1))


def drop_annot(x):
    """The node without its annotation."""
    return None if x.annot is None else replace(x, annot=None)


def swap_binders(x):
    """A lam, tlam or ilam with its first two (distinct) binders' names
    swapped, each keeping its type, kind or sort."""
    field = "params" if isinstance(x, Lam) else "binders" if isinstance(x, (TLam, ILam)) else None
    pairs = getattr(x, field) if field else ()
    if len(pairs) < 2 or pairs[0][0] == pairs[1][0]:
        return None
    (a, s), (b, r) = pairs[:2]
    return replace(x, **{field: ((b, s), (a, r)) + pairs[2:]})


def rename_var(x):
    """A term variable renamed to a name bound nowhere."""
    return replace(x, name=x.name + "'") if isinstance(x, Var) else None


def rename_param(x):
    """A lam with its first parameter renamed throughout its body:
    alpha-equivalent to `x`."""
    if not isinstance(x, Lam) or not x.params:
        return None
    (old, ty), *rest = x.params
    return replace(x, params=((old + "'", ty), *rest), body=subst(x.body, TM, {old: old + "'"}))


TYPED_MUTATIONS = (change_value, drop_annot, swap_binders, rename_var, rename_param)


# ---------------------------------------------------------------------------
# Reference substitution on erased terms: hand-written over each erased node,
# independent of `names.SCHEMA`, for the derived `esubst_idx` / `esubst_term`
# and criterion 8 to be checked against. A renamed binder is `<base>#s<n>`.

_EGENSYM = itertools.count(1)


def _egensym(base: str) -> str:
    return f"{base_name(base)}#s{next(_EGENSYM)}"


def efree_term(t) -> set[str]:
    if isinstance(t, EVar):
        return {t.name}
    if isinstance(t, (EBase, EOp)):
        return set()
    if isinstance(t, ELam):
        return efree_term(t.body) - set(t.params)
    if isinstance(t, EILam):
        return efree_term(t.body)
    if isinstance(t, EBox):
        return efree_term(t.payload)
    if isinstance(t, EArray):
        return set().union(*(efree_term(a) for a in t.atoms), set())
    if isinstance(t, EFrame):
        return set().union(*(efree_term(c) for c in t.cells), set())
    if isinstance(t, EApp):
        return set().union(efree_term(t.fn), *(efree_term(a) for a in t.args))
    if isinstance(t, EIApp):
        return efree_term(t.fn)
    if isinstance(t, EUnbox):
        return efree_term(t.box) | (efree_term(t.body) - {t.val_var})
    raise TypeError(t)


def efree_idx(t) -> set[str]:
    if isinstance(t, (EBase, EOp, EVar)):
        return set()
    if isinstance(t, ELam):
        return efree_idx(t.body)
    if isinstance(t, EILam):
        return efree_idx(t.body) - set(t.params)
    if isinstance(t, EBox):
        return set().union(*(free_vars(i, IDX) for i in t.indices), efree_idx(t.payload))
    if isinstance(t, EArray):
        return set().union(*(efree_idx(a) for a in t.atoms), set())
    if isinstance(t, EFrame):
        return set().union(free_vars(t.shape, IDX), *(efree_idx(c) for c in t.cells))
    if isinstance(t, EApp):
        return set().union(
            efree_idx(t.fn),
            *(efree_idx(a) for a in t.args),
            *(free_vars(i, IDX) for i in t.arg_shapes),
            free_vars(t.out_shape, IDX),
        )
    if isinstance(t, EIApp):
        return set().union(
            efree_idx(t.fn), *(free_vars(i, IDX) for i in t.idx_args), free_vars(t.out_shape, IDX)
        )
    if isinstance(t, EUnbox):
        return efree_idx(t.box) | free_vars(t.body_shape, IDX) | (efree_idx(t.body) - set(t.idx_vars))
    raise TypeError(t)


def _subst_tag(i: IndexExpr, m) -> IndexExpr:
    return normalize_tag(subst_idx(i, m))


def reference_esubst_idx(t, m: dict):
    """Indices for index variables; every tag it visits comes out spelled
    canonically."""
    if not m:
        return t
    if isinstance(t, (EBase, EOp, EVar)):
        return t
    if isinstance(t, ELam):
        return replace(t, body=reference_esubst_idx(t.body, m))
    if isinstance(t, EILam):
        m2 = {k: v for k, v in m.items() if k not in t.params}
        if not m2:
            return t
        payload_free = set().union(*(free_vars(v, IDX) for v in m2.values()), set())
        params = []
        extra: dict = {}
        for x in t.params:
            if x in payload_free:
                x2 = _egensym(x)
                extra[x] = IdxVar(x2)
                params.append(x2)
            else:
                params.append(x)
        m3 = dict(m2, **extra) if extra else m2
        return EILam(tuple(params), reference_esubst_idx(t.body, m3))
    if isinstance(t, EBox):
        return EBox(tuple(_subst_tag(i, m) for i in t.indices), reference_esubst_idx(t.payload, m))
    if isinstance(t, EArray):
        return replace(t, atoms=tuple(reference_esubst_idx(a, m) for a in t.atoms))
    if isinstance(t, EFrame):
        return EFrame(_subst_tag(t.shape, m), tuple(reference_esubst_idx(c, m) for c in t.cells))
    if isinstance(t, EApp):
        return EApp(
            reference_esubst_idx(t.fn, m),
            tuple(reference_esubst_idx(a, m) for a in t.args),
            tuple(_subst_tag(i, m) for i in t.arg_shapes),
            _subst_tag(t.out_shape, m),
        )
    if isinstance(t, EIApp):
        return EIApp(
            reference_esubst_idx(t.fn, m),
            tuple(_subst_tag(i, m) for i in t.idx_args),
            _subst_tag(t.out_shape, m),
        )
    if isinstance(t, EUnbox):
        box = reference_esubst_idx(t.box, m)
        body_shape = _subst_tag(t.body_shape, m)
        m2 = {k: v for k, v in m.items() if k not in t.idx_vars}
        if not m2:
            return replace(t, box=box, body_shape=body_shape)
        payload_free = set().union(*(free_vars(v, IDX) for v in m2.values()), set())
        idx_vars = []
        extra = {}
        for x in t.idx_vars:
            if x in payload_free:
                x2 = _egensym(x)
                extra[x] = IdxVar(x2)
                idx_vars.append(x2)
            else:
                idx_vars.append(x)
        m3 = dict(m2, **extra) if extra else m2
        return EUnbox(tuple(idx_vars), t.val_var, box, reference_esubst_idx(t.body, m3), body_shape)
    raise TypeError(t)


def reference_esubst_term(t, m: dict):
    """Erased expressions for term variables."""
    if not m:
        return t
    if isinstance(t, EVar):
        return m.get(t.name, t)
    if isinstance(t, (EBase, EOp)):
        return t
    if isinstance(t, ELam):
        m2 = {k: v for k, v in m.items() if k not in t.params}
        if not m2:
            return t
        payload_free = set().union(*(efree_term(v) for v in m2.values()), set())
        params = []
        renames: dict = {}
        for x in t.params:
            if x in payload_free:
                x2 = _egensym(x)
                renames[x] = EVar(x2)
                params.append(x2)
            else:
                params.append(x)
        m3 = dict(m2, **renames) if renames else m2
        return ELam(tuple(params), reference_esubst_term(t.body, m3))
    if isinstance(t, EILam):
        payload_free = set().union(*(efree_idx(v) for v in m.values()), set())
        params = []
        extra: dict = {}
        for x in t.params:
            if x in payload_free:
                x2 = _egensym(x)
                extra[x] = IdxVar(x2)
                params.append(x2)
            else:
                params.append(x)
        body = t.body if not extra else reference_esubst_idx(t.body, extra)
        return EILam(tuple(params), reference_esubst_term(body, m))
    if isinstance(t, EBox):
        return replace(t, payload=reference_esubst_term(t.payload, m))
    if isinstance(t, EArray):
        return replace(t, atoms=tuple(reference_esubst_term(a, m) for a in t.atoms))
    if isinstance(t, EFrame):
        return replace(t, cells=tuple(reference_esubst_term(c, m) for c in t.cells))
    if isinstance(t, EApp):
        return replace(
            t, fn=reference_esubst_term(t.fn, m), args=tuple(reference_esubst_term(a, m) for a in t.args)
        )
    if isinstance(t, EIApp):
        return replace(t, fn=reference_esubst_term(t.fn, m))
    if isinstance(t, EUnbox):
        box = reference_esubst_term(t.box, m)
        m2 = {k: v for k, v in m.items() if k != t.val_var}
        if not m2:
            return replace(t, box=box)
        payload_free_tm = set().union(*(efree_term(v) for v in m2.values()), set())
        payload_free_ix = set().union(*(efree_idx(v) for v in m2.values()), set())
        idx_vars = []
        extra = {}
        for x in t.idx_vars:
            if x in payload_free_ix:
                x2 = _egensym(x)
                extra[x] = IdxVar(x2)
                idx_vars.append(x2)
            else:
                idx_vars.append(x)
        body = t.body if not extra else reference_esubst_idx(t.body, extra)
        val_var = t.val_var
        if val_var in payload_free_tm:
            v2 = _egensym(val_var)
            body = reference_esubst_term(body, {val_var: EVar(v2)})
            val_var = v2
        return EUnbox(tuple(idx_vars), val_var, box, reference_esubst_term(body, m2), t.body_shape)
    raise TypeError(t)


# Names of the random erased terms: dimension and shape variables (each name
# used at one sort only) and term variables, bound and free alike.
E_DIM_VARS, E_SHAPE_VARS, E_TERM_VARS = ("d", "e"), ("s", "t"), ("x", "y", "z")


def random_erased_tag(rng: random.Random, dim: bool = False) -> IndexExpr:
    """A well-sorted index over `E_DIM_VARS` and `E_SHAPE_VARS`, often spelled
    non-canonically: a dimension, or a shape."""
    if dim:
        return random_dim(rng, E_DIM_VARS, 2)
    return random_shape(rng, E_DIM_VARS, E_SHAPE_VARS, 2)


def _random_idx_args(rng: random.Random) -> tuple:
    """Zero to two indices, each of the sort of a random index variable."""
    names = rng.sample(E_DIM_VARS + E_SHAPE_VARS, rng.randint(0, 2))
    return tuple(random_erased_tag(rng, x in E_DIM_VARS) for x in names)


def random_erased_expr(rng: random.Random, depth: int = 3):
    """A random erased expression: not well-typed, but with well-sorted tags,
    and with binders whose names also occur free."""
    sub = lambda: random_erased_expr(rng, depth - 1)  # noqa: E731
    roll = rng.random()
    if depth <= 0 or roll < 0.15:
        return EVar(rng.choice(E_TERM_VARS))
    if roll < 0.45:
        atoms = tuple(random_erased_atom(rng, depth - 1) for _ in range(rng.randint(0, 3)))
        return EArray((len(atoms),), atoms)
    if roll < 0.55:
        return EFrame(random_erased_tag(rng), tuple(sub() for _ in range(rng.randint(0, 2))))
    if roll < 0.75:
        args = tuple(sub() for _ in range(rng.randint(0, 2)))
        return EApp(sub(), args, tuple(random_erased_tag(rng) for _ in args), random_erased_tag(rng))
    if roll < 0.85:
        return EIApp(sub(), _random_idx_args(rng), random_erased_tag(rng))
    idx_vars = tuple(rng.sample(E_DIM_VARS + E_SHAPE_VARS, rng.randint(0, 2)))
    return EUnbox(idx_vars, rng.choice(E_TERM_VARS), sub(), sub(), random_erased_tag(rng))


def random_erased_atom(rng: random.Random, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return rng.choice((EBase("Num", float(rng.randint(0, 9))), EOp("+")))
    body = random_erased_expr(rng, depth - 1)
    if roll < 0.55:
        return ELam(tuple(rng.sample(E_TERM_VARS, rng.randint(1, 2))), body)
    if roll < 0.8:
        return EILam(tuple(rng.sample(E_DIM_VARS + E_SHAPE_VARS, rng.randint(1, 2))), body)
    return EBox(_random_idx_args(rng), body)


_TAG_FIELDS = {
    EFrame: ("shape",), EApp: ("arg_shapes", "out_shape"), EIApp: ("idx_args", "out_shape"),
    EBox: ("indices",), EUnbox: ("body_shape",),
}


def erased_tags(t) -> list:
    """Every residual tag of an erased term."""
    out = []
    for _, _, x in erased_sites(t):
        for f in _TAG_FIELDS.get(type(x), ()):
            v = getattr(x, f)
            out += v if isinstance(v, tuple) else [v]
    return out


# ---------------------------------------------------------------------------
# One-site rewrites of erased terms (mutations for the comparer tests)

_BINDERS = (ELam, EILam, EUnbox)
# Child fields in the order of the nodes' fields, with their path labels: a
# name, or a prefix that takes the child's index.
_CHILD_FIELDS = {"atoms": "atom", "cells": "cell", "fn": "fn", "args": "arg",
                 "box": "box", "body": "body", "payload": "payload"}
_FIELD_OF_PREFIX = {"atom": "atoms", "cell": "cells", "arg": "args"}


def erased_sites(e) -> list:
    """(child path, under a binder?, node) for every node of `e`, in pre-order;
    paths are spelled as in `BisimReport.mismatch_path`."""
    out = []
    stack = [(e, "", False)]
    while stack:
        x, path, under = stack.pop()
        out.append((path, under, x))
        kids = []
        for f in x._fields:
            label = _CHILD_FIELDS.get(f)
            if label is None:
                continue
            inner = under or (f == "body" and isinstance(x, _BINDERS))
            v = getattr(x, f)
            for i, y in enumerate(v) if isinstance(v, tuple) else ((None, v),):
                step = label if i is None else f"{label}{i}"
                kids.append((y, f"{path}/{step}" if path else step, inner))
        stack.extend(reversed(kids))
    return out


def rewrite_at(e, path: str, new):
    """`e` with the node at `path` replaced by `new`; every subtree off the
    path stays the same object."""
    if not path:
        return new
    label, _, rest = path.partition("/")
    prefix = label.rstrip("0123456789")
    field = _FIELD_OF_PREFIX.get(prefix, label)
    v = getattr(e, field)
    if field == label:
        return replace(e, **{field: rewrite_at(v, rest, new)})
    i = int(label[len(prefix):])
    return replace(e, **{field: v[:i] + (rewrite_at(v[i], rest, new),) + v[i + 1 :]})


def change_atom(x):
    """A base atom with another value."""
    if not isinstance(x, EBase):
        return None
    if x.base == "Num":
        return EBase("Num", x.value + 1.0 if abs(x.value) < 1e300 else 0.0)
    if x.base == "Bool":
        return EBase("Bool", not x.value)
    return EBase(x.base, chr(ord(x.value) + 1))


def _shape_tag_field(x):
    if isinstance(x, EFrame):
        return "shape"
    if isinstance(x, (EApp, EIApp)):
        return "out_shape"
    if isinstance(x, EUnbox):
        return "body_shape"
    return None


def reshape_tag(x):
    """The node with its result-shape tag one axis longer."""
    f = _shape_tag_field(x)
    if f is None:
        return None
    return replace(x, **{f: IdxAppend((getattr(x, f), ShapeLit((NatLit(7),))))})


def respell_tag(x):
    """The node with its result-shape tag spelled another way, same shape."""
    f = _shape_tag_field(x)
    if f is None:
        return None
    return replace(x, **{f: IdxAppend((ShapeLit(()), getattr(x, f)))})


def rename_index_binder(x):
    """An ilam or unbox with its first index variable renamed throughout its
    body: alpha-equivalent to `x`."""
    if isinstance(x, EILam) and x.params:
        old, body = x.params[0], x.body
        return EILam((old + "'",) + x.params[1:], esubst_idx(body, {old: IdxVar(old + "'")}))
    if isinstance(x, EUnbox) and x.idx_vars:
        old = x.idx_vars[0]
        body = esubst_idx(x.body, {old: IdxVar(old + "'")})
        return replace(x, idx_vars=(old + "'",) + x.idx_vars[1:], body=body)
    return None


def swap_params(x):
    """A lam or ilam with its first two (distinct) parameters swapped."""
    if not isinstance(x, (ELam, EILam)) or len(x.params) < 2 or x.params[0] == x.params[1]:
        return None
    return type(x)((x.params[1], x.params[0]) + x.params[2:], x.body)


# ---------------------------------------------------------------------------
# Planted divergence: an erased machine whose k-th step changes one site

# Two lams mapped over a vector: after the second step the second lam is
# still there, unchanged, next to binder-free atoms and tags.
TWO_LAMS_SOURCE = """((array (2) (lam ((x (Arr Num (Shp)))) ((array () +) x (array () 10)))
            (lam ((x (Arr Num (Shp)))) ((array () *) x (array () 3))))
 (array (2) 1 2))"""


def erased_hole_path(stack) -> str:
    """The child path from the root of an erased machine's term to its focus,
    spelled as in `BisimReport.mismatch_path`."""
    labels = []
    for h in stack:
        node, i = h.node, h.i
        if isinstance(node, EArray):
            labels += [f"atom{i}", "payload"]
        elif isinstance(node, EFrame):
            labels.append(f"cell{i}")
        elif isinstance(node, EApp):
            labels.append("fn" if i == -1 else f"arg{i}")
        else:
            labels.append("box" if isinstance(node, EUnbox) else "fn")
    return "/".join(labels)


def _due(n: int, k: int, every: bool) -> bool:
    return n % k == 0 if every else n == k


def plant_divergence(monkeypatch, k: int, choose, every: bool = False) -> dict:
    """Make the erased machine's k-th step (with `every`, each k-th step)
    rewrite one site of its whole next state, in the context or in the
    contractum: `choose(before, after, hole)` gives the site's path and new
    node, or None to leave the state as it is; `before` and `after` are the
    whole states around the step and `hole` the path to the contractum in
    `after`. The step plugs the state, rewrites the site, then re-seats the
    machine on the rewritten state with an empty context. The returned dict
    receives the path of the last site rewritten."""
    real = remora.erase.ErasedMachine.contract
    planted = {"path": None, "steps": 0}

    def contract(machine):
        n = planted["steps"] + 1
        due = _due(n, k, every)
        before = machine.term() if due else None
        r = real(machine)
        if not isinstance(r, Stepped):
            return r
        planted["steps"] = n
        after = machine.term() if due else None
        site = choose(before, after, erased_hole_path(machine.stack)) if due else None
        if site is None:
            return r
        planted["path"] = site[0]
        machine.focus = rewrite_at(after, *site)
        machine.stack.clear()
        return Stepped(machine.focus, r.rule)

    monkeypatch.setattr(remora.erase.ErasedMachine, "contract", contract)
    return planted


def reference_bisim(t, fuel: int = 10_000, trace: bool = False, plant=None) -> BisimReport:
    """The lockstep check as a whole-state comparison after every step: the
    spec steppers `step` and `erased_step` from the root, and a
    `LockstepComparer` over the whole states. `plant=(k, choose, every)`
    rewrites the erased state as `plant_divergence` does (`hole` is None)."""
    lockstep = LockstepComparer()
    typed = t
    erased = lockstep.erase(t)
    log = [] if trace else None

    def mismatch(n: int) -> BisimReport:
        return BisimReport(
            "mismatch", n, mismatch_step=n, typed_term=typed, erased_term=erased,
            trace=log, mismatch_path=lockstep.mismatch_path(typed, erased),
        )

    for n in range(fuel + 1):
        rt = typed_step(typed)
        re = erased_step(erased)
        if isinstance(rt, AlreadyValue):
            if isinstance(re, AlreadyValue) and lockstep.same(typed, erased):
                return BisimReport("both-value", n, trace=log)
            return mismatch(n)
        if isinstance(rt, Stuck):
            if isinstance(re, Stuck) and re.reason == rt.reason == "misapplied":
                return BisimReport("both-stuck", n, trace=log)
            return mismatch(n)
        if not isinstance(re, Stepped):
            return mismatch(n)
        if n == fuel:
            break
        typed = rt.term
        if plant is not None and _due(n + 1, plant[0], plant[2]):
            site = plant[1](erased, re.term, None)
            erased = re.term if site is None else rewrite_at(re.term, *site)
        else:
            erased = re.term
        if log is not None:
            log.append((rt.rule, re.rule))
        if not lockstep.same(typed, erased):
            return mismatch(n + 1)
    return BisimReport("diverged", fuel, trace=log)


def first_free_atom(before, after, hole):
    """The first base atom under no binder, with another value."""
    path, x = next(
        (p, x) for p, under, x in erased_sites(after) if not under and change_atom(x) is not None
    )
    return path, change_atom(x)


def first_free_tag(before, after, hole):
    """The first result-shape tag under no binder, one axis longer."""
    path, x = next(
        (p, x) for p, under, x in erased_sites(after) if not under and reshape_tag(x) is not None
    )
    return path, reshape_tag(x)


def atom_in_surviving_lam(before, after, hole):
    """The first base atom inside the body of a lam that the step kept."""
    kept = {id(x) for _, _, x in erased_sites(before)}
    lam_path, lam = next(
        (p, x) for p, under, x in erased_sites(after)
        if not under and isinstance(x, ELam) and id(x) in kept
    )
    sub, x = next((p, x) for p, _, x in erased_sites(lam) if p and change_atom(x) is not None)
    return f"{lam_path}/{sub}", change_atom(x)


def _join(*labels: str) -> str:
    return "/".join(filter(None, labels))


def _free_atom_site(e, prefix: str):
    """The first base atom under no binder in `e`, with another value, as a
    site below `prefix`; None if there is none."""
    for p, under, x in erased_sites(e):
        if not under and change_atom(x) is not None:
            return _join(prefix, p), change_atom(x)
    return None


def _hole_siblings(after, hole: str, right: bool) -> list:
    """(path, node) of the children beside the hole path in `after`, outermost
    level first: the frame cells right of it, or the values left of it (the
    earlier cells and args, and an app's fn)."""
    out = []
    node, here = after, ""
    for label in filter(None, hole.split("/")):
        prefix = label.rstrip("0123456789")
        if prefix in ("cell", "arg"):
            j = int(label[len(prefix):])
            kids = node.cells if prefix == "cell" else node.args
            if not right and prefix == "arg":
                out.append((_join(here, "fn"), node.fn))
            out += [
                (_join(here, f"{prefix}{i}"), x) for i, x in enumerate(kids)
                if (right and prefix == "cell" and i > j) or (not right and i < j)
            ]
        node = erased_subterm(node, label)
        here = _join(here, label)
    return out


def frame_cell_right_of_hole(before, after, hole):
    """The first base atom under no binder in a frame cell right of the hole."""
    return next(filter(None, (_free_atom_site(x, p) for p, x in _hole_siblings(after, hole, True))))


def value_left_of_hole(before, after, hole):
    """The first base atom under no binder in a value left of the hole."""
    return next(filter(None, (_free_atom_site(x, p) for p, x in _hole_siblings(after, hole, False))))
