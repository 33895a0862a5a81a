"""Abstract syntax shared by every stage: type indices, types, the two-layer
term language (atoms and array expressions), and the erased terms that type
erasure produces.

All nodes are immutable dataclasses. Typed term nodes carry an optional type
annotation slot (``annot``) which elaboration fills in on every node, and a
source location that never participates in equality. `Generations` is the
memo table the checker and the lockstep harness key on node identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union


class Sort(Enum):
    DIM = "Dim"
    SHAPE = "Shape"

    def __str__(self) -> str:
        return self.value


class Kind(Enum):
    ATOM = "Atom"
    ARRAY = "Array"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SourceLocation:
    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


def _loc_field():
    return field(default=None, compare=False, kw_only=True)


# ---------------------------------------------------------------------------
# Type indices


@dataclass(frozen=True)
class NatLit:
    value: int
    loc: Optional[SourceLocation] = _loc_field()


@dataclass(frozen=True)
class IdxVar:
    name: str
    loc: Optional[SourceLocation] = _loc_field()


@dataclass(frozen=True)
class Plus:
    operands: tuple[IndexExpr, ...]
    loc: Optional[SourceLocation] = _loc_field()


@dataclass(frozen=True)
class ShapeLit:
    """A literal sequence of dimensions, written (Shp d ...)."""

    dims: tuple[IndexExpr, ...]
    loc: Optional[SourceLocation] = _loc_field()


@dataclass(frozen=True)
class IdxAppend:
    """Shape concatenation, written (++ s ...)."""

    operands: tuple[IndexExpr, ...]
    loc: Optional[SourceLocation] = _loc_field()


IndexExpr = Union[NatLit, IdxVar, Plus, ShapeLit, IdxAppend]

SCALAR_SHAPE = ShapeLit(())


def shape_of_dims(dims: tuple[int, ...] | list[int]) -> ShapeLit:
    return ShapeLit(tuple(NatLit(n) for n in dims))


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class BaseType:
    name: str  # one of Num, Bool, Char
    loc: Optional[SourceLocation] = _loc_field()


@dataclass(frozen=True)
class TyVar:
    name: str
    loc: Optional[SourceLocation] = _loc_field()


@dataclass(frozen=True)
class FunType:
    inputs: tuple[TypeExpr, ...]
    output: TypeExpr
    loc: Optional[SourceLocation] = _loc_field()


@dataclass(frozen=True)
class ArrType:
    elem: TypeExpr
    shape: IndexExpr
    loc: Optional[SourceLocation] = _loc_field()


@dataclass(frozen=True)
class ForallType:
    binders: tuple[tuple[str, Kind], ...]
    body: TypeExpr
    loc: Optional[SourceLocation] = _loc_field()


@dataclass(frozen=True)
class PiType:
    binders: tuple[tuple[str, Sort], ...]
    body: TypeExpr
    loc: Optional[SourceLocation] = _loc_field()


@dataclass(frozen=True)
class SigmaType:
    binders: tuple[tuple[str, Sort], ...]
    body: TypeExpr
    loc: Optional[SourceLocation] = _loc_field()


TypeExpr = Union[BaseType, TyVar, FunType, ArrType, ForallType, PiType, SigmaType]

NUM = BaseType("Num")
BOOL = BaseType("Bool")
BASE_TYPE_NAMES = ("Num", "Bool", "Char")


def scalar_of(elem: TypeExpr) -> ArrType:
    return ArrType(elem, SCALAR_SHAPE)


# ---------------------------------------------------------------------------
# Terms: atoms and expressions

_annot_field = lambda: field(default=None, compare=True, kw_only=True)  # noqa: E731


@dataclass(frozen=True)
class BaseVal:
    """A base-type literal. ``base`` disambiguates Num/Bool/Char so that
    e.g. True and 1.0 do not compare equal."""

    base: str
    value: object
    annot: Optional[TypeExpr] = _annot_field()
    loc: Optional[SourceLocation] = _loc_field()


@dataclass(frozen=True)
class PrimOp:
    name: str
    annot: Optional[TypeExpr] = _annot_field()
    loc: Optional[SourceLocation] = _loc_field()


@dataclass(frozen=True)
class Lam:
    params: tuple[tuple[str, TypeExpr], ...]
    body: ExprTerm
    annot: Optional[TypeExpr] = _annot_field()
    loc: Optional[SourceLocation] = _loc_field()


@dataclass(frozen=True)
class TLam:
    binders: tuple[tuple[str, Kind], ...]
    body: ExprTerm
    annot: Optional[TypeExpr] = _annot_field()
    loc: Optional[SourceLocation] = _loc_field()


@dataclass(frozen=True)
class ILam:
    binders: tuple[tuple[str, Sort], ...]
    body: ExprTerm
    annot: Optional[TypeExpr] = _annot_field()
    loc: Optional[SourceLocation] = _loc_field()


@dataclass(frozen=True)
class Box:
    """An atom hiding part of an array's shape; the Sigma annotation is part
    of the syntax, not an elaboration artifact."""

    indices: tuple[IndexExpr, ...]
    payload: ExprTerm
    box_type: TypeExpr
    annot: Optional[TypeExpr] = _annot_field()
    loc: Optional[SourceLocation] = _loc_field()


AtomTerm = Union[BaseVal, PrimOp, Lam, TLam, ILam, Box]


@dataclass(frozen=True)
class Var:
    name: str
    annot: Optional[TypeExpr] = _annot_field()
    loc: Optional[SourceLocation] = _loc_field()


@dataclass(frozen=True)
class ArrayLit:
    dims: tuple[int, ...]
    atoms: tuple[AtomTerm, ...]
    annot: Optional[TypeExpr] = _annot_field()
    loc: Optional[SourceLocation] = _loc_field()


@dataclass(frozen=True)
class Frame:
    dims: tuple[int, ...]
    cells: tuple[ExprTerm, ...]
    annot: Optional[TypeExpr] = _annot_field()
    loc: Optional[SourceLocation] = _loc_field()


@dataclass(frozen=True)
class EmptyArray:
    elem_type: TypeExpr
    dims: tuple[int, ...]
    annot: Optional[TypeExpr] = _annot_field()
    loc: Optional[SourceLocation] = _loc_field()


@dataclass(frozen=True)
class EmptyFrame:
    cell_type: TypeExpr
    dims: tuple[int, ...]
    annot: Optional[TypeExpr] = _annot_field()
    loc: Optional[SourceLocation] = _loc_field()


@dataclass(frozen=True)
class App:
    fn: ExprTerm
    args: tuple[ExprTerm, ...]
    annot: Optional[TypeExpr] = _annot_field()
    loc: Optional[SourceLocation] = _loc_field()


@dataclass(frozen=True)
class TApp:
    fn: ExprTerm
    type_args: tuple[TypeExpr, ...]
    annot: Optional[TypeExpr] = _annot_field()
    loc: Optional[SourceLocation] = _loc_field()


@dataclass(frozen=True)
class IApp:
    fn: ExprTerm
    idx_args: tuple[IndexExpr, ...]
    annot: Optional[TypeExpr] = _annot_field()
    loc: Optional[SourceLocation] = _loc_field()


@dataclass(frozen=True)
class Unbox:
    idx_vars: tuple[str, ...]
    val_var: str
    box: ExprTerm
    body: ExprTerm
    annot: Optional[TypeExpr] = _annot_field()
    loc: Optional[SourceLocation] = _loc_field()


ExprTerm = Union[
    Var, ArrayLit, Frame, EmptyArray, EmptyFrame, App, TApp, IApp, Unbox
]

Term = Union[AtomTerm, ExprTerm]


def num(x: float) -> BaseVal:
    return BaseVal("Num", float(x))


def is_atom(t: Term) -> bool:
    return isinstance(t, (BaseVal, PrimOp, Lam, TLam, ILam, Box))


# ---------------------------------------------------------------------------
# Erased terms: the term and index levels of the language, with residual
# shape tags where the dynamic semantics needs them (see `erase`)

Tag = IndexExpr  # a residual tag, spelled canonically


@dataclass(frozen=True)
class EBase:
    base: str
    value: object


@dataclass(frozen=True)
class EOp:
    name: str


@dataclass(frozen=True)
class ELam:
    params: tuple[str, ...]
    body: EExpr


@dataclass(frozen=True)
class EILam:
    params: tuple[str, ...]
    body: EExpr


@dataclass(frozen=True)
class EBox:
    indices: tuple[Tag, ...]
    payload: EExpr


EAtom = Union[EBase, EOp, ELam, EILam, EBox]


@dataclass(frozen=True)
class EVar:
    name: str


@dataclass(frozen=True)
class EArray:
    dims: tuple[int, ...]
    atoms: tuple[EAtom, ...]


@dataclass(frozen=True)
class EFrame:
    shape: Tag  # full result shape
    cells: tuple[EExpr, ...]


@dataclass(frozen=True)
class EApp:
    fn: EExpr
    args: tuple[EExpr, ...]
    arg_shapes: tuple[Tag, ...]  # expected cell shape per argument
    out_shape: Tag


@dataclass(frozen=True)
class EIApp:
    fn: EExpr
    idx_args: tuple[Tag, ...]
    out_shape: Tag


@dataclass(frozen=True)
class EUnbox:
    idx_vars: tuple[str, ...]
    val_var: str
    box: EExpr
    body: EExpr
    body_shape: Tag


EExpr = Union[EVar, EArray, EFrame, EApp, EIApp, EUnbox]
ETerm = Union[EAtom, EExpr]


# ---------------------------------------------------------------------------
# Memo tables keyed on node identity


class Generations:
    """A memo table that keeps only what was used at the current and the
    previous step (or call). `carry(key)` looks the key up in the previous
    generation and brings a hit over into the current one; `age` (once per
    step) drops whatever the step before the previous one used and neither
    step since did. A user that can meet a key twice in one step tries
    `cur.get(key)` first.

    An entry keyed by an object's `id` holds that object, so the id cannot be
    reused while the entry lives. No value is falsy."""

    __slots__ = ("cur", "prev")

    def __init__(self) -> None:
        self.cur: dict = {}
        self.prev: dict = {}

    def carry(self, key):
        hit = self.prev.get(key)
        if hit is not None:
            self.cur[key] = hit
        return hit

    def age(self) -> None:
        self.prev = self.cur
        self.cur = {}
