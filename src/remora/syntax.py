"""Abstract syntax shared by every stage: type indices, types, the two-layer
term language (atoms and array expressions), and the erased terms that type
erasure produces.

All nodes are immutable slotted classes built by `node` (`replace` copies
one). Typed term nodes carry an optional type annotation slot (``annot``)
which elaboration fills in on every node, and a source location that never
participates in equality. `Generations` is the memo table the checker and the
lockstep harness key on node identity.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter
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


# ---------------------------------------------------------------------------
# The class builder

_KEYWORD = ("annot", "loc")


class FrozenNodeError(AttributeError):
    """A field of a node was assigned or deleted."""


def node(cls):
    """`cls` rebuilt as a slotted `Node` whose fields, in order, are those its
    body declares; `annot` and `loc` come last. The methods are closures over
    them (no source is compiled). A class that declares its own `__init__`
    calls the generated `_init` (not through `super()`: there is no cell)."""
    ns = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    fields = tuple(ns.get("__annotations__", ()))
    n = sum(f in _KEYWORD for f in fields)
    k = len(fields) - n
    assert fields[k:] == _KEYWORD[2 - n :], cls.__name__
    key = [f for f in fields if f != "loc"]
    get, single = attrgetter(*key), len(key) == 1

    def __init__(self, *args, annot=None, loc=None):
        if len(args) != k or (annot is not None and n < 2) or (loc is not None and n < 1):
            raise TypeError(f"{cls.__name__} takes the fields {fields[:k]}, then the keywords {fields[k:]}")
        # Most classes have one or two positional fields: no loop for those.
        if k == 1:
            puts[0](self, args[0])
        elif k == 2:
            puts[0](self, args[0])
            puts[1](self, args[1])
        else:
            for put, v in zip(puts, args):
                put(self, v)
        if n:
            if n == 2:
                puts[k](self, annot)
            puts[-1](self, loc)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return get(self) == get(other)

    def __hash__(self):
        return hash((get(self),) if single else get(self))

    methods = {"__init__": ns.get("__init__", __init__), "_init": __init__, "__eq__": __eq__, "__hash__": __hash__}
    new = type(cls.__name__, (Node,), {**ns, **methods, "__slots__": fields, "_fields": fields})
    puts = new._puts = tuple(vars(new)[f].__set__ for f in fields)
    return new


class Node:
    """Base of the classes `node` builds: an immutable record whose fields are
    given positionally, then `annot` and `loc` by keyword."""

    __slots__ = ()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise FrozenNodeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # for copy and pickle
        return object.__new__, (self.__class__,), tuple(getattr(self, f) for f in self._fields)

    def __setstate__(self, values):
        for put, v in zip(self._puts, values):
            put(self, v)


def replace(node, **changes):
    """A copy of `node` with the given fields changed."""
    cls = node.__class__
    new = object.__new__(cls)
    for f, put in zip(cls._fields, cls._puts):
        put(new, changes.pop(f) if f in changes else getattr(node, f))
    if changes:
        raise TypeError(f"{cls.__name__} has no field {', '.join(changes)}")
    return new


@node
class SourceLocation:
    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


# ---------------------------------------------------------------------------
# Type indices


@node
class NatLit:
    value: int
    loc: Optional[SourceLocation]


@node
class IdxVar:
    name: str
    loc: Optional[SourceLocation]


@node
class Plus:
    operands: tuple[IndexExpr, ...]
    loc: Optional[SourceLocation]


@node
class ShapeLit:
    """A literal sequence of dimensions, written (Shp d ...)."""

    dims: tuple[IndexExpr, ...]
    loc: Optional[SourceLocation]


@node
class IdxAppend:
    """Shape concatenation, written (++ s ...)."""

    operands: tuple[IndexExpr, ...]
    loc: Optional[SourceLocation]


IndexExpr = Union[NatLit, IdxVar, Plus, ShapeLit, IdxAppend]

SCALAR_SHAPE = ShapeLit(())


def shape_of_dims(dims: tuple[int, ...] | list[int]) -> ShapeLit:
    return ShapeLit(tuple(NatLit(n) for n in dims))


# ---------------------------------------------------------------------------
# Types


@node
class BaseType:
    name: str  # one of Num, Bool, Char
    loc: Optional[SourceLocation]


@node
class TyVar:
    name: str
    loc: Optional[SourceLocation]


@node
class FunType:
    inputs: tuple[TypeExpr, ...]
    output: TypeExpr
    loc: Optional[SourceLocation]


@node
class ArrType:
    elem: TypeExpr
    shape: IndexExpr
    loc: Optional[SourceLocation]


@node
class ForallType:
    binders: tuple[tuple[str, Kind], ...]
    body: TypeExpr
    loc: Optional[SourceLocation]


@node
class PiType:
    binders: tuple[tuple[str, Sort], ...]
    body: TypeExpr
    loc: Optional[SourceLocation]


@node
class SigmaType:
    binders: tuple[tuple[str, Sort], ...]
    body: TypeExpr
    loc: Optional[SourceLocation]


TypeExpr = Union[BaseType, TyVar, FunType, ArrType, ForallType, PiType, SigmaType]

NUM = BaseType("Num")
BOOL = BaseType("Bool")
BASE_TYPE_NAMES = ("Num", "Bool", "Char")


def scalar_of(elem: TypeExpr) -> ArrType:
    return ArrType(elem, SCALAR_SHAPE)


# ---------------------------------------------------------------------------
# Terms: atoms and expressions

@node
class BaseVal:
    """A base-type literal. ``base`` disambiguates Num/Bool/Char so that
    e.g. True and 1.0 do not compare equal."""

    base: str
    value: object
    annot: Optional[TypeExpr]
    loc: Optional[SourceLocation]


@node
class PrimOp:
    name: str
    annot: Optional[TypeExpr]
    loc: Optional[SourceLocation]


@node
class Lam:
    params: tuple[tuple[str, TypeExpr], ...]
    body: ExprTerm
    annot: Optional[TypeExpr]
    loc: Optional[SourceLocation]


@node
class TLam:
    binders: tuple[tuple[str, Kind], ...]
    body: ExprTerm
    annot: Optional[TypeExpr]
    loc: Optional[SourceLocation]


@node
class ILam:
    binders: tuple[tuple[str, Sort], ...]
    body: ExprTerm
    annot: Optional[TypeExpr]
    loc: Optional[SourceLocation]


@node
class Box:
    """An atom hiding part of an array's shape; the Sigma annotation is part
    of the syntax, not an elaboration artifact."""

    indices: tuple[IndexExpr, ...]
    payload: ExprTerm
    box_type: TypeExpr
    annot: Optional[TypeExpr]
    loc: Optional[SourceLocation]


AtomTerm = Union[BaseVal, PrimOp, Lam, TLam, ILam, Box]


@node
class Var:
    name: str
    annot: Optional[TypeExpr]
    loc: Optional[SourceLocation]


@node
class ArrayLit:
    dims: tuple[int, ...]
    atoms: tuple[AtomTerm, ...]
    annot: Optional[TypeExpr]
    loc: Optional[SourceLocation]


@node
class Frame:
    dims: tuple[int, ...]
    cells: tuple[ExprTerm, ...]
    annot: Optional[TypeExpr]
    loc: Optional[SourceLocation]


@node
class EmptyArray:
    elem_type: TypeExpr
    dims: tuple[int, ...]
    annot: Optional[TypeExpr]
    loc: Optional[SourceLocation]


@node
class EmptyFrame:
    cell_type: TypeExpr
    dims: tuple[int, ...]
    annot: Optional[TypeExpr]
    loc: Optional[SourceLocation]


@node
class App:
    fn: ExprTerm
    args: tuple[ExprTerm, ...]
    annot: Optional[TypeExpr]
    loc: Optional[SourceLocation]


@node
class TApp:
    fn: ExprTerm
    type_args: tuple[TypeExpr, ...]
    annot: Optional[TypeExpr]
    loc: Optional[SourceLocation]


@node
class IApp:
    fn: ExprTerm
    idx_args: tuple[IndexExpr, ...]
    annot: Optional[TypeExpr]
    loc: Optional[SourceLocation]


@node
class Unbox:
    idx_vars: tuple[str, ...]
    val_var: str
    box: ExprTerm
    body: ExprTerm
    annot: Optional[TypeExpr]
    loc: Optional[SourceLocation]


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


@node
class EBase:
    base: str
    value: object


@node
class EOp:
    name: str


@node
class ELam:
    params: tuple[str, ...]
    body: EExpr


@node
class EILam:
    params: tuple[str, ...]
    body: EExpr


@node
class EBox:
    indices: tuple[Tag, ...]
    payload: EExpr


EAtom = Union[EBase, EOp, ELam, EILam, EBox]


@node
class EVar:
    name: str


@node
class EArray:
    dims: tuple[int, ...]
    atoms: tuple[EAtom, ...]


@node
class EFrame:
    shape: Tag  # full result shape
    cells: tuple[EExpr, ...]


@node
class EApp:
    fn: EExpr
    args: tuple[EExpr, ...]
    arg_shapes: tuple[Tag, ...]  # expected cell shape per argument
    out_shape: Tag


@node
class EIApp:
    fn: EExpr
    idx_args: tuple[Tag, ...]
    out_shape: Tag


@node
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
