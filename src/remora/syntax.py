"""Abstract syntax shared by every stage: type indices, types, the two-layer
term language (atoms and array expressions), and the erased terms that type
erasure produces.

All nodes are immutable slotted classes built by `node` (`replace` copies
one, and `copier` gives the copy that changes one given field). Typed term
nodes carry an optional type annotation slot (``annot``) which elaboration
fills in on every node, and a source location that never participates in
equality.

A class body declares each field once, with its type and, as its default,
its role for the binding machinery of `names` (see there): for example
``fn: ExprTerm = Child(TM)`` or ``body: ExprTerm = Scope(TM)``. A field with
no default is `DATA`; ``annot`` is always ``Child(TY, OPT)``, and ``loc`` has
no role. `node` records the roles as the class's `_roles`.
"""

from __future__ import annotations

import gc
from collections import namedtuple
from enum import Enum
from functools import wraps
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
# Field roles

# Namespaces, and the categories of children: a child of category c can hold
# variables of namespace ns exactly when ns <= c.
IDX, TY, TM = 0, 1, 2
ONE, MANY, OPT = "one", "many", "opt"
PAIRS, TYPED, NAMES, NAME = "pairs", "typed", "names", "name"
DATA = "data"

Child = namedtuple("Child", "cat shape tag", defaults=(ONE, False))
Binder = namedtuple("Binder", "ns form")
Scope = namedtuple("Scope", "cat")

ANNOT = Child(TY, OPT)
TAG, TAGS = Child(IDX, ONE, True), Child(IDX, MANY, True)


# ---------------------------------------------------------------------------
# The class builder

_KEYWORD = ("annot", "loc")


class FrozenNodeError(AttributeError):
    """A field of a node was assigned or deleted."""


def node(cls):
    """`cls` rebuilt as a slotted `Node` whose fields, in order, are those its
    body declares; `annot` and `loc` come last. The methods are closures over
    them (no source is compiled). A class that declares its own `__init__`
    calls the generated `_init` (not through `super()`: there is no cell).
    `_roles` maps each field but `loc` to its role, `annot` first."""
    ns = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    fields = tuple(ns.get("__annotations__", ()))
    roles = {"annot": ANNOT} if "annot" in fields else {}
    roles.update((f, ns.pop(f, DATA)) for f in fields if f not in _KEYWORD)
    n = sum(f in _KEYWORD for f in fields)
    k = len(fields) - n
    assert fields[k:] == _KEYWORD[2 - n :], cls.__name__
    key = [f for f in fields if f != "loc"]
    get, single = attrgetter(*key), len(key) == 1

    def __init__(self, *args, annot=None, loc=None):
        if len(args) != k or (annot is not None and n < 2) or (loc is not None and n < 1):
            raise TypeError(f"{cls.__name__} takes the fields {fields[:k]}, then the keywords {fields[k:]}")
        # Most classes have one to three positional fields: no loop for those.
        if k == 1:
            puts[0](self, args[0])
        elif k == 2:
            puts[0](self, args[0])
            puts[1](self, args[1])
        elif k == 3:
            puts[0](self, args[0])
            puts[1](self, args[1])
            puts[2](self, args[2])
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
    attrs = {"__slots__": fields, "_fields": fields, "_roles": roles, "_copiers": {}}
    new = type(cls.__name__, (Node,), {**ns, **methods, **attrs})
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


_new = object.__new__  # every copy of a node is made by this


def replace(node, **changes):
    """A copy of `node` with the given fields changed."""
    if len(changes) == 1:
        [(f, v)] = changes.items()
        return copier(node.__class__, f)(node, v)
    cls = node.__class__
    new = _new(cls)
    for f, put in zip(cls._fields, cls._puts):
        put(new, changes.pop(f) if f in changes else getattr(node, f))
    if changes:
        raise TypeError(f"{cls.__name__} has no field {', '.join(changes)}")
    return new


def copier(cls, field):
    """The function (node, v) that copies a node of class `cls` with `field`
    set to v: `replace` for one field, without its loop. Built on first use
    and kept in the class."""
    copy = cls._copiers.get(field)
    if copy is None:
        if field not in cls._fields:
            raise TypeError(f"{cls.__name__} has no field {field}")
        copy = cls._copiers[field] = _copier(cls, field)
    return copy


def _copier(cls, field):
    # A closure over the slot setters, unrolled for up to three other fields
    # (all but Box and the unboxes).
    put = cls._puts[cls._fields.index(field)]
    others = [f for f in cls._fields if f != field]
    puts = tuple(p for f, p in zip(cls._fields, cls._puts) if f != field)
    get = attrgetter(*others) if others else None
    if len(others) > 3:

        def copy(node, v):
            new = _new(cls)
            for p, x in zip(puts, get(node)):
                p(new, x)
            put(new, v)
            return new

    elif len(others) == 3:
        p0, p1, p2 = puts

        def copy(node, v):
            new = _new(cls)
            x0, x1, x2 = get(node)
            p0(new, x0)
            p1(new, x1)
            p2(new, x2)
            put(new, v)
            return new

    elif len(others) == 2:
        p0, p1 = puts

        def copy(node, v):
            new = _new(cls)
            x0, x1 = get(node)
            p0(new, x0)
            p1(new, x1)
            put(new, v)
            return new

    elif others:
        [p0] = puts

        def copy(node, v):
            new = _new(cls)
            p0(new, get(node))
            put(new, v)
            return new

    else:

        def copy(node, v):
            new = _new(cls)
            put(new, v)
            return new

    return copy


def gc_paused(fn):
    """`fn`, run with CPython's cyclic garbage collector paused.

    Every node is immutable and built after its children, so no term can be
    part of a reference cycle; the collector would only traverse them. The
    library's entry points are wrapped in this, and `tests/test_collector.py`
    holds each to leaving no cyclic garbage. A collector that is already off
    is left off, so a nested call, or a host that turned it off itself, keeps
    its own state."""

    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


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
    operands: tuple[IndexExpr, ...] = Child(IDX, MANY)
    loc: Optional[SourceLocation]


@node
class ShapeLit:
    """A literal sequence of dimensions, written (Shp d ...)."""

    dims: tuple[IndexExpr, ...] = Child(IDX, MANY)
    loc: Optional[SourceLocation]


@node
class IdxAppend:
    """Shape concatenation, written (++ s ...)."""

    operands: tuple[IndexExpr, ...] = Child(IDX, MANY)
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
    inputs: tuple[TypeExpr, ...] = Child(TY, MANY)
    output: TypeExpr = Child(TY)
    loc: Optional[SourceLocation]


@node
class ArrType:
    elem: TypeExpr = Child(TY)
    shape: IndexExpr = Child(IDX)
    loc: Optional[SourceLocation]


@node
class ForallType:
    binders: tuple[tuple[str, Kind], ...] = Binder(TY, PAIRS)
    body: TypeExpr = Scope(TY)
    loc: Optional[SourceLocation]


@node
class PiType:
    binders: tuple[tuple[str, Sort], ...] = Binder(IDX, PAIRS)
    body: TypeExpr = Scope(TY)
    loc: Optional[SourceLocation]


@node
class SigmaType:
    binders: tuple[tuple[str, Sort], ...] = Binder(IDX, PAIRS)
    body: TypeExpr = Scope(TY)
    loc: Optional[SourceLocation]


TypeExpr = Union[BaseType, TyVar, FunType, ArrType, ForallType, PiType, SigmaType]

NUM = BaseType("Num")
BOOL = BaseType("Bool")
BASE_TYPE_NAMES = ("Num", "Bool", "Char")
# The characters a `#\` literal may spell by name.
CHAR_NAMES = {"space": " ", "newline": "\n", "tab": "\t"}


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
    params: tuple[tuple[str, TypeExpr], ...] = Binder(TM, TYPED)
    body: ExprTerm = Scope(TM)
    annot: Optional[TypeExpr]
    loc: Optional[SourceLocation]


@node
class TLam:
    binders: tuple[tuple[str, Kind], ...] = Binder(TY, PAIRS)
    body: ExprTerm = Scope(TM)
    annot: Optional[TypeExpr]
    loc: Optional[SourceLocation]


@node
class ILam:
    binders: tuple[tuple[str, Sort], ...] = Binder(IDX, PAIRS)
    body: ExprTerm = Scope(TM)
    annot: Optional[TypeExpr]
    loc: Optional[SourceLocation]


@node
class Box:
    """An atom hiding part of an array's shape; the Sigma annotation is part
    of the syntax, not an elaboration artifact."""

    indices: tuple[IndexExpr, ...] = Child(IDX, MANY)
    payload: ExprTerm = Child(TM)
    box_type: TypeExpr = Child(TY)
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
    atoms: tuple[AtomTerm, ...] = Child(TM, MANY)
    annot: Optional[TypeExpr]
    loc: Optional[SourceLocation]


@node
class Frame:
    dims: tuple[int, ...]
    cells: tuple[ExprTerm, ...] = Child(TM, MANY)
    annot: Optional[TypeExpr]
    loc: Optional[SourceLocation]


@node
class EmptyArray:
    elem_type: TypeExpr = Child(TY)
    dims: tuple[int, ...]
    annot: Optional[TypeExpr]
    loc: Optional[SourceLocation]


@node
class EmptyFrame:
    cell_type: TypeExpr = Child(TY)
    dims: tuple[int, ...]
    annot: Optional[TypeExpr]
    loc: Optional[SourceLocation]


@node
class App:
    fn: ExprTerm = Child(TM)
    args: tuple[ExprTerm, ...] = Child(TM, MANY)
    annot: Optional[TypeExpr]
    loc: Optional[SourceLocation]


@node
class TApp:
    fn: ExprTerm = Child(TM)
    type_args: tuple[TypeExpr, ...] = Child(TY, MANY)
    annot: Optional[TypeExpr]
    loc: Optional[SourceLocation]


@node
class IApp:
    fn: ExprTerm = Child(TM)
    idx_args: tuple[IndexExpr, ...] = Child(IDX, MANY)
    annot: Optional[TypeExpr]
    loc: Optional[SourceLocation]


@node
class Unbox:
    idx_vars: tuple[str, ...] = Binder(IDX, NAMES)
    val_var: str = Binder(TM, NAME)
    box: ExprTerm = Child(TM)
    body: ExprTerm = Scope(TM)
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
    params: tuple[str, ...] = Binder(TM, NAMES)
    body: EExpr = Scope(TM)


@node
class EILam:
    params: tuple[str, ...] = Binder(IDX, NAMES)
    body: EExpr = Scope(TM)


@node
class EBox:
    indices: tuple[Tag, ...] = TAGS
    payload: EExpr = Child(TM)


EAtom = Union[EBase, EOp, ELam, EILam, EBox]


@node
class EVar:
    name: str


@node
class EArray:
    dims: tuple[int, ...]
    atoms: tuple[EAtom, ...] = Child(TM, MANY)


@node
class EFrame:
    shape: Tag = TAG  # full result shape
    cells: tuple[EExpr, ...] = Child(TM, MANY)


@node
class EApp:
    fn: EExpr = Child(TM)
    args: tuple[EExpr, ...] = Child(TM, MANY)
    arg_shapes: tuple[Tag, ...] = TAGS  # expected cell shape per argument
    out_shape: Tag = TAG


@node
class EIApp:
    fn: EExpr = Child(TM)
    idx_args: tuple[Tag, ...] = TAGS
    out_shape: Tag = TAG


@node
class EUnbox:
    idx_vars: tuple[str, ...] = Binder(IDX, NAMES)
    val_var: str = Binder(TM, NAME)
    box: EExpr = Child(TM)
    body: EExpr = Scope(TM)
    body_shape: Tag = TAG


EExpr = Union[EVar, EArray, EFrame, EApp, EIApp, EUnbox]
ETerm = Union[EAtom, EExpr]


# ---------------------------------------------------------------------------
# The head word of each form that has one, which the printer writes and the
# parser looks forms up by (an application has none; a leaf is spelled
# alone). The parser reserves the words of the typed term forms.

HEADS = {
    Plus: "+", ShapeLit: "Shp", IdxAppend: "++",
    FunType: "->", ArrType: "Arr", ForallType: "Forall", PiType: "Pi", SigmaType: "Sigma",
    Lam: "lam", TLam: "tlam", ILam: "ilam", Box: "box", ArrayLit: "array", Frame: "frame",
    EmptyArray: "empty-array", EmptyFrame: "empty-frame", TApp: "t-app", IApp: "i-app", Unbox: "unbox",
    ELam: "lam", EILam: "ilam", EBox: "box", EArray: "array", EFrame: "frame", EIApp: "i-app", EUnbox: "unbox",
}
