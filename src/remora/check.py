"""Static semantics: sorting and kinding judgments, type equivalence, and
the syntax-directed elaborator that annotates every node with its type.

Elaboration is algorithmic: the declarative equivalence rule is absorbed
into explicit types_equal comparisons at each premise that demands a type of
a particular shape, and array shapes are reconciled through their canonical
forms.

`elaborate` keeps the input and output of its last call, when it succeeded,
for one signature object and one root environment object, which are treated
as immutable; a call with another object of either starts afresh. A
small-step state is rebuilt from the state it came from along the spine from
the root to the redex (`eval.step` copies one node per level): each new spine
node is a *successor* of the old one, of the same class, with every field the
same object but one term child outside every binder (the `Child(TM)` roles of
`names.SCHEMA`). A successor whose new child's type is `==` to the type the
old child had has every premise of a node that elaborated, so it has the same
conclusion: the old node's output with the new child put in, and the old
type; when that output was the old node itself and the new child's output is
the new child, it is the new node itself. (`==`, not `types_equal`: a rule
reads its premises' types as written, so an equivalent type can give another
annotation.) Any other node goes through the rules, with a memo that lasts
one call. It keys nodes at binder-free positions (elaborated under the root
environment, so a lam/tlam/ilam atom as a whole but nothing under a binder
or inside an unbox body) by identity, and is given beforehand the old
conclusions for the nodes the rules can meet again: the children a successor
shares with its old node, and the nodes under the old redex that its
contractum is built from.

A rule returns its input node as it is when the input's annotation is the
conclusion as written (`is` or `==`) and every field it would put in its
output is the input's own. So an elaborated term re-elaborates to itself,
and a state whose annotations are its conclusions is neither rebuilt by the
rules nor copied along the spine.

Re-elaborating a state after a step thus costs identity comparisons along
the spine plus O(1) rule firings, and the rules run only where a type
changed.
Results, annotations and errors (kind, detail, location) are those of an
elaboration from scratch; only the time differs.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter, indexOf, is_
from typing import Mapping, Optional

from .indices import (
    canonicalize_shape,
    drop_suffix,
    element_count,
    frame_join,
    indices_equal,
    prefix_subtract,
    shape_to_index,
)
from .names import (
    MANY,
    SCHEMA,
    TM,
    Child,
    free_idx_in_type,
    subst_idx,
    subst_idx_in_type,
    subst_ty_in_type,
)
from .printer import print_type
from .syntax import (
    App,
    ArrayLit,
    ArrType,
    AtomTerm,
    BASE_TYPE_NAMES,
    BaseType,
    BaseVal,
    Box,
    EmptyArray,
    EmptyFrame,
    ExprTerm,
    ForallType,
    Frame,
    FunType,
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
    Term,
    TLam,
    TypeExpr,
    TyVar,
    Unbox,
    Var,
    copier,
    gc_paused,
    is_atom,
    node,
    shape_of_dims,
)


class ErrorKind(Enum):
    UNBOUND_VAR = "UnboundVar"
    SORT_MISMATCH = "SortMismatch"
    KIND_MISMATCH = "KindMismatch"
    FRAME_INCOMPATIBLE = "FrameIncompatible"
    CELL_MISMATCH = "CellMismatch"
    LENGTH_MISMATCH = "LengthMismatch"
    ESCAPING_INDEX_VAR = "EscapingIndexVar"
    NOT_A_FUNCTION = "NotAFunction"
    NOT_A_BOX = "NotABox"
    ANNOTATION_MISMATCH = "AnnotationMismatch"

    def __str__(self) -> str:
        return self.value


class TypeCheckError(Exception):
    def __init__(self, kind: ErrorKind, detail: str, loc: Optional[SourceLocation] = None):
        self.kind = kind
        self.detail = detail
        self.loc = loc
        where = f"{loc}: " if loc else ""
        super().__init__(f"{where}{kind}: {detail}")


class Env(metaclass=node):
    """Three-part environment: index-variable sorts, type-variable kinds,
    term-variable types."""

    sorts: Mapping[str, Sort]
    kinds: Mapping[str, Kind]
    types: Mapping[str, TypeExpr]

    def with_sorts(self, pairs) -> "Env":
        return Env({**self.sorts, **dict(pairs)}, self.kinds, self.types)

    def with_kinds(self, pairs) -> "Env":
        return Env(self.sorts, {**self.kinds, **dict(pairs)}, self.types)

    def with_types(self, pairs) -> "Env":
        return Env(self.sorts, self.kinds, {**self.types, **dict(pairs)})


EMPTY_ENV = Env({}, {}, {})

Signature = Mapping[str, TypeExpr]


def idx_append(a: IndexExpr, b: IndexExpr) -> IndexExpr:
    """Append two shapes, flattening trivial cases for readable types."""
    if isinstance(a, ShapeLit) and not a.dims:
        return b
    if isinstance(b, ShapeLit) and not b.dims:
        return a
    if isinstance(a, ShapeLit) and isinstance(b, ShapeLit):
        return ShapeLit(a.dims + b.dims)
    parts: list[IndexExpr] = []
    for x in (a, b):
        parts.extend(x.operands if isinstance(x, IdxAppend) else (x,))
    return IdxAppend(tuple(parts))


# ---------------------------------------------------------------------------
# Sorting


def sort_of(env: Env, i: IndexExpr, loc: Optional[SourceLocation] = None) -> Sort:
    loc = getattr(i, "loc", None) or loc
    if isinstance(i, NatLit):
        return Sort.DIM
    if isinstance(i, IdxVar):
        s = env.sorts.get(i.name)
        if s is None:
            raise TypeCheckError(ErrorKind.UNBOUND_VAR, f"unbound index variable {i.name}", loc)
        return s
    if isinstance(i, Plus):
        for op in i.operands:
            if sort_of(env, op, loc) is not Sort.DIM:
                raise TypeCheckError(
                    ErrorKind.SORT_MISMATCH, "+ requires Dim operands", loc
                )
        return Sort.DIM
    if isinstance(i, ShapeLit):
        for op in i.dims:
            if sort_of(env, op, loc) is not Sort.DIM:
                raise TypeCheckError(
                    ErrorKind.SORT_MISMATCH, "Shp elements must have sort Dim", loc
                )
        return Sort.SHAPE
    if isinstance(i, IdxAppend):
        for op in i.operands:
            if sort_of(env, op, loc) is not Sort.SHAPE:
                raise TypeCheckError(
                    ErrorKind.SORT_MISMATCH, "++ requires Shape operands", loc
                )
        return Sort.SHAPE
    raise TypeError(i)


def check_sort(env: Env, i: IndexExpr, want: Sort, loc=None) -> None:
    got = sort_of(env, i, loc)
    if got is not want:
        raise TypeCheckError(
            ErrorKind.SORT_MISMATCH, f"expected sort {want}, got {got}", getattr(i, "loc", None) or loc
        )


# ---------------------------------------------------------------------------
# Kinding


def kind_of(env: Env, t: TypeExpr, loc: Optional[SourceLocation] = None) -> Kind:
    loc = getattr(t, "loc", None) or loc
    if isinstance(t, BaseType):
        if t.name not in BASE_TYPE_NAMES:
            raise TypeCheckError(ErrorKind.KIND_MISMATCH, f"unknown base type {t.name}", loc)
        return Kind.ATOM
    if isinstance(t, TyVar):
        k = env.kinds.get(t.name)
        if k is None:
            raise TypeCheckError(ErrorKind.UNBOUND_VAR, f"unbound type variable {t.name}", loc)
        return k
    if isinstance(t, FunType):
        for x in t.inputs:
            if kind_of(env, x, loc) is not Kind.ARRAY:
                raise TypeCheckError(
                    ErrorKind.KIND_MISMATCH, "function input types must be Arrays", loc
                )
        if kind_of(env, t.output, loc) is not Kind.ARRAY:
            raise TypeCheckError(
                ErrorKind.KIND_MISMATCH, "function output type must be an Array", loc
            )
        return Kind.ATOM
    if isinstance(t, ArrType):
        if kind_of(env, t.elem, loc) is not Kind.ATOM:
            raise TypeCheckError(
                ErrorKind.KIND_MISMATCH, "array element type must be an Atom", loc
            )
        check_sort(env, t.shape, Sort.SHAPE, loc)
        return Kind.ARRAY
    if isinstance(t, ForallType):
        inner = env.with_kinds(t.binders)
        if kind_of(inner, t.body, loc) is not Kind.ARRAY:
            raise TypeCheckError(
                ErrorKind.KIND_MISMATCH, "universal body must be an Array", loc
            )
        return Kind.ATOM
    if isinstance(t, (PiType, SigmaType)):
        inner = env.with_sorts(t.binders)
        if kind_of(inner, t.body, loc) is not Kind.ARRAY:
            raise TypeCheckError(
                ErrorKind.KIND_MISMATCH,
                f"{'Pi' if isinstance(t, PiType) else 'Sigma'} body must be an Array",
                loc,
            )
        return Kind.ATOM
    raise TypeError(t)


def check_kind(env: Env, t: TypeExpr, want: Kind, loc=None) -> None:
    got = kind_of(env, t, loc)
    if got is not want:
        raise TypeCheckError(
            ErrorKind.KIND_MISMATCH,
            f"expected kind {want}, got {got}",
            getattr(t, "loc", None) or loc,
        )


def check_env(env: Env) -> None:
    """An environment is well-formed when every term binding's type kinds at
    Array under the sort and kind parts."""
    for x, t in env.types.items():
        k = kind_of(env, t)
        if k is not Kind.ARRAY:
            raise TypeCheckError(
                ErrorKind.KIND_MISMATCH,
                f"binding {x} has kind {k}, expected Array",
            )


# ---------------------------------------------------------------------------
# Type equivalence


def types_equal(a: TypeExpr, b: TypeExpr) -> bool:
    """Alpha-equivalence with array shapes compared as canonical indices."""
    return _teqv(a, b, 0)


def _teqv(a: TypeExpr, b: TypeExpr, depth: int) -> bool:
    if a is b:
        return True
    if isinstance(a, BaseType) and isinstance(b, BaseType):
        return a.name == b.name
    if isinstance(a, TyVar) and isinstance(b, TyVar):
        return a.name == b.name
    if isinstance(a, FunType) and isinstance(b, FunType):
        return (
            len(a.inputs) == len(b.inputs)
            and all(_teqv(x, y, depth) for x, y in zip(a.inputs, b.inputs))
            and _teqv(a.output, b.output, depth)
        )
    if isinstance(a, ArrType) and isinstance(b, ArrType):
        return _teqv(a.elem, b.elem, depth) and indices_equal(a.shape, b.shape, shape=True)
    if isinstance(a, ForallType) and isinstance(b, ForallType):
        if len(a.binders) != len(b.binders):
            return False
        if any(ka != kb for (_, ka), (_, kb) in zip(a.binders, b.binders)):
            return False
        fresh = [TyVar(f"#q{depth}.{i}") for i in range(len(a.binders))]
        sa = subst_ty_in_type(a.body, {x: v for (x, _), v in zip(a.binders, fresh)})
        sb = subst_ty_in_type(b.body, {x: v for (x, _), v in zip(b.binders, fresh)})
        return _teqv(sa, sb, depth + 1)
    if type(a) is type(b) and isinstance(a, (PiType, SigmaType)):
        if len(a.binders) != len(b.binders):
            return False
        if any(sa != sb for (_, sa), (_, sb) in zip(a.binders, b.binders)):
            return False
        fresh = [IdxVar(f"#q{depth}.{i}") for i in range(len(a.binders))]
        sa = subst_idx_in_type(a.body, {x: v for (x, _), v in zip(a.binders, fresh)})
        sb = subst_idx_in_type(b.body, {x: v for (x, _), v in zip(b.binders, fresh)})
        return _teqv(sa, sb, depth + 1)
    return False


# ---------------------------------------------------------------------------
# Typing with elaboration


def _as_array_type(t: TypeExpr) -> Optional[ArrType]:
    return t if isinstance(t, ArrType) else None


def _spine_roles(cls: type, roles: dict) -> tuple:
    kids = {
        i: (f, roles[f].shape == MANY)
        for i, f in enumerate(cls._fields)
        if roles.get(f) in (Child(TM), Child(TM, MANY))
    }
    return attrgetter(*cls._fields), kids


# For each typed term class with term children outside every binder (the
# children `eval.step` rebuilds): a getter of all its fields, and the
# children's positions among them, each with (field, is a tuple).
_SPINE = {
    cls: spine
    for cls, roles in SCHEMA.items()
    if "annot" in roles and (spine := _spine_roles(cls, roles))[1]
}


def _changed(n, o) -> Optional[tuple]:
    """Where n differs from o when n is a successor of o: of the same class,
    with every field the same object but one term child outside every binder.
    That child's field, its position in the tuple (None for a lone child), and
    the child of n and of o there; or None when n is no successor of o."""
    spine = _SPINE.get(n.__class__)
    if spine is None or o.__class__ is not n.__class__:
        return None
    fields, kids = spine
    a, b = fields(n), fields(o)
    same = map(is_, a, b)
    try:
        i = indexOf(same, False)  # the first field that differs; no other may
    except ValueError:
        return None
    kid = kids.get(i)
    if kid is None or not all(same):
        return None
    f, many = kid
    a, b = a[i], b[i]
    if not many:
        return f, None, a, b
    if len(a) != len(b):
        return None
    same = map(is_, a, b)
    try:
        j = indexOf(same, False)
    except ValueError:
        return None
    if not all(same):
        return None
    return f, j, a[j], b[j]


def _conclude(n: Term, t: TypeExpr, env: Env, want: Kind, cls: type, fields: tuple) -> Term:
    """The output of the rule that gave n the type t and the output `cls`
    and `fields`. A form's annotation must be its type, up to equivalence.
    (An operator's annotation is its instantiated type, and is its type.) One
    that is not plainly the type is kinded first: an ill-sorted shape has no
    canonical form to compare or print. When the annotation is t as written
    (`is` or `==`) and n is of class `cls` with every field its own (the same
    object; for a tuple, the same items), the output is n itself; else a new
    node carrying t."""
    a = n.annot
    if a is not None and (a is t or a == t):
        if cls is n.__class__:
            for v, f in zip(fields, cls._fields):
                w = getattr(n, f)
                if v is not w and not (v.__class__ is tuple and len(v) == len(w) and all(map(is_, v, w))):
                    break
            else:
                return n
    elif a is not None:
        check_kind(env, a, want, n.loc)
        if not types_equal(a, t):
            raise TypeCheckError(
                ErrorKind.ANNOTATION_MISMATCH,
                f"annotation {print_type(a, canonical=True)} does not match the form's type"
                f" {print_type(t, canonical=True)}",
                n.loc,
            )
    return cls(*fields, annot=t, loc=n.loc)


class _Elaborator:
    """Elaborates under one signature and one root environment. `memo` maps
    id(input node) -> (input node, output node, type) for the nodes of the
    current call elaborated under `root`, completed ones only, and for those
    `along` and `seed` give a conclusion. The lookup is folded into `atom` and
    `expr`, so the memo adds no Python frame per nesting level. Each rule
    ends in `_conclude`, which returns the input node itself when its
    annotation is the conclusion as written and its fields are its own.
    `last` is (input, output) of the last call, when it succeeded; the output
    is the input itself when the input was elaborated already."""

    __slots__ = ("sig", "root", "memo", "last")

    def __init__(self, sig: Signature, root: Env):
        self.sig, self.root, self.memo, self.last = sig, root, {}, None

    # -- whole terms ----------------------------------------------------------

    def run(self, t: Term) -> tuple[Term, TypeExpr]:
        last, self.last, self.memo = self.last, None, {}
        out = self.rule(t) if last is None else self.along(t, *last)
        self.last = (t, out[0])
        return out

    def rule(self, t: Term) -> tuple[Term, TypeExpr]:
        return self.atom(t, self.root) if is_atom(t) else self.expr(t, self.root)

    def along(self, t: Term, o: Term, oo: Term) -> tuple[Term, TypeExpr]:
        """Elaborate t, given that o elaborated to oo. Down the chain of
        successors from t and o, the first node that is none is elaborated by
        the rules; back up, a successor whose changed child's type is `==` to
        that of the child it replaced has its predecessor's conclusion, with
        the new child put in, and any other node is elaborated by the rules.
        When the predecessor's output is the predecessor itself and the new
        child's is the new child, that conclusion is the successor itself,
        and no copy is made. A loop, not a recursion: the spine can be as
        deep as the term."""
        path = []
        while (where := _changed(t, o)) is not None:
            f, j, kid, was = where
            path.append((t, o, oo, f, j, kid))
            t, o, oo = kid, was, getattr(oo, f) if j is None else getattr(oo, f)[j]
        if t is o:
            out, ty = oo, oo.annot
        else:
            self.seed(o, oo, True)
            out, ty = self.rule(t)
        for t, o, oo, f, j, kid in reversed(path):
            old = getattr(oo, f)
            was = (old if j is None else old[j]).annot
            if ty is was or ty == was:
                if oo is o and out is kid:
                    out = t  # o's own fields with kid put in: t's
                else:
                    if j is not None:
                        out = (out,) if len(old) == 1 else old[:j] + (out,) + old[j + 1 :]
                    out = copier(oo.__class__, f)(oo, out)
                ty = oo.annot
                continue
            self.seed(o, oo, False)
            self.memo[id(kid)] = (kid, out, ty)
            out, ty = self.rule(t)
        return out, ty

    def seed(self, o: Term, oo: Term, deep: bool) -> None:
        """Before the node that replaced o goes through the rules: each term
        child of o outside every binder (with `deep`, each node under o
        outside every binder) is given, in the memo, the conclusion o's
        elaboration oo holds for it. A successor shares all but one child with
        o; a contractum is built from nodes under the redex (the atoms of a
        collapsed frame's cells, the arguments of a beta, ...)."""
        memo, stack = self.memo, [(o, oo)]
        while stack:
            x, z = stack.pop()
            spine = _SPINE.get(x.__class__)
            if spine is None:
                continue
            for f, many in spine[1].values():
                a, c = getattr(x, f), getattr(z, f)
                for y, w in zip(a, c) if many else ((a, c),):
                    memo[id(y)] = (y, w, w.annot)
                    if deep:
                        stack.append((y, w))

    # -- atoms --------------------------------------------------------------

    def atom(self, a: AtomTerm, env: Env) -> tuple[AtomTerm, TypeExpr]:
        memo = self.memo if env is self.root else None
        if memo is not None:
            hit = memo.get(id(a))
            if hit is not None:
                return hit[1], hit[2]
        if isinstance(a, BaseVal):
            t = BaseType(a.base)
            cls, fields = BaseVal, (a.base, a.value)
        elif isinstance(a, PrimOp):
            if a.annot is not None:
                # Mid-instantiation operators only arise from evaluator
                # output; trust the annotation so stepped terms re-elaborate.
                check_kind(env, a.annot, Kind.ATOM, a.loc)
                t = a.annot
            else:
                t = self.sig.get(a.name)
                if t is None:
                    raise TypeCheckError(
                        ErrorKind.UNBOUND_VAR, f"unknown operator {a.name}", a.loc
                    )
            cls, fields = PrimOp, (a.name,)
        elif isinstance(a, Lam):
            for _, pt in a.params:
                check_kind(env, pt, Kind.ARRAY, a.loc)
            body, bt = self.expr(a.body, env.with_types(a.params))
            t = FunType(tuple(pt for _, pt in a.params), bt)
            cls, fields = Lam, (a.params, body)
        elif isinstance(a, TLam):
            body, bt = self.expr(a.body, env.with_kinds(a.binders))
            t = ForallType(a.binders, bt)
            cls, fields = TLam, (a.binders, body)
        elif isinstance(a, ILam):
            body, bt = self.expr(a.body, env.with_sorts(a.binders))
            t = PiType(a.binders, bt)
            cls, fields = ILam, (a.binders, body)
        elif isinstance(a, Box):
            if not isinstance(a.box_type, SigmaType):
                raise TypeCheckError(
                    ErrorKind.ANNOTATION_MISMATCH, "box annotation must be a Sigma type", a.loc
                )
            if len(a.indices) != len(a.box_type.binders):
                raise TypeCheckError(
                    ErrorKind.ANNOTATION_MISMATCH,
                    f"box supplies {len(a.indices)} indices for {len(a.box_type.binders)} binders",
                    a.loc,
                )
            for i, (_, srt) in zip(a.indices, a.box_type.binders):
                check_sort(env, i, srt, a.loc)
            check_kind(env, a.box_type, Kind.ATOM, a.loc)
            payload, pt = self.expr(a.payload, env)
            expected = subst_idx_in_type(
                a.box_type.body,
                {x: i for (x, _), i in zip(a.box_type.binders, a.indices)},
            )
            if not types_equal(pt, expected):
                raise TypeCheckError(
                    ErrorKind.ANNOTATION_MISMATCH,
                    "box payload type does not match the annotated Sigma body",
                    a.loc,
                )
            t = a.box_type
            cls, fields = Box, (a.indices, payload, t)
        else:
            raise TypeError(a)
        out = _conclude(a, t, env, Kind.ATOM, cls, fields)
        if memo is not None:
            memo[id(a)] = (a, out, t)
        return out, t

    # -- expressions ---------------------------------------------------------

    def expr(self, e: ExprTerm, env: Env) -> tuple[ExprTerm, TypeExpr]:
        memo = self.memo if env is self.root else None
        if memo is not None:
            hit = memo.get(id(e))
            if hit is not None:
                return hit[1], hit[2]
        if isinstance(e, Var):
            t = env.types.get(e.name)
            if t is None:
                raise TypeCheckError(
                    ErrorKind.UNBOUND_VAR, f"unbound variable {e.name}", e.loc
                )
            cls, fields = Var, (e.name,)

        elif isinstance(e, ArrayLit) and not e.atoms:
            if e.annot is None:
                raise TypeCheckError(
                    ErrorKind.CELL_MISMATCH,
                    "empty array literal needs a type annotation",
                    e.loc,
                )
            arr = _as_array_type(e.annot)
            if arr is None:
                raise TypeCheckError(
                    ErrorKind.ANNOTATION_MISMATCH,
                    "array annotation must be an array type",
                    e.loc,
                )
            check_kind(env, arr, Kind.ARRAY, e.loc)
            if not indices_equal(arr.shape, shape_of_dims(e.dims), shape=True):
                raise TypeCheckError(
                    ErrorKind.ANNOTATION_MISMATCH,
                    "annotated shape disagrees with the literal dimensions",
                    e.loc,
                )
            if element_count(e.dims) != 0:
                raise TypeCheckError(
                    ErrorKind.LENGTH_MISMATCH,
                    f"0 atoms for dimensions {list(e.dims)}",
                    e.loc,
                )
            t = ArrType(arr.elem, shape_of_dims(e.dims))
            cls, fields = ArrayLit, (e.dims, ())

        elif isinstance(e, ArrayLit):
            # Loops, not comprehensions: a comprehension is one more frame
            # per nesting level.
            atoms, types = [], []
            for a in e.atoms:
                a2, ta = self.atom(a, env)
                atoms.append(a2)
                types.append(ta)
            t0 = types[0]
            for ti in types[1:]:
                if not types_equal(t0, ti):
                    raise TypeCheckError(
                        ErrorKind.CELL_MISMATCH,
                        "array atoms do not share one type",
                        e.loc,
                    )
            check_kind(env, t0, Kind.ATOM, e.loc)
            if len(e.atoms) != element_count(e.dims):
                raise TypeCheckError(
                    ErrorKind.LENGTH_MISMATCH,
                    f"{len(e.atoms)} atoms for dimensions {list(e.dims)}",
                    e.loc,
                )
            t = ArrType(t0, shape_of_dims(e.dims))
            cls, fields = ArrayLit, (e.dims, tuple(atoms))

        elif isinstance(e, Frame) and not e.cells:
            if e.annot is None:
                raise TypeCheckError(
                    ErrorKind.CELL_MISMATCH,
                    "empty frame needs a type annotation",
                    e.loc,
                )
            arr = _as_array_type(e.annot)
            if arr is None:
                raise TypeCheckError(
                    ErrorKind.ANNOTATION_MISMATCH,
                    "frame annotation must be an array type",
                    e.loc,
                )
            check_kind(env, arr, Kind.ARRAY, e.loc)
            if element_count(e.dims) != 0:
                raise TypeCheckError(
                    ErrorKind.LENGTH_MISMATCH,
                    f"0 cells for dimensions {list(e.dims)}",
                    e.loc,
                )
            cell = prefix_subtract(
                canonicalize_shape(arr.shape),
                canonicalize_shape(shape_of_dims(e.dims)),
            )
            if cell is None:
                raise TypeCheckError(
                    ErrorKind.ANNOTATION_MISMATCH,
                    "annotated shape does not start with the frame dimensions",
                    e.loc,
                )
            t = arr
            cls, fields = Frame, (e.dims, ())

        elif isinstance(e, Frame):
            cells, types = [], []
            for c in e.cells:
                c2, tc = self.expr(c, env)
                cells.append(c2)
                types.append(tc)
            t0 = types[0]
            for ti in types[1:]:
                if not types_equal(t0, ti):
                    raise TypeCheckError(
                        ErrorKind.CELL_MISMATCH,
                        "frame cells do not share one type",
                        e.loc,
                    )
            arr = _as_array_type(t0)
            if arr is None:
                raise TypeCheckError(
                    ErrorKind.CELL_MISMATCH, "frame cell type is not an array type", e.loc
                )
            if len(e.cells) != element_count(e.dims):
                raise TypeCheckError(
                    ErrorKind.LENGTH_MISMATCH,
                    f"{len(e.cells)} cells for dimensions {list(e.dims)}",
                    e.loc,
                )
            t = ArrType(arr.elem, idx_append(shape_of_dims(e.dims), arr.shape))
            cls, fields = Frame, (e.dims, tuple(cells))

        elif isinstance(e, EmptyArray):
            check_kind(env, e.elem_type, Kind.ATOM, e.loc)
            if element_count(e.dims) != 0:
                raise TypeCheckError(
                    ErrorKind.LENGTH_MISMATCH,
                    "empty-array dimensions must contain a zero",
                    e.loc,
                )
            t = ArrType(e.elem_type, shape_of_dims(e.dims))
            cls, fields = ArrayLit, (e.dims, ())

        elif isinstance(e, EmptyFrame):
            check_kind(env, e.cell_type, Kind.ARRAY, e.loc)
            arr = _as_array_type(e.cell_type)
            if arr is None:
                raise TypeCheckError(
                    ErrorKind.CELL_MISMATCH, "frame cell type is not an array type", e.loc
                )
            if element_count(e.dims) != 0:
                raise TypeCheckError(
                    ErrorKind.LENGTH_MISMATCH,
                    "empty-frame dimensions must contain a zero",
                    e.loc,
                )
            t = ArrType(arr.elem, idx_append(shape_of_dims(e.dims), arr.shape))
            cls, fields = Frame, (e.dims, ())

        elif isinstance(e, App):
            fn, ft = self.expr(e.fn, env)
            arr = _as_array_type(ft)
            if arr is None or not isinstance(arr.elem, FunType):
                raise TypeCheckError(
                    ErrorKind.NOT_A_FUNCTION,
                    "function position is not an array of functions",
                    e.loc,
                )
            fun = arr.elem
            if len(e.args) != len(fun.inputs):
                raise TypeCheckError(
                    ErrorKind.NOT_A_FUNCTION,
                    f"function expects {len(fun.inputs)} arguments, got {len(e.args)}",
                    e.loc,
                )
            out_arr = _as_array_type(fun.output)
            if out_arr is None:
                raise TypeCheckError(
                    ErrorKind.NOT_A_FUNCTION,
                    "function output type is not an array type",
                    e.loc,
                )
            frames = [canonicalize_shape(arr.shape)]
            new_args = []
            for k, (argterm, in_t) in enumerate(zip(e.args, fun.inputs)):
                cell = _as_array_type(in_t)
                if cell is None:
                    raise TypeCheckError(
                        ErrorKind.CELL_MISMATCH,
                        f"argument {k + 1}: function input type is not an array type",
                        e.loc,
                    )
                arg, at = self.expr(argterm, env)
                a_arr = _as_array_type(at)
                if a_arr is None:
                    raise TypeCheckError(
                        ErrorKind.CELL_MISMATCH,
                        f"argument {k + 1} is not an array",
                        arg.loc or e.loc,
                    )
                if not types_equal(a_arr.elem, cell.elem):
                    raise TypeCheckError(
                        ErrorKind.CELL_MISMATCH,
                        f"argument {k + 1} atom type does not match the function input",
                        arg.loc or e.loc,
                    )
                frame = drop_suffix(
                    canonicalize_shape(a_arr.shape), canonicalize_shape(cell.shape)
                )
                if frame is None:
                    raise TypeCheckError(
                        ErrorKind.CELL_MISMATCH,
                        f"argument {k + 1} shape does not end with the expected cell shape",
                        arg.loc or e.loc,
                    )
                frames.append(frame)
                new_args.append(arg)
            join = frame_join(frames)
            if join.incompatible:
                raise TypeCheckError(
                    ErrorKind.FRAME_INCOMPATIBLE,
                    "function and argument frames are not prefix-ordered",
                    e.loc,
                )
            t = ArrType(out_arr.elem, idx_append(shape_to_index(join.shape), out_arr.shape))
            cls, fields = App, (fn, tuple(new_args))

        elif isinstance(e, TApp):
            fn, ft = self.expr(e.fn, env)
            arr = _as_array_type(ft)
            if arr is None or not isinstance(arr.elem, ForallType):
                raise TypeCheckError(
                    ErrorKind.NOT_A_FUNCTION,
                    "t-app needs an array of type abstractions",
                    e.loc,
                )
            univ = arr.elem
            if len(e.type_args) != len(univ.binders):
                raise TypeCheckError(
                    ErrorKind.NOT_A_FUNCTION,
                    f"t-app supplies {len(e.type_args)} types for {len(univ.binders)} binders",
                    e.loc,
                )
            for targ, (_, k) in zip(e.type_args, univ.binders):
                got = kind_of(env, targ, e.loc)
                if got is not k:
                    raise TypeCheckError(
                        ErrorKind.KIND_MISMATCH,
                        f"type argument has kind {got}, binder wants {k}",
                        e.loc,
                    )
            body = _as_array_type(univ.body)
            if body is None:
                raise TypeCheckError(
                    ErrorKind.NOT_A_FUNCTION,
                    "universal body is not an array type",
                    e.loc,
                )
            m = {x: targ for (x, _), targ in zip(univ.binders, e.type_args)}
            t = ArrType(subst_ty_in_type(body.elem, m), idx_append(arr.shape, body.shape))
            cls, fields = TApp, (fn, e.type_args)

        elif isinstance(e, IApp):
            fn, ft = self.expr(e.fn, env)
            arr = _as_array_type(ft)
            if arr is None or not isinstance(arr.elem, PiType):
                raise TypeCheckError(
                    ErrorKind.NOT_A_FUNCTION,
                    "i-app needs an array of index abstractions",
                    e.loc,
                )
            prod = arr.elem
            if len(e.idx_args) != len(prod.binders):
                raise TypeCheckError(
                    ErrorKind.NOT_A_FUNCTION,
                    f"i-app supplies {len(e.idx_args)} indices for {len(prod.binders)} binders",
                    e.loc,
                )
            for iarg, (_, srt) in zip(e.idx_args, prod.binders):
                check_sort(env, iarg, srt, e.loc)
            body = _as_array_type(prod.body)
            if body is None:
                raise TypeCheckError(
                    ErrorKind.NOT_A_FUNCTION,
                    "dependent-product body is not an array type",
                    e.loc,
                )
            m = {x: iarg for (x, _), iarg in zip(prod.binders, e.idx_args)}
            t = ArrType(
                subst_idx_in_type(body.elem, m),
                idx_append(arr.shape, subst_idx(body.shape, m)),
            )
            cls, fields = IApp, (fn, e.idx_args)

        elif isinstance(e, Unbox):
            box, bt = self.expr(e.box, env)
            arr = _as_array_type(bt)
            if arr is None or not isinstance(arr.elem, SigmaType):
                raise TypeCheckError(
                    ErrorKind.NOT_A_BOX, "unbox needs an array of boxes", e.loc
                )
            sigma = arr.elem
            if len(e.idx_vars) != len(sigma.binders):
                raise TypeCheckError(
                    ErrorKind.NOT_A_BOX,
                    f"unbox binds {len(e.idx_vars)} indices for {len(sigma.binders)} binders",
                    e.loc,
                )
            renaming = {
                x_old: IdxVar(x_new)
                for (x_old, _), x_new in zip(sigma.binders, e.idx_vars)
            }
            val_type = subst_idx_in_type(sigma.body, renaming)
            inner = env.with_sorts(
                [(x, srt) for x, (_, srt) in zip(e.idx_vars, sigma.binders)]
            ).with_types([(e.val_var, val_type)])
            body, t_body = self.expr(e.body, inner)
            escaping = free_idx_in_type(t_body) & set(e.idx_vars)
            if escaping:
                raise TypeCheckError(
                    ErrorKind.ESCAPING_INDEX_VAR,
                    f"unbox body type mentions hidden index {sorted(escaping)[0]}",
                    e.loc,
                )
            body_arr = _as_array_type(t_body)
            if body_arr is None:
                raise TypeCheckError(
                    ErrorKind.NOT_A_BOX, "unbox body type is not an array type", e.loc
                )
            t = ArrType(body_arr.elem, idx_append(arr.shape, body_arr.shape))
            cls, fields = Unbox, (e.idx_vars, e.val_var, box, body)

        else:
            raise TypeError(e)
        out = _conclude(e, t, env, Kind.ARRAY, cls, fields)
        if memo is not None:
            memo[id(e)] = (e, out, t)
        return out, t


_last: Optional[_Elaborator] = None


@gc_paused
def elaborate(env: Env, sig: Signature, t: Term) -> tuple[Term, TypeExpr]:
    """Type-check ``t`` under a well-formed environment, returning the term
    with every annotation slot filled and its (unique up to equivalence)
    type. Raises TypeCheckError on any rule violation.

    Consecutive calls with the same `sig` and `env` objects reuse the last
    call's conclusions as the module docstring describes; both are treated as
    immutable."""
    global _last
    check_env(env)
    el = _last
    if el is None or el.sig is not sig or el.root is not env:
        el = _last = _Elaborator(sig, env)
    return el.run(t)
