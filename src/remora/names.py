"""Binding machinery: free variables, capture-avoiding substitution for the
three variable namespaces (term, type, index), canonical renaming, and
alpha-equivalence.

Index, type, and term variables live in separate namespaces, matching the
three-part environment. A substitution in one namespace can still be
captured by a binder of another namespace occurring in its payload (a type
payload may mention free index variables, a term payload may mention free
index and type variables), so every binder site guards against the payload's
free variables of every relevant namespace.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Callable, Mapping

from .syntax import (
    App,
    ArrayLit,
    ArrType,
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

_GENSYM = itertools.count(1)


def base_name(name: str) -> str:
    return name.split("#", 1)[0]


def gensym(base: str) -> str:
    """Globally fresh name; the #r scheme cannot collide with source names
    (# is not lexable) nor with freshen's #<counter> names."""
    return f"{base_name(base)}#r{next(_GENSYM)}"


# ---------------------------------------------------------------------------
# Free variables


def free_idx_in_idx(i: IndexExpr) -> set[str]:
    if isinstance(i, NatLit):
        return set()
    if isinstance(i, IdxVar):
        return {i.name}
    if isinstance(i, Plus):
        return set().union(*(free_idx_in_idx(o) for o in i.operands), set())
    if isinstance(i, ShapeLit):
        return set().union(*(free_idx_in_idx(o) for o in i.dims), set())
    if isinstance(i, IdxAppend):
        return set().union(*(free_idx_in_idx(o) for o in i.operands), set())
    raise TypeError(i)


def free_idx_in_type(t: TypeExpr) -> set[str]:
    if isinstance(t, (BaseType, TyVar)):
        return set()
    if isinstance(t, FunType):
        out = free_idx_in_type(t.output)
        return out.union(*(free_idx_in_type(x) for x in t.inputs))
    if isinstance(t, ArrType):
        return free_idx_in_type(t.elem) | free_idx_in_idx(t.shape)
    if isinstance(t, ForallType):
        return free_idx_in_type(t.body)
    if isinstance(t, (PiType, SigmaType)):
        bound = {x for x, _ in t.binders}
        return free_idx_in_type(t.body) - bound
    raise TypeError(t)


def free_ty_in_type(t: TypeExpr) -> set[str]:
    if isinstance(t, BaseType):
        return set()
    if isinstance(t, TyVar):
        return {t.name}
    if isinstance(t, FunType):
        out = free_ty_in_type(t.output)
        return out.union(*(free_ty_in_type(x) for x in t.inputs))
    if isinstance(t, ArrType):
        return free_ty_in_type(t.elem)
    if isinstance(t, ForallType):
        bound = {x for x, _ in t.binders}
        return free_ty_in_type(t.body) - bound
    if isinstance(t, (PiType, SigmaType)):
        return free_ty_in_type(t.body)
    raise TypeError(t)


def _annot_free(t: Term, f: Callable[[TypeExpr], set[str]]) -> set[str]:
    return f(t.annot) if t.annot is not None else set()


def free_idx_in_term(t: Term) -> set[str]:
    acc = _annot_free(t, free_idx_in_type)
    if isinstance(t, (BaseVal, PrimOp, Var)):
        return acc
    if isinstance(t, Lam):
        return acc.union(
            *(free_idx_in_type(ty) for _, ty in t.params), free_idx_in_term(t.body)
        )
    if isinstance(t, TLam):
        return acc | free_idx_in_term(t.body)
    if isinstance(t, ILam):
        bound = {x for x, _ in t.binders}
        return acc | (free_idx_in_term(t.body) - bound)
    if isinstance(t, Box):
        return acc.union(
            *(free_idx_in_idx(i) for i in t.indices),
            free_idx_in_term(t.payload),
            free_idx_in_type(t.box_type),
        )
    if isinstance(t, ArrayLit):
        return acc.union(*(free_idx_in_term(a) for a in t.atoms), set())
    if isinstance(t, Frame):
        return acc.union(*(free_idx_in_term(c) for c in t.cells), set())
    if isinstance(t, EmptyArray):
        return acc | free_idx_in_type(t.elem_type)
    if isinstance(t, EmptyFrame):
        return acc | free_idx_in_type(t.cell_type)
    if isinstance(t, App):
        return acc.union(free_idx_in_term(t.fn), *(free_idx_in_term(a) for a in t.args))
    if isinstance(t, TApp):
        return acc.union(
            free_idx_in_term(t.fn), *(free_idx_in_type(x) for x in t.type_args)
        )
    if isinstance(t, IApp):
        return acc.union(
            free_idx_in_term(t.fn), *(free_idx_in_idx(i) for i in t.idx_args)
        )
    if isinstance(t, Unbox):
        bound = set(t.idx_vars)
        return acc | free_idx_in_term(t.box) | (free_idx_in_term(t.body) - bound)
    raise TypeError(t)


def free_ty_in_term(t: Term) -> set[str]:
    acc = _annot_free(t, free_ty_in_type)
    if isinstance(t, (BaseVal, PrimOp, Var)):
        return acc
    if isinstance(t, Lam):
        return acc.union(
            *(free_ty_in_type(ty) for _, ty in t.params), free_ty_in_term(t.body)
        )
    if isinstance(t, TLam):
        bound = {x for x, _ in t.binders}
        return acc | (free_ty_in_term(t.body) - bound)
    if isinstance(t, ILam):
        return acc | free_ty_in_term(t.body)
    if isinstance(t, Box):
        return acc | free_ty_in_term(t.payload) | free_ty_in_type(t.box_type)
    if isinstance(t, ArrayLit):
        return acc.union(*(free_ty_in_term(a) for a in t.atoms), set())
    if isinstance(t, Frame):
        return acc.union(*(free_ty_in_term(c) for c in t.cells), set())
    if isinstance(t, EmptyArray):
        return acc | free_ty_in_type(t.elem_type)
    if isinstance(t, EmptyFrame):
        return acc | free_ty_in_type(t.cell_type)
    if isinstance(t, App):
        return acc.union(free_ty_in_term(t.fn), *(free_ty_in_term(a) for a in t.args))
    if isinstance(t, TApp):
        return acc.union(
            free_ty_in_term(t.fn), *(free_ty_in_type(x) for x in t.type_args)
        )
    if isinstance(t, IApp):
        return acc | free_ty_in_term(t.fn)
    if isinstance(t, Unbox):
        return acc | free_ty_in_term(t.box) | free_ty_in_term(t.body)
    raise TypeError(t)


def free_term_vars(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, (BaseVal, PrimOp, EmptyArray, EmptyFrame)):
        return set()
    if isinstance(t, Lam):
        bound = {x for x, _ in t.params}
        return free_term_vars(t.body) - bound
    if isinstance(t, (TLam, ILam)):
        return free_term_vars(t.body)
    if isinstance(t, Box):
        return free_term_vars(t.payload)
    if isinstance(t, ArrayLit):
        return set().union(*(free_term_vars(a) for a in t.atoms), set())
    if isinstance(t, Frame):
        return set().union(*(free_term_vars(c) for c in t.cells), set())
    if isinstance(t, App):
        return set().union(free_term_vars(t.fn), *(free_term_vars(a) for a in t.args))
    if isinstance(t, (TApp, IApp)):
        return free_term_vars(t.fn)
    if isinstance(t, Unbox):
        return free_term_vars(t.box) | (free_term_vars(t.body) - {t.val_var})
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Substitution: indices into indices/types/terms


def subst_idx(i: IndexExpr, m: Mapping[str, IndexExpr]) -> IndexExpr:
    if not m:
        return i
    if isinstance(i, NatLit):
        return i
    if isinstance(i, IdxVar):
        return m.get(i.name, i)
    if isinstance(i, Plus):
        return Plus(tuple(subst_idx(o, m) for o in i.operands))
    if isinstance(i, ShapeLit):
        return ShapeLit(tuple(subst_idx(o, m) for o in i.dims))
    if isinstance(i, IdxAppend):
        return IdxAppend(tuple(subst_idx(o, m) for o in i.operands))
    raise TypeError(i)


def _retain(m: Mapping, bound: set[str]) -> dict:
    return {k: v for k, v in m.items() if k not in bound}


def _guard_idx_binders(
    binders: tuple, m: dict, payload_free: set[str]
) -> tuple[tuple, dict]:
    """Rename any index binder that would capture a payload variable; the
    renames ride along in the same substitution pass."""
    new_binders = []
    extra: dict[str, IndexExpr] = {}
    for x, s in binders:
        if x in payload_free:
            x2 = gensym(x)
            extra[x] = IdxVar(x2)
            new_binders.append((x2, s))
        else:
            new_binders.append((x, s))
    if extra:
        m = dict(m)
        m.update(extra)
    return tuple(new_binders), m


def subst_idx_in_type(t: TypeExpr, m: Mapping[str, IndexExpr]) -> TypeExpr:
    if not m:
        return t
    if isinstance(t, (BaseType, TyVar)):
        return t
    if isinstance(t, FunType):
        return FunType(
            tuple(subst_idx_in_type(x, m) for x in t.inputs),
            subst_idx_in_type(t.output, m),
        )
    if isinstance(t, ArrType):
        return ArrType(subst_idx_in_type(t.elem, m), subst_idx(t.shape, m))
    if isinstance(t, ForallType):
        return ForallType(t.binders, subst_idx_in_type(t.body, m))
    if isinstance(t, (PiType, SigmaType)):
        bound = {x for x, _ in t.binders}
        m2 = _retain(m, bound)
        if not m2:
            return t
        payload_free = set().union(*(free_idx_in_idx(v) for v in m2.values()), set())
        binders, m3 = _guard_idx_binders(t.binders, m2, payload_free)
        return type(t)(binders, subst_idx_in_type(t.body, m3))
    raise TypeError(t)


def subst_ty_in_type(t: TypeExpr, m: Mapping[str, TypeExpr]) -> TypeExpr:
    if not m:
        return t
    if isinstance(t, BaseType):
        return t
    if isinstance(t, TyVar):
        return m.get(t.name, t)
    if isinstance(t, FunType):
        return FunType(
            tuple(subst_ty_in_type(x, m) for x in t.inputs),
            subst_ty_in_type(t.output, m),
        )
    if isinstance(t, ArrType):
        return ArrType(subst_ty_in_type(t.elem, m), t.shape)
    if isinstance(t, ForallType):
        bound = {x for x, _ in t.binders}
        m2 = _retain(m, bound)
        if not m2:
            return t
        payload_free = set().union(*(free_ty_in_type(v) for v in m2.values()), set())
        new_binders = []
        renames: dict[str, TypeExpr] = {}
        for x, k in t.binders:
            if x in payload_free:
                x2 = gensym(x)
                renames[x] = TyVar(x2)
                new_binders.append((x2, k))
            else:
                new_binders.append((x, k))
        if renames:
            m2 = dict(m2)
            m2.update(renames)
        return ForallType(tuple(new_binders), subst_ty_in_type(t.body, m2))
    if isinstance(t, (PiType, SigmaType)):
        # Index binders can capture index variables free in the type payloads.
        payload_free = set().union(*(free_idx_in_type(v) for v in m.values()), set())
        binders, extra = _guard_idx_binders(t.binders, {}, payload_free)
        body = t.body if not extra else subst_idx_in_type(t.body, extra)
        return type(t)(binders, subst_ty_in_type(body, m))
    raise TypeError(t)


def _subst_annot(t, f):
    return None if t.annot is None else f(t.annot)


def subst_idx_in_term(t: Term, m: Mapping[str, IndexExpr]) -> Term:
    if not m:
        return t
    ann = _subst_annot(t, lambda a: subst_idx_in_type(a, m))
    if isinstance(t, (BaseVal, PrimOp, Var)):
        return replace(t, annot=ann)
    if isinstance(t, Lam):
        params = tuple((x, subst_idx_in_type(ty, m)) for x, ty in t.params)
        return replace(t, params=params, body=subst_idx_in_term(t.body, m), annot=ann)
    if isinstance(t, TLam):
        return replace(t, body=subst_idx_in_term(t.body, m), annot=ann)
    if isinstance(t, ILam):
        bound = {x for x, _ in t.binders}
        m2 = _retain(m, bound)
        if not m2:
            return replace(t, annot=ann)
        payload_free = set().union(*(free_idx_in_idx(v) for v in m2.values()), set())
        binders, m3 = _guard_idx_binders(t.binders, m2, payload_free)
        return replace(
            t, binders=binders, body=subst_idx_in_term(t.body, m3), annot=ann
        )
    if isinstance(t, Box):
        return replace(
            t,
            indices=tuple(subst_idx(i, m) for i in t.indices),
            payload=subst_idx_in_term(t.payload, m),
            box_type=subst_idx_in_type(t.box_type, m),
            annot=ann,
        )
    if isinstance(t, ArrayLit):
        return replace(
            t, atoms=tuple(subst_idx_in_term(a, m) for a in t.atoms), annot=ann
        )
    if isinstance(t, Frame):
        return replace(
            t, cells=tuple(subst_idx_in_term(c, m) for c in t.cells), annot=ann
        )
    if isinstance(t, EmptyArray):
        return replace(t, elem_type=subst_idx_in_type(t.elem_type, m), annot=ann)
    if isinstance(t, EmptyFrame):
        return replace(t, cell_type=subst_idx_in_type(t.cell_type, m), annot=ann)
    if isinstance(t, App):
        return replace(
            t,
            fn=subst_idx_in_term(t.fn, m),
            args=tuple(subst_idx_in_term(a, m) for a in t.args),
            annot=ann,
        )
    if isinstance(t, TApp):
        return replace(
            t,
            fn=subst_idx_in_term(t.fn, m),
            type_args=tuple(subst_idx_in_type(x, m) for x in t.type_args),
            annot=ann,
        )
    if isinstance(t, IApp):
        return replace(
            t,
            fn=subst_idx_in_term(t.fn, m),
            idx_args=tuple(subst_idx(i, m) for i in t.idx_args),
            annot=ann,
        )
    if isinstance(t, Unbox):
        box = subst_idx_in_term(t.box, m)
        bound = set(t.idx_vars)
        m2 = _retain(m, bound)
        if not m2:
            return replace(t, box=box, annot=ann)
        payload_free = set().union(*(free_idx_in_idx(v) for v in m2.values()), set())
        idx_vars = []
        extra: dict[str, IndexExpr] = {}
        for x in t.idx_vars:
            if x in payload_free:
                x2 = gensym(x)
                extra[x] = IdxVar(x2)
                idx_vars.append(x2)
            else:
                idx_vars.append(x)
        m3 = dict(m2, **extra) if extra else m2
        return replace(
            t,
            idx_vars=tuple(idx_vars),
            box=box,
            body=subst_idx_in_term(t.body, m3),
            annot=ann,
        )
    raise TypeError(t)


def subst_ty_in_term(t: Term, m: Mapping[str, TypeExpr]) -> Term:
    if not m:
        return t
    ann = _subst_annot(t, lambda a: subst_ty_in_type(a, m))
    if isinstance(t, (BaseVal, PrimOp, Var)):
        return replace(t, annot=ann)
    if isinstance(t, Lam):
        params = tuple((x, subst_ty_in_type(ty, m)) for x, ty in t.params)
        return replace(t, params=params, body=subst_ty_in_term(t.body, m), annot=ann)
    if isinstance(t, TLam):
        bound = {x for x, _ in t.binders}
        m2 = _retain(m, bound)
        if not m2:
            return replace(t, annot=ann)
        payload_free = set().union(*(free_ty_in_type(v) for v in m2.values()), set())
        new_binders = []
        renames: dict[str, TypeExpr] = {}
        for x, k in t.binders:
            if x in payload_free:
                x2 = gensym(x)
                renames[x] = TyVar(x2)
                new_binders.append((x2, k))
            else:
                new_binders.append((x, k))
        m3 = dict(m2, **renames) if renames else m2
        return replace(
            t, binders=tuple(new_binders), body=subst_ty_in_term(t.body, m3), annot=ann
        )
    if isinstance(t, ILam):
        # Index binders can capture index variables free in the payloads.
        payload_free = set().union(*(free_idx_in_type(v) for v in m.values()), set())
        binders, extra = _guard_idx_binders(t.binders, {}, payload_free)
        body = t.body if not extra else subst_idx_in_term(t.body, extra)
        return replace(t, binders=binders, body=subst_ty_in_term(body, m), annot=ann)
    if isinstance(t, Box):
        return replace(
            t,
            payload=subst_ty_in_term(t.payload, m),
            box_type=subst_ty_in_type(t.box_type, m),
            annot=ann,
        )
    if isinstance(t, ArrayLit):
        return replace(
            t, atoms=tuple(subst_ty_in_term(a, m) for a in t.atoms), annot=ann
        )
    if isinstance(t, Frame):
        return replace(
            t, cells=tuple(subst_ty_in_term(c, m) for c in t.cells), annot=ann
        )
    if isinstance(t, EmptyArray):
        return replace(t, elem_type=subst_ty_in_type(t.elem_type, m), annot=ann)
    if isinstance(t, EmptyFrame):
        return replace(t, cell_type=subst_ty_in_type(t.cell_type, m), annot=ann)
    if isinstance(t, App):
        return replace(
            t,
            fn=subst_ty_in_term(t.fn, m),
            args=tuple(subst_ty_in_term(a, m) for a in t.args),
            annot=ann,
        )
    if isinstance(t, TApp):
        return replace(
            t,
            fn=subst_ty_in_term(t.fn, m),
            type_args=tuple(subst_ty_in_type(x, m) for x in t.type_args),
            annot=ann,
        )
    if isinstance(t, IApp):
        return replace(t, fn=subst_ty_in_term(t.fn, m), annot=ann)
    if isinstance(t, Unbox):
        box = subst_ty_in_term(t.box, m)
        payload_free = set().union(*(free_idx_in_type(v) for v in m.values()), set())
        idx_vars = []
        extra: dict[str, IndexExpr] = {}
        for x in t.idx_vars:
            if x in payload_free:
                x2 = gensym(x)
                extra[x] = IdxVar(x2)
                idx_vars.append(x2)
            else:
                idx_vars.append(x)
        body = t.body if not extra else subst_idx_in_term(t.body, extra)
        return replace(
            t,
            idx_vars=tuple(idx_vars),
            box=box,
            body=subst_ty_in_term(body, m),
            annot=ann,
        )
    raise TypeError(t)


def subst_term(t: Term, m: Mapping[str, ExprTerm]) -> Term:
    """Simultaneous capture-avoiding substitution of expressions for term
    variables. Annotations and types are untouched (term variables do not
    occur in them), but binders of every namespace guard against capturing
    the payloads' free variables."""
    if not m:
        return t
    if isinstance(t, Var):
        return m.get(t.name, t)
    if isinstance(t, (BaseVal, PrimOp, EmptyArray, EmptyFrame)):
        return t
    if isinstance(t, Lam):
        bound = {x for x, _ in t.params}
        m2 = _retain(m, bound)
        if not m2:
            return t
        payload_free = set().union(*(free_term_vars(v) for v in m2.values()), set())
        params = []
        renames: dict[str, ExprTerm] = {}
        for x, ty in t.params:
            if x in payload_free:
                x2 = gensym(x)
                renames[x] = Var(x2)
                params.append((x2, ty))
            else:
                params.append((x, ty))
        m3 = dict(m2, **renames) if renames else m2
        return replace(t, params=tuple(params), body=subst_term(t.body, m3))
    if isinstance(t, TLam):
        payload_free = set().union(*(free_ty_in_term(v) for v in m.values()), set())
        new_binders = []
        renames: dict[str, TypeExpr] = {}
        for x, k in t.binders:
            if x in payload_free:
                x2 = gensym(x)
                renames[x] = TyVar(x2)
                new_binders.append((x2, k))
            else:
                new_binders.append((x, k))
        body = t.body if not renames else subst_ty_in_term(t.body, renames)
        return replace(t, binders=tuple(new_binders), body=subst_term(body, m))
    if isinstance(t, ILam):
        payload_free = set().union(*(free_idx_in_term(v) for v in m.values()), set())
        binders, extra = _guard_idx_binders(t.binders, {}, payload_free)
        body = t.body if not extra else subst_idx_in_term(t.body, extra)
        return replace(t, binders=binders, body=subst_term(body, m))
    if isinstance(t, Box):
        return replace(t, payload=subst_term(t.payload, m))
    if isinstance(t, ArrayLit):
        return replace(t, atoms=tuple(subst_term(a, m) for a in t.atoms))
    if isinstance(t, Frame):
        return replace(t, cells=tuple(subst_term(c, m) for c in t.cells))
    if isinstance(t, App):
        return replace(
            t, fn=subst_term(t.fn, m), args=tuple(subst_term(a, m) for a in t.args)
        )
    if isinstance(t, (TApp, IApp)):
        return replace(t, fn=subst_term(t.fn, m))
    if isinstance(t, Unbox):
        box = subst_term(t.box, m)
        m2 = _retain(m, {t.val_var})
        if not m2:
            return replace(t, box=box)
        payload_free_tm = set().union(*(free_term_vars(v) for v in m2.values()), set())
        payload_free_ix = set().union(
            *(free_idx_in_term(v) for v in m2.values()), set()
        )
        idx_vars = []
        extra_ix: dict[str, IndexExpr] = {}
        for x in t.idx_vars:
            if x in payload_free_ix:
                x2 = gensym(x)
                extra_ix[x] = IdxVar(x2)
                idx_vars.append(x2)
            else:
                idx_vars.append(x)
        body = t.body if not extra_ix else subst_idx_in_term(t.body, extra_ix)
        val_var = t.val_var
        if val_var in payload_free_tm:
            v2 = gensym(val_var)
            body = subst_term(body, {val_var: Var(v2)})
            val_var = v2
        return replace(
            t,
            idx_vars=tuple(idx_vars),
            val_var=val_var,
            box=box,
            body=subst_term(body, m2),
        )
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Canonical renaming (freshen) and alpha-equivalence


class _Freshener:
    def __init__(self, salt: str = "") -> None:
        self._n = 0
        self._salt = salt

    def fresh(self, name: str) -> str:
        self._n += 1
        return f"{base_name(name)}#{self._salt}{self._n}"

    # env maps: separate namespaces, old name -> new name
    def idx(self, i: IndexExpr, ix: dict) -> IndexExpr:
        if isinstance(i, NatLit):
            return i
        if isinstance(i, IdxVar):
            return IdxVar(ix.get(i.name, i.name))
        if isinstance(i, Plus):
            return Plus(tuple(self.idx(o, ix) for o in i.operands))
        if isinstance(i, ShapeLit):
            return ShapeLit(tuple(self.idx(o, ix) for o in i.dims))
        if isinstance(i, IdxAppend):
            return IdxAppend(tuple(self.idx(o, ix) for o in i.operands))
        raise TypeError(i)

    def type(self, t: TypeExpr, ix: dict, ty: dict) -> TypeExpr:
        if isinstance(t, BaseType):
            return t
        if isinstance(t, TyVar):
            return TyVar(ty.get(t.name, t.name))
        if isinstance(t, FunType):
            return FunType(
                tuple(self.type(x, ix, ty) for x in t.inputs),
                self.type(t.output, ix, ty),
            )
        if isinstance(t, ArrType):
            return ArrType(self.type(t.elem, ix, ty), self.idx(t.shape, ix))
        if isinstance(t, ForallType):
            ty2 = dict(ty)
            binders = []
            for x, k in t.binders:
                x2 = self.fresh(x)
                ty2[x] = x2
                binders.append((x2, k))
            return ForallType(tuple(binders), self.type(t.body, ix, ty2))
        if isinstance(t, (PiType, SigmaType)):
            ix2 = dict(ix)
            binders = []
            for x, s in t.binders:
                x2 = self.fresh(x)
                ix2[x] = x2
                binders.append((x2, s))
            return type(t)(tuple(binders), self.type(t.body, ix2, ty))
        raise TypeError(t)

    def term(self, t: Term, ix: dict, ty: dict, tm: dict) -> Term:
        ann = None if t.annot is None else self.type(t.annot, ix, ty)
        if isinstance(t, BaseVal):
            return replace(t, annot=ann)
        if isinstance(t, PrimOp):
            return replace(t, annot=ann)
        if isinstance(t, Var):
            return replace(t, name=tm.get(t.name, t.name), annot=ann)
        if isinstance(t, Lam):
            tm2 = dict(tm)
            params = []
            for x, pty in t.params:
                x2 = self.fresh(x)
                tm2[x] = x2
                params.append((x2, self.type(pty, ix, ty)))
            return replace(
                t, params=tuple(params), body=self.term(t.body, ix, ty, tm2), annot=ann
            )
        if isinstance(t, TLam):
            ty2 = dict(ty)
            binders = []
            for x, k in t.binders:
                x2 = self.fresh(x)
                ty2[x] = x2
                binders.append((x2, k))
            return replace(
                t, binders=tuple(binders), body=self.term(t.body, ix, ty2, tm), annot=ann
            )
        if isinstance(t, ILam):
            ix2 = dict(ix)
            binders = []
            for x, s in t.binders:
                x2 = self.fresh(x)
                ix2[x] = x2
                binders.append((x2, s))
            return replace(
                t, binders=tuple(binders), body=self.term(t.body, ix2, ty, tm), annot=ann
            )
        if isinstance(t, Box):
            return replace(
                t,
                indices=tuple(self.idx(i, ix) for i in t.indices),
                payload=self.term(t.payload, ix, ty, tm),
                box_type=self.type(t.box_type, ix, ty),
                annot=ann,
            )
        if isinstance(t, ArrayLit):
            return replace(
                t, atoms=tuple(self.term(a, ix, ty, tm) for a in t.atoms), annot=ann
            )
        if isinstance(t, Frame):
            return replace(
                t, cells=tuple(self.term(c, ix, ty, tm) for c in t.cells), annot=ann
            )
        if isinstance(t, EmptyArray):
            return replace(t, elem_type=self.type(t.elem_type, ix, ty), annot=ann)
        if isinstance(t, EmptyFrame):
            return replace(t, cell_type=self.type(t.cell_type, ix, ty), annot=ann)
        if isinstance(t, App):
            return replace(
                t,
                fn=self.term(t.fn, ix, ty, tm),
                args=tuple(self.term(a, ix, ty, tm) for a in t.args),
                annot=ann,
            )
        if isinstance(t, TApp):
            return replace(
                t,
                fn=self.term(t.fn, ix, ty, tm),
                type_args=tuple(self.type(x, ix, ty) for x in t.type_args),
                annot=ann,
            )
        if isinstance(t, IApp):
            return replace(
                t,
                fn=self.term(t.fn, ix, ty, tm),
                idx_args=tuple(self.idx(i, ix) for i in t.idx_args),
                annot=ann,
            )
        if isinstance(t, Unbox):
            box = self.term(t.box, ix, ty, tm)
            ix2 = dict(ix)
            idx_vars = []
            for x in t.idx_vars:
                x2 = self.fresh(x)
                ix2[x] = x2
                idx_vars.append(x2)
            tm2 = dict(tm)
            v2 = self.fresh(t.val_var)
            tm2[t.val_var] = v2
            return replace(
                t,
                idx_vars=tuple(idx_vars),
                val_var=v2,
                box=box,
                body=self.term(t.body, ix2, ty, tm2),
                annot=ann,
            )
        raise TypeError(t)


def freshen(t: Term, salt: str = "") -> Term:
    """Rename every binder (term, type, and index level, including binders
    inside types) to a canonical name#N from a per-call counter. Free
    variables are untouched; the result is alpha-equivalent to the input and
    freshen is idempotent up to literal equality. A salt makes two passes
    produce disjoint name supplies."""
    return _Freshener(salt).term(t, {}, {}, {})


def freshen_type(t: TypeExpr, salt: str = "") -> TypeExpr:
    return _Freshener(salt).type(t, {}, {})


# ---------------------------------------------------------------------------
# Alpha-equivalence (structural, binder-aware; annotations compared too)


def _alpha_idx(a: IndexExpr, b: IndexExpr, ixa: dict, ixb: dict) -> bool:
    if isinstance(a, NatLit) and isinstance(b, NatLit):
        return a.value == b.value
    if isinstance(a, IdxVar) and isinstance(b, IdxVar):
        ra, rb = ixa.get(a.name), ixb.get(b.name)
        if ra is None and rb is None:
            return a.name == b.name
        return ra is not None and ra == rb
    if isinstance(a, Plus) and isinstance(b, Plus):
        return len(a.operands) == len(b.operands) and all(
            _alpha_idx(x, y, ixa, ixb) for x, y in zip(a.operands, b.operands)
        )
    if isinstance(a, ShapeLit) and isinstance(b, ShapeLit):
        return len(a.dims) == len(b.dims) and all(
            _alpha_idx(x, y, ixa, ixb) for x, y in zip(a.dims, b.dims)
        )
    if isinstance(a, IdxAppend) and isinstance(b, IdxAppend):
        return len(a.operands) == len(b.operands) and all(
            _alpha_idx(x, y, ixa, ixb) for x, y in zip(a.operands, b.operands)
        )
    return False


def _alpha_type(a, b, ixa, ixb, tya, tyb, lvl) -> bool:
    if isinstance(a, BaseType) and isinstance(b, BaseType):
        return a.name == b.name
    if isinstance(a, TyVar) and isinstance(b, TyVar):
        ra, rb = tya.get(a.name), tyb.get(b.name)
        if ra is None and rb is None:
            return a.name == b.name
        return ra is not None and ra == rb
    if isinstance(a, FunType) and isinstance(b, FunType):
        return (
            len(a.inputs) == len(b.inputs)
            and all(
                _alpha_type(x, y, ixa, ixb, tya, tyb, lvl)
                for x, y in zip(a.inputs, b.inputs)
            )
            and _alpha_type(a.output, b.output, ixa, ixb, tya, tyb, lvl)
        )
    if isinstance(a, ArrType) and isinstance(b, ArrType):
        return _alpha_type(a.elem, b.elem, ixa, ixb, tya, tyb, lvl) and _alpha_idx(
            a.shape, b.shape, ixa, ixb
        )
    if isinstance(a, ForallType) and isinstance(b, ForallType):
        if len(a.binders) != len(b.binders):
            return False
        if any(ka != kb for (_, ka), (_, kb) in zip(a.binders, b.binders)):
            return False
        tya2, tyb2 = dict(tya), dict(tyb)
        for i, ((xa, _), (xb, _)) in enumerate(zip(a.binders, b.binders)):
            tya2[xa] = tyb2[xb] = (lvl, i)
        return _alpha_type(a.body, b.body, ixa, ixb, tya2, tyb2, lvl + 1)
    if type(a) is type(b) and isinstance(a, (PiType, SigmaType)):
        if len(a.binders) != len(b.binders):
            return False
        if any(sa != sb for (_, sa), (_, sb) in zip(a.binders, b.binders)):
            return False
        ixa2, ixb2 = dict(ixa), dict(ixb)
        for i, ((xa, _), (xb, _)) in enumerate(zip(a.binders, b.binders)):
            ixa2[xa] = ixb2[xb] = (lvl, i)
        return _alpha_type(a.body, b.body, ixa2, ixb2, tya, tyb, lvl + 1)
    return False


def _alpha_annot(a, b, ixa, ixb, tya, tyb, lvl) -> bool:
    if (a.annot is None) != (b.annot is None):
        return False
    if a.annot is None:
        return True
    return _alpha_type(a.annot, b.annot, ixa, ixb, tya, tyb, lvl)


def _alpha_term(a, b, ixa, ixb, tya, tyb, tma, tmb, lvl) -> bool:
    if type(a) is not type(b):
        return False
    if not _alpha_annot(a, b, ixa, ixb, tya, tyb, lvl):
        return False
    if isinstance(a, BaseVal):
        return a.base == b.base and a.value == b.value
    if isinstance(a, PrimOp):
        return a.name == b.name
    if isinstance(a, Var):
        ra, rb = tma.get(a.name), tmb.get(b.name)
        if ra is None and rb is None:
            return a.name == b.name
        return ra is not None and ra == rb
    if isinstance(a, Lam):
        if len(a.params) != len(b.params):
            return False
        for (_, ta), (_, tb) in zip(a.params, b.params):
            if not _alpha_type(ta, tb, ixa, ixb, tya, tyb, lvl):
                return False
        tma2, tmb2 = dict(tma), dict(tmb)
        for i, ((xa, _), (xb, _)) in enumerate(zip(a.params, b.params)):
            tma2[xa] = tmb2[xb] = (lvl, i)
        return _alpha_term(a.body, b.body, ixa, ixb, tya, tyb, tma2, tmb2, lvl + 1)
    if isinstance(a, TLam):
        if len(a.binders) != len(b.binders) or any(
            ka != kb for (_, ka), (_, kb) in zip(a.binders, b.binders)
        ):
            return False
        tya2, tyb2 = dict(tya), dict(tyb)
        for i, ((xa, _), (xb, _)) in enumerate(zip(a.binders, b.binders)):
            tya2[xa] = tyb2[xb] = (lvl, i)
        return _alpha_term(a.body, b.body, ixa, ixb, tya2, tyb2, tma, tmb, lvl + 1)
    if isinstance(a, ILam):
        if len(a.binders) != len(b.binders) or any(
            sa != sb for (_, sa), (_, sb) in zip(a.binders, b.binders)
        ):
            return False
        ixa2, ixb2 = dict(ixa), dict(ixb)
        for i, ((xa, _), (xb, _)) in enumerate(zip(a.binders, b.binders)):
            ixa2[xa] = ixb2[xb] = (lvl, i)
        return _alpha_term(a.body, b.body, ixa2, ixb2, tya, tyb, tma, tmb, lvl + 1)
    if isinstance(a, Box):
        return (
            len(a.indices) == len(b.indices)
            and all(_alpha_idx(x, y, ixa, ixb) for x, y in zip(a.indices, b.indices))
            and _alpha_type(a.box_type, b.box_type, ixa, ixb, tya, tyb, lvl)
            and _alpha_term(a.payload, b.payload, ixa, ixb, tya, tyb, tma, tmb, lvl)
        )
    if isinstance(a, ArrayLit):
        return (
            a.dims == b.dims
            and len(a.atoms) == len(b.atoms)
            and all(
                _alpha_term(x, y, ixa, ixb, tya, tyb, tma, tmb, lvl)
                for x, y in zip(a.atoms, b.atoms)
            )
        )
    if isinstance(a, Frame):
        return (
            a.dims == b.dims
            and len(a.cells) == len(b.cells)
            and all(
                _alpha_term(x, y, ixa, ixb, tya, tyb, tma, tmb, lvl)
                for x, y in zip(a.cells, b.cells)
            )
        )
    if isinstance(a, EmptyArray):
        return a.dims == b.dims and _alpha_type(
            a.elem_type, b.elem_type, ixa, ixb, tya, tyb, lvl
        )
    if isinstance(a, EmptyFrame):
        return a.dims == b.dims and _alpha_type(
            a.cell_type, b.cell_type, ixa, ixb, tya, tyb, lvl
        )
    if isinstance(a, App):
        return (
            len(a.args) == len(b.args)
            and _alpha_term(a.fn, b.fn, ixa, ixb, tya, tyb, tma, tmb, lvl)
            and all(
                _alpha_term(x, y, ixa, ixb, tya, tyb, tma, tmb, lvl)
                for x, y in zip(a.args, b.args)
            )
        )
    if isinstance(a, TApp):
        return (
            len(a.type_args) == len(b.type_args)
            and _alpha_term(a.fn, b.fn, ixa, ixb, tya, tyb, tma, tmb, lvl)
            and all(
                _alpha_type(x, y, ixa, ixb, tya, tyb, lvl)
                for x, y in zip(a.type_args, b.type_args)
            )
        )
    if isinstance(a, IApp):
        return (
            len(a.idx_args) == len(b.idx_args)
            and _alpha_term(a.fn, b.fn, ixa, ixb, tya, tyb, tma, tmb, lvl)
            and all(_alpha_idx(x, y, ixa, ixb) for x, y in zip(a.idx_args, b.idx_args))
        )
    if isinstance(a, Unbox):
        if len(a.idx_vars) != len(b.idx_vars):
            return False
        if not _alpha_term(a.box, b.box, ixa, ixb, tya, tyb, tma, tmb, lvl):
            return False
        ixa2, ixb2 = dict(ixa), dict(ixb)
        for i, (xa, xb) in enumerate(zip(a.idx_vars, b.idx_vars)):
            ixa2[xa] = ixb2[xb] = (lvl, i)
        tma2, tmb2 = dict(tma), dict(tmb)
        tma2[a.val_var] = tmb2[b.val_var] = (lvl, -1)
        return _alpha_term(a.body, b.body, ixa2, ixb2, tya, tyb, tma2, tmb2, lvl + 1)
    raise TypeError(a)


def alpha_equal(a: Term, b: Term) -> bool:
    return _alpha_term(a, b, {}, {}, {}, {}, {}, {}, 0)
