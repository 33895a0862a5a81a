"""Binding machinery of the typed and the erased language, derived from one
table: free variables, capture-avoiding substitution, canonical renaming
(freshen), alpha-equivalence and named term children.

Variables live in three namespaces: index (bound by Pi, Sigma, ilam and the
index variables of unbox), type (Forall, tlam) and term (lam, the value
variable of unbox); erased terms keep the index and term ones. `SCHEMA` gives
each field of every index, type, term and erased class of `syntax`, other
than `loc`, one role:

- `Child(cat, shape, tag)`: an index, type or term (the category); one, a
  tuple (MANY) or an optional one (OPT, the `annot` of a term). `subst`
  respells canonically each residual tag of an erased term (TAG) it rewrites;
- `Binder(ns, form)`: names bound in namespace ns, as (name, Kind/Sort) pairs,
  (name, type) pairs whose types lie outside the scope (TYPED, lam
  parameters), a tuple of names, or one name;
- `Scope(cat)`: the one child the node's binders scope over;
- `DATA`: dims, base values, names, kinds and sorts.

`IdxVar`, `TyVar`, `Var` and `EVar` are the variable leaves. `free_vars`,
`subst`, `freshen`, `alpha_equal` and `term_children` are derived from the
table; the `free_*` and `subst_*` names are entry points. A traversal skips a
field whose category cannot hold its namespace's variables: an index holds
only index variables, a type index and type variables.

A payload can be captured by a binder of any namespace its free variables live
in. `subst` renames a binder with `gensym`, in field order, exactly when its
name is free, in the binder's namespace, in a payload still in scope there;
each occurrence of a renamed variable keeps its annotation and location.
Renames in the substitution's own namespace ride along in the same pass;
those in another are substituted into the scope first. Each payload's free
variables are computed once per substitution, and a node none of whose fields
changed is returned as it is.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from operator import is_
from typing import Mapping

from . import syntax as S
from .indices import normalize_tag
from .syntax import ExprTerm, IndexExpr, Term, TypeExpr

_GENSYM = itertools.count(1)


def base_name(name: str) -> str:
    return name.split("#", 1)[0]


def gensym(base: str) -> str:
    """Globally fresh name; the #r scheme cannot collide with source names
    (# is not lexable) nor with freshen's #<counter> names."""
    return f"{base_name(base)}#r{next(_GENSYM)}"


# ---------------------------------------------------------------------------
# The schema

# Namespaces, and the categories of children: a child of category c can hold
# variables of namespace ns exactly when ns <= c.
IDX, TY, TM = 0, 1, 2
ONE, MANY, OPT = "one", "many", "opt"
PAIRS, TYPED, NAMES, NAME = "pairs", "typed", "names", "name"
DATA = "data"

Child = namedtuple("Child", "cat shape tag", defaults=(ONE, False))
Binder = namedtuple("Binder", "ns form")
Scope = namedtuple("Scope", "cat")

_ANNOT = Child(TY, OPT)
TAG, TAGS = Child(IDX, ONE, True), Child(IDX, MANY, True)

# Fields in the order the traversals visit them: annotation first, scope last.
SCHEMA: dict[type, dict[str, object]] = {
    S.NatLit: {"value": DATA},
    S.IdxVar: {"name": DATA},
    S.Plus: {"operands": Child(IDX, MANY)},
    S.ShapeLit: {"dims": Child(IDX, MANY)},
    S.IdxAppend: {"operands": Child(IDX, MANY)},
    S.BaseType: {"name": DATA},
    S.TyVar: {"name": DATA},
    S.FunType: {"inputs": Child(TY, MANY), "output": Child(TY)},
    S.ArrType: {"elem": Child(TY), "shape": Child(IDX)},
    S.ForallType: {"binders": Binder(TY, PAIRS), "body": Scope(TY)},
    S.PiType: {"binders": Binder(IDX, PAIRS), "body": Scope(TY)},
    S.SigmaType: {"binders": Binder(IDX, PAIRS), "body": Scope(TY)},
    S.BaseVal: {"annot": _ANNOT, "base": DATA, "value": DATA},
    S.PrimOp: {"annot": _ANNOT, "name": DATA},
    S.Lam: {"annot": _ANNOT, "params": Binder(TM, TYPED), "body": Scope(TM)},
    S.TLam: {"annot": _ANNOT, "binders": Binder(TY, PAIRS), "body": Scope(TM)},
    S.ILam: {"annot": _ANNOT, "binders": Binder(IDX, PAIRS), "body": Scope(TM)},
    S.Box: {
        "annot": _ANNOT,
        "indices": Child(IDX, MANY),
        "payload": Child(TM),
        "box_type": Child(TY),
    },
    S.Var: {"annot": _ANNOT, "name": DATA},
    S.ArrayLit: {"annot": _ANNOT, "dims": DATA, "atoms": Child(TM, MANY)},
    S.Frame: {"annot": _ANNOT, "dims": DATA, "cells": Child(TM, MANY)},
    S.EmptyArray: {"annot": _ANNOT, "elem_type": Child(TY), "dims": DATA},
    S.EmptyFrame: {"annot": _ANNOT, "cell_type": Child(TY), "dims": DATA},
    S.App: {"annot": _ANNOT, "fn": Child(TM), "args": Child(TM, MANY)},
    S.TApp: {"annot": _ANNOT, "fn": Child(TM), "type_args": Child(TY, MANY)},
    S.IApp: {"annot": _ANNOT, "fn": Child(TM), "idx_args": Child(IDX, MANY)},
    S.Unbox: {
        "annot": _ANNOT,
        "box": Child(TM),
        "idx_vars": Binder(IDX, NAMES),
        "val_var": Binder(TM, NAME),
        "body": Scope(TM),
    },
    S.EBase: {"base": DATA, "value": DATA},
    S.EOp: {"name": DATA},
    S.ELam: {"params": Binder(TM, NAMES), "body": Scope(TM)},
    S.EILam: {"params": Binder(IDX, NAMES), "body": Scope(TM)},
    S.EBox: {"indices": TAGS, "payload": Child(TM)},
    S.EVar: {"name": DATA},
    S.EArray: {"dims": DATA, "atoms": Child(TM, MANY)},
    S.EFrame: {"shape": TAG, "cells": Child(TM, MANY)},
    S.EApp: {"fn": Child(TM), "args": Child(TM, MANY), "arg_shapes": TAGS, "out_shape": TAG},
    S.EIApp: {"fn": Child(TM), "idx_args": TAGS, "out_shape": TAG},
    S.EUnbox: {
        "idx_vars": Binder(IDX, NAMES),
        "val_var": Binder(TM, NAME),
        "box": Child(TM),
        "body_shape": TAG,
        "body": Scope(TM),
    },
}

LEAVES = {S.IdxVar: IDX, S.TyVar: TY, S.Var: TM, S.EVar: TM}


def _split(cls: type) -> tuple:
    """(data, children, binders, scope) of a class: the data fields (a leaf's
    name excluded), (field, shape, cat, tag) of the children outside the
    scope, (field, form, ns) of the binders, and the scope's (field, cat) or
    None."""
    data, kids, binders, scope = [], [], [], None
    for f, role in SCHEMA[cls].items():
        if isinstance(role, Child):
            kids.append((f, role.shape, role.cat, role.tag))
        elif isinstance(role, Binder):
            binders.append((f, role.form, role.ns))
        elif isinstance(role, Scope):
            scope = (f, role.cat)
        elif not (f == "name" and cls in LEAVES):
            data.append(f)
    return tuple(data), tuple(kids), tuple(binders), scope


def _plan(cls: type, ns: int):
    """What `free_vars` and `subst` visit in namespace ns: None for a variable
    of ns; else (field, shape, tag) of the children outside the scope that can
    hold its variables; the binders, when one can capture a payload's variable
    (its namespace is at most ns) or has types that can; the scope field, else
    the scope is one more child."""
    if LEAVES.get(cls) == ns:
        return None
    _, kids, binders, scope = _SPLIT[cls]
    plain = tuple((f, shape, tag) for f, shape, cat, tag in kids if ns <= cat)
    if scope is None or scope[1] < ns:
        return plain, (), None
    if not any(bns <= ns or (form == TYPED and ns <= TY) for _, form, bns in binders):
        return plain + ((scope[0], ONE, False),), (), None
    return plain, binders, scope[0]


_SPLIT = {cls: _split(cls) for cls in SCHEMA}
_PLANS = [{cls: _plan(cls, ns) for cls in SCHEMA} for ns in (IDX, TY, TM)]


def _unpack(value, form: str) -> tuple:
    """A binder field as (name, second) pairs; second is None for bare names."""
    if form == NAME:
        return ((value, None),)
    if form == NAMES:
        return tuple((x, None) for x in value)
    return value


def _pack(items, form: str):
    if form == NAME:
        return items[0][0]
    if form == NAMES:
        return tuple(x for x, _ in items)
    return tuple(items)


# ---------------------------------------------------------------------------
# Free variables


def free_vars(node, ns: int) -> set[str]:
    """The variables of namespace ns free in an index, type or term."""
    out: set[str] = set()
    _free(node, ns, frozenset(), out)
    return out


def _free(node, ns: int, bound: frozenset, out: set) -> None:
    plan = _PLANS[ns][type(node)]
    if plan is None:
        if node.name not in bound:
            out.add(node.name)
        return
    kids, binders, scope = plan
    for f, shape, _ in kids:
        v = getattr(node, f)
        if shape == MANY:
            for c in v:
                _free(c, ns, bound, out)
        elif v is not None:
            _free(v, ns, bound, out)
    if scope is None:
        return
    inner = bound
    for f, form, bns in binders:
        items = _unpack(getattr(node, f), form)
        if form == TYPED and ns <= TY:
            for _, t in items:
                _free(t, ns, bound, out)
        if bns == ns:
            inner = inner.union(x for x, _ in items)
    _free(getattr(node, scope), ns, inner, out)


def free_idx_in_idx(i: IndexExpr) -> set[str]:
    return free_vars(i, IDX)


def free_idx_in_type(t: TypeExpr) -> set[str]:
    return free_vars(t, IDX)


# ---------------------------------------------------------------------------
# Capture-avoiding substitution


def subst(node, ns: int, m: Mapping):
    """Simultaneous capture-avoiding substitution of the payloads of m for the
    free variables of namespace ns in node."""
    if not m:
        return node
    return _Subst(ns, m, {}).go(node)


class _Subst:
    """The substitution of m in namespace ns; `memo` holds the payloads' free
    variables for the whole substitution. (A class, not a closure: a recursive
    closure is a reference cycle, and one per call keeps the collector busy.)"""

    __slots__ = ("ns", "m", "memo", "plans")

    def __init__(self, ns: int, m: Mapping, memo: dict) -> None:
        self.ns, self.m, self.memo = ns, m, memo
        self.plans = _PLANS[ns]

    def go(self, node):
        plan = self.plans[type(node)]
        if plan is None:
            v = self.m.get(node.name, node)
            # A renamed binder maps to its new name: the occurrence keeps its
            # annotation and location.
            return S.replace(node, name=v) if v.__class__ is str else v
        kids, binders, scope = plan
        changes = None
        for f, shape, tag in kids:
            old = getattr(node, f)
            if shape == MANY:
                new = tuple(map(self.go, old))
                if all(map(is_, new, old)):
                    continue
                if tag:
                    new = tuple([x if x is o else normalize_tag(x) for x, o in zip(new, old)])
            elif old is None:
                continue
            else:
                new = self.go(old)
                if tag and new is not old:
                    new = normalize_tag(new)
            if new is not old:
                if changes is None:
                    changes = {}
                changes[f] = new
        if scope is not None:
            changes = self.bind(node, binders, scope, changes or {})
        return S.replace(node, **changes) if changes else node

    def bind(self, node, binders, scope, changes: dict) -> dict:
        """`changes` plus the new binder fields and scope of a binding node."""
        ns, m = self.ns, self.m
        own = {x for f, form, bns in binders if bns == ns for x, _ in _unpack(getattr(node, f), form)}
        m2 = m if own.isdisjoint(m) else {k: v for k, v in m.items() if k not in own}
        renames: dict[int, dict] = {}
        for f, form, bns in binders:
            items = _unpack(getattr(node, f), form)
            new = None
            if form == TYPED and ns <= TY:
                types = [self.go(t) for _, t in items]
                if not all(map(is_, types, (t for _, t in items))):
                    new = [(x, t) for (x, _), t in zip(items, types)]
            if bns <= ns and m2:
                free = _payload_free(m2, ns, bns, self.memo)
                for k, (x, _) in enumerate(items):
                    if x in free:
                        x2 = gensym(x)
                        renames.setdefault(bns, {})[x] = x2
                        new = new or list(items)
                        new[k] = (x2, new[k][1])
            if new is not None:
                changes[f] = _pack(new, form)
        if not m2:
            return changes
        old = body = getattr(node, scope)
        for bns, r in renames.items():
            if bns != ns:
                body = _Subst(bns, r, self.memo).go(body)
        if ns in renames:
            m2 = {**m2, **renames[ns]}
        body = (self if m2 is m else _Subst(ns, m2, self.memo)).go(body)
        if body is not old:
            changes[scope] = body
        return changes


def _payload_free(m: Mapping, m_ns: int, ns: int, memo: dict) -> set[str]:
    """Variables of namespace ns free in the payloads of m, a map of namespace
    m_ns (not to be mutated); a renamed binder's payload is its new name. The
    memo holds each payload, so its id is not reused while the memo lives."""
    out = None
    for v in m.values():
        hit = memo.get((id(v), ns))
        if hit is None:
            free = ({v} if ns == m_ns else set()) if v.__class__ is str else free_vars(v, ns)
            hit = memo[id(v), ns] = (v, free)
        out = hit[1] if out is None else out | hit[1]
    return out


def subst_idx(i: IndexExpr, m: Mapping[str, IndexExpr]) -> IndexExpr:
    return subst(i, IDX, m)


def subst_idx_in_type(t: TypeExpr, m: Mapping[str, IndexExpr]) -> TypeExpr:
    return subst(t, IDX, m)


def subst_ty_in_type(t: TypeExpr, m: Mapping[str, TypeExpr]) -> TypeExpr:
    return subst(t, TY, m)


def subst_idx_in_term(t: Term, m: Mapping[str, IndexExpr]) -> Term:
    return subst(t, IDX, m)


def subst_ty_in_term(t: Term, m: Mapping[str, TypeExpr]) -> Term:
    return subst(t, TY, m)


def subst_term(t: Term, m: Mapping[str, ExprTerm]) -> Term:
    """Expressions for term variables; annotations and types hold no term
    variables and are left as they are."""
    return subst(t, TM, m)


# ---------------------------------------------------------------------------
# Canonical renaming (freshen) and alpha-equivalence


def freshen(t: Term, salt: str = "") -> Term:
    """Rename every binder (term, type, and index level, including binders
    inside types) to a canonical name#N from a per-call counter, in the order
    the binders appear. Free variables are untouched; the result is
    alpha-equivalent to the input and freshen is idempotent up to literal
    equality. A salt makes two passes produce disjoint name supplies."""
    counter = itertools.count(1)
    return _freshen(t, ({}, {}, {}), lambda x: f"{base_name(x)}#{salt}{next(counter)}")


def _freshen(node, envs: tuple, fresh):
    cls = type(node)
    changes = {}
    if cls in LEAVES and node.name in envs[LEAVES[cls]]:
        changes["name"] = envs[LEAVES[cls]][node.name]
    _, kids, binders, scope = _SPLIT[cls]
    for f, shape, _, _ in kids:
        old = getattr(node, f)
        if shape == MANY:
            changes[f] = tuple(_freshen(c, envs, fresh) for c in old)
        elif old is not None:
            changes[f] = _freshen(old, envs, fresh)
    if scope is not None:
        inner = list(envs)
        for f, form, bns in binders:
            env = inner[bns] = dict(inner[bns])
            items = []
            for x, second in _unpack(getattr(node, f), form):
                env[x] = x2 = fresh(x)
                items.append((x2, _freshen(second, envs, fresh) if form == TYPED else second))
            changes[f] = _pack(items, form)
        changes[scope[0]] = _freshen(getattr(node, scope[0]), tuple(inner), fresh)
    return S.replace(node, **changes) if changes else node


def alpha_equal(a, b) -> bool:
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


# ---------------------------------------------------------------------------
# Term children, labelled as in the child paths of `erase.erased_subterm`

_TERM_KIDS = {
    cls: tuple((f, getattr(role, "shape", ONE)) for f, role in roles.items()
               if isinstance(role, (Child, Scope)) and role.cat == TM)
    for cls, roles in SCHEMA.items()
}


def term_children(node) -> list[tuple[str, object]]:
    """(label, child) for each term child of a node, in field order: the j-th
    of a tuple field is labelled by the field's singular (`atom<j>`, `cell<j>`,
    `arg<j>`), a lone child by its field (`fn`, `box`, `body`, `payload`)."""
    out = []
    for f, shape in _TERM_KIDS[type(node)]:
        v = getattr(node, f)
        if shape == MANY:
            out += [(f"{f[:-1]}{j}", c) for j, c in enumerate(v)]
        else:
            out.append((f, v))
    return out
