"""Binding machinery of the typed and the erased language, derived from one
schema: free variables, capture-avoiding substitution, canonical renaming
(freshen), alpha-equivalence and named term children.

Variables live in three namespaces: index (bound by Pi, Sigma, ilam and the
index variables of unbox), type (Forall, tlam) and term (lam, the value
variable of unbox); erased terms keep the index and term ones. Every index,
type, term and erased class of `syntax` gives each field but `loc` one role,
with the field; `SCHEMA` collects them. The roles (defined in `syntax`):

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
schema; the `free_*` and `subst_*` names are entry points. A traversal skips a
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

Alpha-equivalence compares canonical forms, one kind for both languages. A
form is a tuple: the class; a variable's de Bruijn level (counted from the
nearest ancestor under no binder) or free name, or the data, or the binders'
sorts (None for bare names); then the children's forms, flattened: types of
TYPED binders, other children that are not terms, then the terms in the order
of `term_children`. A residual tag stands as itself, its bound index variables
renamed `#<level>` and then respelled canonically. No class has two tuple
fields of children but tags, and a tag is a node where a form is a tuple, so
a form's length fixes how it splits. `Forms` builds forms with an explicit
stack (any depth) and interns each on its own part and the identities of its
children's forms, each tag on its spelling: in a fresh `Forms` equal forms
are one object, which `alpha_equal` tests. A form with no bound variable in
scope is memoized on its node's identity. Tables that age (as
`erase.LockstepComparer`'s do) can yield equal forms as distinct objects,
which `==` still equates.
"""

from __future__ import annotations

import itertools
from operator import attrgetter, is_
from typing import Mapping, get_args

from . import syntax as S
from .indices import normalize_tag
from .syntax import DATA, IDX, MANY, NAME, NAMES, ONE, OPT, PAIRS, TAG, TAGS, TM, TY, TYPED  # noqa: F401
from .syntax import Binder, Child, ExprTerm, IndexExpr, Scope, Term, TypeExpr

_GENSYM = itertools.count(1)


def base_name(name: str) -> str:
    return name.split("#", 1)[0]


def gensym(base: str) -> str:
    """Globally fresh name; the #r scheme cannot collide with source names
    (# is not lexable) nor with freshen's #<counter> names."""
    return f"{base_name(base)}#r{next(_GENSYM)}"


# ---------------------------------------------------------------------------
# The schema

# The traversals visit a node's children, then its binders, then its scope,
# each group in this order (see `_split`).
SCHEMA: dict[type, dict[str, object]] = {
    cls: cls._roles for u in (S.IndexExpr, S.TypeExpr, S.Term, S.ETerm) for cls in get_args(u)
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
# Canonical renaming (freshen)


def freshen(t: Term, salt: str = "") -> Term:
    """Rename every binder (term, type, and index level, including binders
    inside types) to a canonical name#N from a per-call counter, in the order
    the binders appear. Free variables are untouched; the result is
    alpha-equivalent to the input and freshen is idempotent up to literal
    equality. A salt makes two passes produce disjoint name supplies."""
    counter = itertools.count(1)
    return _freshen(t, ({}, {}, {}), lambda x: f"{base_name(x)}#{salt}{next(counter)}")


def _freshen(node, envs: tuple, fresh):
    """`node` renamed; `node` itself when nothing under it changes, and each
    field that does not change shared with it."""
    cls = type(node)
    changes = {}
    if cls in LEAVES:
        name = envs[LEAVES[cls]].get(node.name, node.name)
        if name != node.name:
            changes["name"] = name
    _, kids, binders, scope = _SPLIT[cls]
    for f, shape, _, _ in kids:
        old = getattr(node, f)
        if shape == MANY:
            new = tuple(_freshen(c, envs, fresh) for c in old)
            if not all(map(is_, new, old)):
                changes[f] = new
        elif old is not None:
            new = _freshen(old, envs, fresh)
            if new is not old:
                changes[f] = new
    if scope is not None:
        inner = list(envs)
        for f, form, bns in binders:
            env = inner[bns] = dict(inner[bns])
            items = []
            for x, second in _unpack(getattr(node, f), form):
                env[x] = x2 = fresh(x)
                items.append((x2, _freshen(second, envs, fresh) if form == TYPED else second))
            new = _pack(items, form)
            if new != getattr(node, f):
                changes[f] = new
        old = getattr(node, scope[0])
        new = _freshen(old, tuple(inner), fresh)
        if new is not old:
            changes[scope[0]] = new
    return S.replace(node, **changes) if changes else node


# ---------------------------------------------------------------------------
# Canonical forms and alpha-equivalence


class Generations:
    """A memo table that keeps only what was used at the current and the
    previous step. `carry(key)` looks the key up in the previous generation
    and brings a hit over into the current one; `age` (once per step) drops
    whatever the step before the previous one used and neither step since
    did. A user that can meet a key twice in one step tries `cur.get(key)`
    first.

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


def _form_plan(cls: type) -> tuple:
    """(head, slots, binders) of a class's form (see the module docstring):
    `head(node, env)` gives the class and what follows it; each slot (field,
    shape, scoped, tag) gives children in the order of the form; `binders`
    as in `_split`."""
    data, kids, binders, scope = _SPLIT[cls]
    kids += ((scope[0], ONE, scope[1], False),) if scope else ()
    kids = sorted(kids, key=lambda kid: (kid[2] == TM, list(SCHEMA[cls]).index(kid[0])))
    slots = [(f, TYPED, False, False) for f, form, _ in binders if form == TYPED]
    slots += [(f, shape, scope is not None and f == scope[0], tag) for f, shape, _, tag in kids]
    assert sum(shape in (MANY, TYPED) and not tag for _, shape, _, tag in slots) <= 1, cls
    parts = [attrgetter(*data)] if data else []
    parts += [lambda t, f=f, form=form: tuple([s for _, s in _unpack(getattr(t, f), form)])
              for f, form, _ in binders if form in (NAMES, PAIRS)]
    if cls in LEAVES:
        return (lambda t, env, ns=LEAVES[cls]: (cls, env[ns].get(t.name, t.name))), tuple(slots), binders
    if parts:
        [p] = parts  # no class has both data and binders
        return (lambda t, env: (cls, p(t))), tuple(slots), binders
    return (lambda t, env, h=(cls,): h), tuple(slots), binders


_FORM_PLANS = {cls: _form_plan(cls) for cls in SCHEMA}
_INLINE = {cls: head for cls, (head, slots, _) in _FORM_PLANS.items() if not slots}
_TOP = ({}, {}, {}, 0)  # name -> level of the bound variables of each namespace; their count


class Forms:
    """Builds canonical forms; the tables keep what the last two steps used."""

    def __init__(self) -> None:
        self.memo = Generations()  # id(node) -> (node, form); no bound variable in scope
        self.forms = Generations()  # key -> form; a tag's canonical spelling -> itself
        self.tags = Generations()  # id(tag) -> (tag, its interned spelling, its variables)

    def age(self) -> None:
        for table in (self.memo, self.forms, self.tags):
            table.age()

    def form(self, root) -> tuple:
        fcur, fprev, mcur, mprev = self.forms.cur, self.forms.prev, self.memo.cur, self.memo.prev
        plans, inline, spell = _FORM_PLANS, _INLINE, self._spell
        out = [None]
        # (node, env, None, dst, k) puts the form of node in dst[k]; so does
        # (node or None, head, vals, dst, k) once its slots have put theirs in
        # vals, and then memoizes it on the node.
        todo = [(root, _TOP, None, out, 0)]
        pop, push = todo.pop, todo.append
        while todo:
            t, env, vals, dst, k = pop()
            if vals is None:
                head, slots, binders = plans[t.__class__]
                top = env is _TOP
                if top and (hit := mcur.get(id(t)) or mprev.get(id(t))) is not None:
                    mcur[id(t)] = hit
                    dst[k] = hit[1]
                    continue
                head, vals, mark, inner = head(t, env), [], len(todo), env
                if binders:
                    envs, depth = list(env[:3]), env[3]
                    for f, form, bns in binders:
                        d = envs[bns] = dict(envs[bns])
                        for x, _ in _unpack(getattr(t, f), form):
                            d[x] = depth
                            depth += 1
                    inner = (*envs, depth)
                for f, shape, scoped, tag in slots:
                    v = getattr(t, f)
                    if tag:
                        vals += [spell(c, env[IDX]) for c in v] if shape == MANY else [spell(v, env[IDX])]
                        continue
                    e = inner if scoped else env
                    for c in v if shape == MANY else [s for _, s in v] if shape == TYPED else (v,):
                        h = inline.get(c.__class__)  # a class with no slots is formed here
                        if h is not None:
                            h = h(c, e)
                            vals.append(fcur.get(h) or fcur.setdefault(h, fprev.get(h) or h))
                            continue
                        vals.append(None)
                        if c is not None:
                            push((c, e, None, vals, len(vals) - 1))
                if len(todo) > mark:  # once the children pushed above are formed
                    todo.insert(mark, (t if top else None, head, vals, dst, k))
                    continue
                t, env = t if top else None, head
            key = env + tuple(map(id, vals))
            dst[k] = f = fcur.get(key) or fcur.setdefault(key, fprev.get(key) or env + tuple(vals))
            if t is not None:
                mcur[id(t)] = (t, f)
        return out[0]

    def _spell(self, i: IndexExpr, ix: dict) -> IndexExpr:
        """A tag with the bound index variables of `ix` renamed `#<level>`,
        then respelled canonically and interned."""
        tags = self.tags
        hit = tags.cur.get(id(i)) or tags.carry(id(i))
        if hit is None:
            hit = tags.cur[id(i)] = (i, self._intern(normalize_tag(i)), free_vars(i, IDX))
        if ix and not hit[2].isdisjoint(ix):
            return self._intern(normalize_tag(subst(i, IDX, {x: S.IdxVar(f"#{ix[x]}") for x in hit[2] if x in ix})))
        return hit[1]

    def _intern(self, spelling: IndexExpr) -> IndexExpr:
        forms = self.forms
        return forms.cur.get(spelling) or forms.cur.setdefault(spelling, forms.prev.get(spelling) or spelling)


def alpha_equal(a, b) -> bool:
    """Structural equality up to the names of bound variables, with residual
    tags compared as indices; annotations are compared too. Any depth of
    nesting."""
    forms = Forms()
    return forms.form(a) is forms.form(b)


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
