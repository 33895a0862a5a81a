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

`IdxVar`, `TyVar`, `Var` and `EVar` are the variable leaves. `alpha_equal`
and `term_children` are derived from the schema, and so is one recursive
rewrite, of which `free_vars`, `subst` and `freshen` are three uses; the
`free_*` and `subst_*` names are entry points.

The rewrite carries a map per namespace (a payload replaces a variable; a
name renames it, and the occurrence keeps its annotation and location),
returns a node none of whose fields changed as it is, and visits the
variables of a range of namespaces, lowest to highest, with a plan per class
and range (`_PLANS`): it skips a child whose category cannot hold them (an
index holds only index variables, a type index and type variables). In a
node it visits the children outside the scope, then the binders in field
order (a lam parameter's type right after its name, under the maps outside
the lam), then the scope. This is not source order: the box of an unbox
comes before the unbox's binders. The names of a node's binders first leave
the maps of their namespaces (shadowing); then a binder-naming policy names
each binder:

- `subst` renames a binder with `gensym` exactly when its name is free, in
  the binder's namespace, in a payload that can reach its scope (one whose
  namespace lies between the binder's and the scope's category). The rename
  rides in the same pass, in another namespace too: the scope is visited
  with the range lowered to it. The visit ends where every map is empty, and
  each payload's free variables are computed once per substitution;
- `freshen` names every binder from its counter, skipping the names free in
  its input;
- `free_vars` keeps every name and collects the variables no map holds.

`subst` puts a memo in front of the rewrite when the root is an index or a
type (of a class that can hold a variable of the namespace), never a term:
the checker's t-app, i-app, box and unbox rules, type equivalence, operator
instantiation and the typed machine's tbeta and ibeta of an operator
substitute into the same quantified types again and again. The key is the
root's identity, the namespace and the map's items, the payloads compared by
`==`; the entry holds the root, so its id is not reused while the entry
lives. A result is stored only when its walk renamed no binder, so every
`gensym` name is the one the rewrite would make. An unchanged root is its own
result, so hits chain: the body a hit returns is the same object each time,
and a substitution into it hits by identity. The memo holds at most
`_MEMO_SIZE` entries and is emptied when full. Payloads of more than
`_PAYLOAD_NODES` nodes in all pass it by, as hashing and comparing a payload
recurse once per level of its nesting.

Operator signatures are closed constants. At an operator's first lookup,
`prims` registers in `CLOSED` every node of its signature that has no free
variable in any namespace (`register_closed`: free variables bottom up, in
one pass), the signature itself among them; a signature's quantifier bodies
mention its binders and are not registered. `CLOSED` holds each node, so no
id is reused, and nothing is registered for a node built at run time. With
`subst`'s policy and `free_vars`', the rewrite returns a registered node as
it is, as substitution into a closed node is the identity and it has no free
variable to collect; the test is one identity lookup, made only where an
index or a type node is entered, so a walk over terms alone does not pay it.
(Where a payload has free the name of a binder inside a registered node,
`subst` leaves that binder as it is: the old walk renamed it, into an
alpha-equivalent result, and drew one `gensym` name more.) `freshen` does
not consult `CLOSED`: it renames every binder, those inside an operator's
annotation too.

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


def _plan(cls: type, lo: int, hi: int):
    """What the rewrite visits in a node while it visits the variables of
    namespaces lo..hi: None for nothing; else (leaf, kids, binders, scope,
    quoted): the namespace of a variable in lo..hi, else None; (field, shape,
    tag) of the children outside the scope that can hold those variables; the
    binders and the scope's (field, cat), when a binder can capture or be
    renamed (its namespace is at most hi) or has types that can hold them,
    else the scope is one more child; whether the class is an index or a type
    class, whose nodes can be in `CLOSED`."""
    _, kids, binders, scope = _SPLIT[cls]
    leaf = LEAVES.get(cls) if lo <= LEAVES.get(cls, -1) <= hi else None
    plain = tuple((f, shape, tag) for f, shape, cat, tag in kids if lo <= cat)
    quoted = cls in _INDICES_AND_TYPES
    if scope is not None and lo <= scope[1]:
        if any(ns <= hi or (form == TYPED and lo <= TY) for _, form, ns in binders):
            return leaf, plain, binders, scope, quoted
        plain += ((scope[0], ONE, False),)
    return (leaf, plain, (), None, quoted) if leaf is not None or plain else None


_SPLIT = {cls: _split(cls) for cls in SCHEMA}
_INDICES_AND_TYPES = get_args(S.IndexExpr) + get_args(S.TypeExpr)
_PLANS = [[{cls: _plan(cls, lo, hi) for cls in SCHEMA} if lo <= hi else None for hi in range(3)] for lo in range(3)]
_UNMAPPED = ({}, {}, {})  # no map is changed in place


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
# Closed constants (see the module docstring)

CLOSED: dict[int, object] = {}  # id -> node; the node is held, so no id is reused
_NONE_CLOSED: dict = {}  # what `freshen`'s renaming sees of CLOSED


def register_closed(node) -> set:
    """The (namespace, name) of each variable free in node, an index or a
    type; registers in `CLOSED` every node of it, itself included, that has
    none. One pass, bottom up."""
    cls = node.__class__
    _, kids, binders, scope = _SPLIT[cls]
    free = {(LEAVES[cls], node.name)} if cls in LEAVES else set()
    for f, shape, _, _ in kids:
        v = getattr(node, f)
        for c in v if shape == MANY else () if v is None else (v,):
            free |= register_closed(c)
    if scope is not None:
        bound = set()
        for f, form, ns in binders:
            for x, t in _unpack(getattr(node, f), form):
                bound.add((ns, x))
                if form == TYPED:
                    free |= register_closed(t)
        free |= register_closed(getattr(node, scope[0])) - bound
    if not free:
        CLOSED[id(node)] = node
    return free


# ---------------------------------------------------------------------------
# The rewrite


class _Rewrite:
    """One use of the rewrite (see the module docstring): `maps` per
    namespace, the range lo..hi, the policy `fresh` (None for `subst`'s, else
    the name of each binder in lo..hi), `out` (a set, for `free_vars`) and
    `memo`, the payloads' free variables. (A class, not a closure: a
    recursive closure is a reference cycle, and one per call keeps the
    collector busy.)"""

    __slots__ = ("maps", "lo", "hi", "plans", "fresh", "out", "memo", "closed")

    def __init__(self, maps, lo: int, hi: int, fresh=None, out=None, memo=None) -> None:
        self.maps = maps
        self.lo = lo
        self.hi = hi
        self.plans = _PLANS[lo][hi]
        self.fresh = fresh
        self.out = out
        self.memo = memo
        self.closed = CLOSED if fresh is None or fresh is str else _NONE_CLOSED

    def go(self, node):
        plan = self.plans[node.__class__]
        if plan is None:
            return node
        leaf, kids, binders, scope, quoted = plan
        if quoted and id(node) in self.closed:
            return node
        changes = None
        if leaf is not None:
            v = self.maps[leaf].get(node.name)
            if v is None:
                if self.out is not None:
                    self.out.add(node.name)
            elif v.__class__ is not str:
                return v
            elif v != node.name:
                changes = {"name": v}
        for f, shape, tag in kids:
            old = getattr(node, f)
            if shape == MANY:
                new = tuple(map(self.go, old))
                if all(map(is_, new, old)):
                    continue
                if tag:
                    new = tuple([x if x is o else normalize_tag(x) for x, o in zip(new, old)])
            elif old is None or (new := self.go(old)) is old:
                continue
            elif tag:
                new = normalize_tag(new)
            changes = {f: new} if changes is None else {**changes, f: new}
        if scope is not None:
            changes = self.bind(node, binders, scope, changes or {})
        return S.replace(node, **changes) if changes else node

    def bind(self, node, binders, scope, changes: dict) -> dict:
        """`changes` plus the new binder fields and scope of a binding node."""
        global _renames
        lo, hi, fresh = self.lo, self.hi, self.fresh
        inner, fields = list(self.maps), []
        for f, form, ns in binders:
            fields.append(items := _unpack(getattr(node, f), form))
            for x, _ in items:
                if x in inner[ns]:
                    inner[ns] = {k: v for k, v in inner[ns].items() if k != x}
        renames: dict[int, dict] = {}
        for (f, form, ns), items in zip(binders, fields):
            if fresh is None:
                named = self.captured(inner, ns, min(hi, scope[1])) if ns <= hi else ()
            else:
                named = {x for x, _ in items} if lo <= ns <= hi else ()
            typed = form == TYPED and lo <= TY
            if not (named or typed):
                continue
            new = None
            for k, (x, t) in enumerate(items):
                if x in named:
                    x2 = renames.setdefault(ns, {})[x] = (fresh or gensym)(x)
                    _renames += fresh is None
                else:
                    x2 = x
                t2 = self.go(t) if typed else t
                if x2 != x or t2 is not t:
                    new = new or list(items)
                    new[k] = (x2, t2)
            if new is not None:
                changes[f] = _pack(new, form)
        for ns, r in renames.items():
            inner[ns] = {**inner[ns], **r}
        sub = self
        if not all(map(is_, inner, self.maps)):
            if fresh is None:
                live = [ns for ns in (IDX, TY, TM) if inner[ns]]
                if not live:
                    return changes
                lo, hi = live[0], live[-1]
            sub = _Rewrite(inner, lo, hi, fresh, self.out, self.memo)
        old = getattr(node, scope[0])
        body = sub.go(old)
        if body is not old:
            changes[scope[0]] = body
        return changes

    def captured(self, maps: list, ns: int, top: int):
        """Variables of namespace ns free in the payloads of maps[ns..top]; a
        name is a variable of its map's namespace. The memo holds each
        payload, so its id is not reused while the memo lives; the result
        can be a set the memo holds, not to be changed."""
        out = ()
        for n in range(ns, top + 1):
            for v in maps[n].values():
                hit = self.memo.get((id(v), n, ns))
                if hit is None:
                    free = ({v} if n == ns else set()) if v.__class__ is str else free_vars(v, ns)
                    hit = self.memo[id(v), n, ns] = (v, free)
                out = out | hit[1] if out else hit[1]
        return out


# ---------------------------------------------------------------------------
# The memo of index- and type-rooted substitutions (see the module docstring)

_MEMO_SIZE = 4096  # entries; a full memo is emptied
_PAYLOAD_NODES = 16  # at most this many payload nodes in all, or no memo
_MEMO: dict = {}  # (id(root), ns, the map's items) -> (root, result)
_renames = 0  # the binders `subst` has renamed
# The index and type classes whose nodes can hold a variable of namespace ns
_MEMOIZED = [frozenset(cls for cls in _INDICES_AND_TYPES if _PLANS[ns][ns][cls] is not None) for ns in range(3)]


def _nested(cls: type) -> tuple:
    """(field, whether it holds a tuple) of each child of an index or type
    class."""
    _, kids, _, scope = _SPLIT[cls]
    return tuple((f, shape == MANY) for f, shape, _, _ in kids) + (((scope[0], False),) if scope else ())


_NESTED = {cls: _nested(cls) for cls in _INDICES_AND_TYPES}


def _small(payloads) -> bool:
    """Whether the payloads are indices and types of at most _PAYLOAD_NODES
    nodes in all, so that hashing and comparing them recurses no deeper."""
    todo, budget = list(payloads), _PAYLOAD_NODES
    while todo:
        v = todo.pop()
        fields = _NESTED.get(v.__class__)
        budget -= 1
        if fields is None or budget < 0:
            return False
        for f, many in fields:
            if many:
                todo += getattr(v, f)
            else:
                todo.append(getattr(v, f))
    return True


def free_vars(node, ns: int) -> set[str]:
    """The variables of namespace ns free in an index, type or term."""
    out: set[str] = set()
    _Rewrite(_UNMAPPED, ns, ns, str, out).go(node)  # `str` keeps each name
    return out


def free_idx_in_type(t: TypeExpr) -> set[str]:
    return free_vars(t, IDX)


def subst(node, ns: int, m: Mapping):
    """Simultaneous capture-avoiding substitution of the payloads of m for the
    free variables of namespace ns in node; an index or a type through the
    memo (see the module docstring)."""
    if not m:
        return node
    key = None
    if node.__class__ in _MEMOIZED[ns] and _small(m.values()):
        key = (id(node), ns, tuple(m.items()))
        hit = _MEMO.get(key)
        if hit is not None:
            return hit[1]
    renames = _renames
    out = _Rewrite(_UNMAPPED[:ns] + (m,) + _UNMAPPED[ns + 1:], ns, ns, None, None, {}).go(node)
    if key is not None and _renames == renames:
        if len(_MEMO) >= _MEMO_SIZE:
            _MEMO.clear()
        _MEMO[key] = (node, out)
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


def freshen(t: Term, salt: str = "") -> Term:
    """Rename every binder (term, type, and index level, including binders
    inside types) to a canonical name#N from a per-call counter, in the order
    the rewrite visits them, skipping a name free in t. Free variables are
    untouched; the result is alpha-equivalent to the input and freshen is
    idempotent up to literal equality. A salt makes two passes produce
    disjoint name supplies."""
    taken: set[str] = set()
    _Rewrite(_UNMAPPED, IDX, TM, str, taken).go(t)
    counter = itertools.count(1)

    def fresh(x: str) -> str:
        return next(name for k in counter if (name := f"{base_name(x)}#{salt}{k}") not in taken)

    return _Rewrite(_UNMAPPED, IDX, TM, fresh).go(t)


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
