"""Type erasure, the erased-language evaluator, and the lockstep harness.

The erased language keeps the term and index levels only. Array types erase
to their shapes, every other type to the scalar shape, and type variables
become index variables. Residual shape tags live exactly where the dynamic
semantics needs them: frames carry their result shape, applications carry
per-argument cell shapes and a result shape, index applications and unbox
carry result/body shapes. All emitted tags are spelled canonically.

The erased nodes, re-exported here, live in `syntax`. Their free variables,
substitution (`esubst_idx` and `esubst_term`, which respell canonically each
tag they rewrite) and child paths derive from `names.SCHEMA`, as typed ones do.

The erased step and delta rules are written against those tags alone; they
share only the list metafunctions with the typed evaluator, so the lockstep
check compares two independent rule sets.

`erased_step` is the executable specification of the erased machine; the
oracle tests hold the refocused machine to it. The erased language has the
typed one's evaluation contexts, so `ErasedMachine` is `eval.Machine` with
the erased contraction rules: the same refocusing driver resumes the redex
search at the hole of the last contraction instead of at the root.
`erased_evaluate` runs it to the end, and only `trace=True` pays to rebuild
the whole term at each step.

`bisim_run` steps the typed `Machine` and the `ErasedMachine` side by side.
Call-by-value never reduces under a binder, so each context stack is
binder-free, and erasure and canonical forms are compositional over it: a
state agrees with its partner when the two stacks have the same depth, the
same hole kinds (typed t-app and i-app both face erased i-app) and the same
hole indices, each layer agrees with its partner, and the two foci agree.
By induction over the steps, only what a step changed needs a look. A
refocus only pops and pushes, and the layers it left alone agreed before, so
`LockstepComparer.stepped` checks the levels it changed (a node it pushed, as
a whole or as the very child in the hole below it; the value it put where a
hole was, with any other child it replaced) and the two contracta. Each
check first compares the memoized erasure with its partner field for field,
skipping a pair that is one object; only when that walk meets a difference (a
renamed binder, a tag spelled another way, or a real one) do hash-consed
canonical forms decide. So a step costs O(1) amortised plus the contraction.
The fast checks can only confirm agreement; when one fails, the whole states
decide, so the report is the one a whole-state comparison after every step
would give. The forms are those of `names.Forms`, and `erased_alpha_equal`
is `names.alpha_equal`."""

from __future__ import annotations

from operator import attrgetter
from typing import Mapping, Optional, Union, get_args

from .eval import (
    _BOX,
    _HEAD,
    _KIDS,
    DEFAULT_FUEL,
    AlreadyValue,
    EvalResult,
    Machine,
    Stepped,
    Stuck,
    _split_cells,
    concat_list,
    rep_list,
    run,
    split_list,
    step as typed_step,  # the typed spec, unused here; benchmark tools wrap this name
    transpose_list,
)
from .indices import SortError, concrete_dims, element_count, normalize_tag
from .names import _TERM_KIDS, IDX, MANY, TM, Forms, Generations, alpha_equal, subst, term_children
from .prims import Misapplied, _shape_entry
from .printer import print_erased  # noqa: F401  (re-exported; benchmark tools wrap this name)
from .syntax import (
    App,
    ArrayLit,
    ArrType,
    BaseVal,
    Box,
    EApp,
    EArray,
    EAtom,
    EBase,
    EBox,
    EExpr,
    EFrame,
    EIApp,
    EILam,
    ELam,
    EOp,
    ETerm,
    EUnbox,
    EVar,
    ExprTerm,
    Frame,
    FunType,
    IApp,
    IdxAppend,
    IdxVar,
    ILam,
    IndexExpr,
    Lam,
    NatLit,
    PrimOp,
    ShapeLit,
    TApp,
    Term,
    TLam,
    TypeExpr,
    TyVar,
    Unbox,
    Var,
    copier,
    gc_paused,
    replace,
    shape_of_dims,
)

# ---------------------------------------------------------------------------
# Erasure


def erase_type(t: TypeExpr) -> IndexExpr:
    """Dynamic residue of a type: array types keep their shape, type
    variables become index variables, everything else is scalar."""
    if isinstance(t, ArrType):
        return normalize_tag(t.shape)
    if isinstance(t, TyVar):
        return IdxVar(t.name)
    return ShapeLit(())


@gc_paused
def erase_term(t: Term) -> ETerm:
    return _erase(t, None)


def _erase(t: Term, memo: Optional[Generations]) -> ETerm:
    """The erasure of `t`. With `memo`, each typed node's erasure is looked up
    by its identity first and recorded after, so a subtree shared with an
    earlier state erases to the same object as before."""
    if memo is not None:
        hit = memo.cur.get(id(t)) or memo.carry(id(t))
        if hit is not None:
            return hit[1]
    if isinstance(t, BaseVal):
        e = EBase(t.base, t.value)
    elif isinstance(t, PrimOp):
        e = EOp(t.name)
    elif isinstance(t, Lam):
        e = ELam(tuple(x for x, _ in t.params), _erase(t.body, memo))
    elif isinstance(t, (TLam, ILam)):
        e = EILam(tuple(x for x, _ in t.binders), _erase(t.body, memo))
    elif isinstance(t, Box):
        e = EBox(tuple(normalize_tag(i) for i in t.indices), _erase(t.payload, memo))
    elif isinstance(t, Var):
        e = EVar(t.name)
    elif isinstance(t, ArrayLit):
        # Base atoms inline: the bulk of most arrays, and cheap to redo.
        e = EArray(t.dims, tuple([
            EBase(a.base, a.value) if type(a) is BaseVal else _erase(a, memo) for a in t.atoms
        ]))
    elif isinstance(t, Frame):
        if t.annot is None:
            raise ValueError("erasure requires an elaborated term (frame)")
        e = EFrame(erase_type(t.annot), tuple([_erase(c, memo) for c in t.cells]))
    elif isinstance(t, App):
        fn_annot = t.fn.annot
        if t.annot is None or fn_annot is None or not isinstance(fn_annot, ArrType):
            raise ValueError("erasure requires an elaborated term (application)")
        fun = fn_annot.elem
        if not isinstance(fun, FunType):
            raise ValueError("application head is not function-typed")
        e = EApp(
            _erase(t.fn, memo),
            tuple([_erase(a, memo) for a in t.args]),
            tuple(erase_type(i) for i in fun.inputs),
            erase_type(t.annot),
        )
    elif isinstance(t, TApp):
        if t.annot is None:
            raise ValueError("erasure requires an elaborated term (t-app)")
        e = EIApp(
            _erase(t.fn, memo),
            tuple(normalize_tag(erase_type(x)) for x in t.type_args),
            erase_type(t.annot),
        )
    elif isinstance(t, IApp):
        if t.annot is None:
            raise ValueError("erasure requires an elaborated term (i-app)")
        e = EIApp(
            _erase(t.fn, memo),
            tuple(normalize_tag(i) for i in t.idx_args),
            erase_type(t.annot),
        )
    elif isinstance(t, Unbox):
        if t.body.annot is None:
            raise ValueError("erasure requires an elaborated term (unbox)")
        e = EUnbox(
            t.idx_vars,
            t.val_var,
            _erase(t.box, memo),
            _erase(t.body, memo),
            erase_type(t.body.annot),
        )
    else:
        raise TypeError(t)
    if memo is not None:
        memo.cur[id(t)] = (t, e)
    return e


# ---------------------------------------------------------------------------
# Erased values and substitution


# The erased atoms that are values as they are; a box is one when its payload is.
_EVALUE_ATOMS = frozenset((EBase, EOp, ELam, EILam))


def is_evalue_atom(a: EAtom) -> bool:
    return a.__class__ in _EVALUE_ATOMS or (a.__class__ is EBox and is_evalue(a.payload))


def is_evalue(e: EExpr) -> bool:
    return isinstance(e, EArray) and all(is_evalue_atom(a) for a in e.atoms)


def esubst_idx(t: ETerm, m: Mapping[str, IndexExpr]) -> ETerm:
    return subst(t, IDX, m)


def esubst_term(t: ETerm, m: Mapping[str, EExpr]) -> ETerm:
    return subst(t, TM, m)


# ---------------------------------------------------------------------------
# Child paths and alpha-equivalence


def erased_subterm(e: ETerm, path: str) -> ETerm:
    """The subterm of `e` at a child path such as `arg1/atom0/body`."""
    for label in filter(None, path.split("/")):
        e = dict(term_children(e))[label]
    return e


def _first_difference(a: tuple, b: tuple, ea: ETerm, eb: ETerm) -> str:
    """The child path to the leftmost-outermost pair of subterms that differ
    in their own data (class, scalars, tags or arity), walking two unequal
    forms and the terms `ea`, `eb` they came from, always into the leftmost
    unequal child."""
    path = []
    while True:
        kids_a, kids_b = term_children(ea), term_children(eb)
        own = len(a) - len(kids_a)
        if a[0] is not b[0] or len(kids_a) != len(kids_b) or a[:own] != b[:own]:
            return "/".join(path)
        j = next(j for j in range(len(kids_a)) if a[own + j] != b[own + j])
        path.append(kids_a[j][0])
        a, b, ea, eb = a[own + j], b[own + j], kids_a[j][1], kids_b[j][1]


erased_alpha_equal = alpha_equal  # the one alpha-equivalence, by this name for erased terms


# ---------------------------------------------------------------------------
# Erased small-step evaluation


def erased_step(e: EExpr) -> Union[Stepped, AlreadyValue, Stuck]:
    """One reduction step of a closed erased expression, searching from the
    root like `eval.step`, and like it a loop that records the path and
    rebuilds the spine above the redex with one copy per level."""
    path = []  # (node, field, position in its tuple or None), root first
    # `is_evalue` without a call for the children it decides by class alone.
    plain = _EVALUE_ATOMS.issuperset
    while True:
        t = e.__class__
        if t is EFrame:
            for i, c in enumerate(e.cells):
                if c.__class__ is not EArray or not (plain(map(type, c.atoms)) or is_evalue(c)):
                    path.append((e, "cells", i))
                    e = c
                    break
            else:
                r = _ecollapse(e)
                break
        elif t is EApp or t is EIApp or t is EUnbox:
            f = "box" if t is EUnbox else "fn"
            head = getattr(e, f)
            if head.__class__ is not EArray or not (plain(map(type, head.atoms)) or is_evalue(head)):
                path.append((e, f, None))
                e = head
                continue
            if t is not EApp:
                r = _eibeta(e) if t is EIApp else _eunbox(e)
                break
            for i, a in enumerate(e.args):
                if a.__class__ is not EArray or not (plain(map(type, a.atoms)) or is_evalue(a)):
                    path.append((e, "args", i))
                    e = a
                    break
            else:
                r = _eapply(e)
                break
        elif t is EArray:
            for i, a in enumerate(e.atoms):
                if a.__class__ in _EVALUE_ATOMS or is_evalue_atom(a):
                    continue
                if a.__class__ is not EBox:
                    return Stuck("internal", detail="non-value atom that is not a box")
                path.append((e, "atoms", i))
                e = a.payload
                break
            else:
                return AlreadyValue()
        elif t is EVar:
            return Stuck("internal", detail=f"free variable {e.name}")
        else:
            raise TypeError(e)
    if r.__class__ is not Stepped:
        return r
    term = r.term
    for e, f, i in reversed(path):
        if i is not None:
            kids = getattr(e, f)
            if f == "atoms":
                term = copier(EBox, "payload")(kids[i], term)
            term = (term,) if len(kids) == 1 else kids[:i] + (term,) + kids[i + 1 :]
        term = copier(e.__class__, f)(e, term)
    return Stepped(term, r.rule)


def _eapply(e: EApp) -> Union[Stepped, Stuck]:
    fn = e.fn
    assert isinstance(fn, EArray)
    frames = [fn.dims]
    cells = []
    for arg, tag in zip(e.args, e.arg_shapes):
        assert isinstance(arg, EArray)
        try:
            cd = concrete_dims(tag)
        except SortError as exc:
            return Stuck("internal", detail=f"bad cell tag: {exc}")
        k = len(arg.dims) - len(cd)
        if k < 0 or arg.dims[k:] != cd:
            return Stuck("internal", detail="argument shape does not end with its cell tag")
        frames.append(arg.dims[:k])
        cells.append(cd)
    if any(frames):
        principal = max(frames, key=len)
        for fr in frames:
            if principal[: len(fr)] != fr:
                return Stuck("internal", detail="frames are not prefix-ordered")
        # Lift and map cut each array's atoms into cells by its dims.
        for a in (fn, *e.args):
            if len(a.atoms) != element_count(a.dims):  # type: ignore[union-attr]
                return Stuck("internal", detail="atom count does not match dims")
        if any(fr != principal for fr in frames):
            return _elift(e, frames, cells, principal)
        return _emap(e, cells, principal)

    # Every frame is scalar: beta or delta.
    head = fn.atoms[0]
    if isinstance(head, ELam):
        if len(head.params) != len(e.args):
            return Stuck("internal", detail="arity mismatch in beta")
        binding = {x: arg for x, arg in zip(head.params, e.args)}
        return Stepped(esubst_term(head.body, binding), "beta")
    if isinstance(head, EOp):
        try:
            result = _edelta(head.name, e.arg_shapes, e.out_shape, e.args)
        except Misapplied as exc:
            return Stuck("misapplied", op=exc.op, detail=exc.detail)
        except SortError as exc:
            return Stuck("internal", detail=f"bad result tag: {exc}")
        return Stepped(result, "delta")
    return Stuck("internal", detail="scalar application head is not lam or operator")


def _elift(e: EApp, frames, cells, principal) -> Stepped:
    fn = e.fn
    n_p = element_count(principal)
    n_fe = (n_p // element_count(fn.dims)) if element_count(fn.dims) else 0
    new_fn = EArray(
        principal,
        tuple(concat_list(rep_list(n_fe, split_list(1, list(fn.atoms))))),
    )
    new_args = []
    for arg, cd, fr in zip(e.args, cells, frames[1:]):
        n_a = element_count(fr)
        n_ae = (n_p // n_a) if n_a else 0
        if n_ae == 1:  # one copy of each cell: the atoms as they are
            atoms = arg.atoms
        else:
            pieces = split_list(element_count(cd), list(arg.atoms))  # type: ignore[union-attr]
            atoms = tuple(concat_list(rep_list(n_ae, pieces)))
        new_args.append(EArray(principal + cd, atoms))
    return Stepped(replace(e, fn=new_fn, args=tuple(new_args)), "lift")


def _emap(e: EApp, cells, principal) -> Union[Stepped, Stuck]:
    fn = e.fn
    try:
        out_full = concrete_dims(e.out_shape)
    except SortError as exc:
        return Stuck("internal", detail=f"bad result tag: {exc}")
    n_cells = element_count(principal)
    cells_per_arg = [
        _split_cells(list(arg.atoms), element_count(cd), n_cells)  # type: ignore[union-attr]
        for arg, cd in zip(e.args, cells)
    ]
    grouped = (
        transpose_list(cells_per_arg)
        if cells_per_arg
        else [[] for _ in range(n_cells)]
    )
    cell_out = shape_of_dims(out_full[len(principal) :])
    out = []
    for j in range(n_cells):
        fn_cell = EArray((), (fn.atoms[j],))
        cell_args = tuple(
            EArray(cd, tuple(atoms))
            for atoms, cd in zip(grouped[j], cells)
        )
        out.append(EApp(fn_cell, cell_args, e.arg_shapes, cell_out))
    return Stepped(EFrame(e.out_shape, tuple(out)), "map")


def _eibeta(e: EIApp) -> Union[Stepped, Stuck]:
    fn = e.fn
    assert isinstance(fn, EArray)
    cells = []
    for atom in fn.atoms:
        if isinstance(atom, EILam):
            if len(atom.params) != len(e.idx_args):
                return Stuck("internal", detail="ibeta arity mismatch")
            m = {x: i for x, i in zip(atom.params, e.idx_args)}
            cells.append(esubst_idx(atom.body, m))
        elif isinstance(atom, EOp):
            cells.append(EArray((), (atom,)))
        else:
            return Stuck("internal", detail="ibeta over a non-abstraction atom")
    return Stepped(EFrame(e.out_shape, tuple(cells)), "ibeta")


def _eunbox(e: EUnbox) -> Union[Stepped, Stuck]:
    arr = e.box
    assert isinstance(arr, EArray)
    cells = []
    for atom in arr.atoms:
        if not isinstance(atom, EBox):
            return Stuck("internal", detail="unbox over a non-box atom")
        if len(atom.indices) != len(e.idx_vars):
            return Stuck("internal", detail="unbox arity mismatch")
        m = {x: i for x, i in zip(e.idx_vars, atom.indices)}
        body = esubst_idx(e.body, m)
        cells.append(esubst_term(body, {e.val_var: atom.payload}))
    tag = normalize_tag(IdxAppend((shape_of_dims(arr.dims), e.body_shape)))
    return Stepped(EFrame(tag, tuple(cells)), "unbox")


# ---------------------------------------------------------------------------
# Erased delta rules (independent of the typed registry)


def _e_num(x: float) -> EBase:
    return EBase("Num", float(x))


def _e_scalar_num(v: EArray) -> float:
    return v.atoms[0].value  # type: ignore[union-attr]


def _edelta(name, arg_shapes, out_shape, args) -> EExpr:
    if name in ("+", "-", "*", "/", "<", "="):
        x, y = _e_scalar_num(args[0]), _e_scalar_num(args[1])
        if name == "/":
            if y == 0.0:
                raise Misapplied("/", "division by zero")
            return EArray((), (_e_num(x / y),))
        if name == "+":
            return EArray((), (_e_num(x + y),))
        if name == "-":
            return EArray((), (_e_num(x - y),))
        if name == "*":
            return EArray((), (_e_num(x * y),))
        if name == "<":
            return EArray((), (EBase("Bool", x < y),))
        return EArray((), (EBase("Bool", x == y),))
    if name == "head":
        subject = args[0]
        cell = subject.dims[1:]
        return EArray(cell, subject.atoms[: element_count(cell)])
    if name == "append":
        x, y = args
        return EArray((x.dims[0] + y.dims[0],) + x.dims[1:], x.atoms + y.atoms)
    if name == "reduce":
        f_val, subject = args
        cell_dims = concrete_dims(out_shape)
        size = element_count(cell_dims)
        count = subject.dims[0]
        cell_tag = shape_of_dims(cell_dims)
        cells = [
            EArray(cell_dims, subject.atoms[i * size : (i + 1) * size])
            for i in range(count)
        ]
        acc = cells[-1]
        for cell in reversed(cells[:-1]):
            acc = EApp(f_val, (cell, acc), (cell_tag, cell_tag), cell_tag)
        return acc
    if name == "iota/v":
        n = _shape_entry(_e_scalar_num(args[0]))
        payload = EArray((n,), tuple(_e_num(i) for i in range(n)))
        return EArray((), (EBox((NatLit(n),), payload),))
    if name == "iota/s":
        dims = concrete_dims(out_shape)
        return EArray(dims, tuple(_e_num(i) for i in range(element_count(dims))))
    if name == "reshape":
        spec_vec, data = args
        dims = tuple(_shape_entry(a.value) for a in spec_vec.atoms)  # type: ignore[union-attr]
        count = element_count(dims)
        if count > 0 and not data.atoms:
            raise Misapplied("reshape", "cannot cycle atoms of an empty array")
        atoms = tuple(data.atoms[i % len(data.atoms)] for i in range(count))
        return EArray((), (EBox((shape_of_dims(dims),), EArray(dims, atoms)),))
    if name == "ravel":
        data = args[0]
        n = len(data.atoms)
        return EArray((), (EBox((NatLit(n),), EArray((n,), data.atoms)),))
    if name == "filter":
        flags, subject = args
        cell = subject.dims[1:]
        size = element_count(cell)
        kept: list = []
        m = 0
        for i, flag in enumerate(flags.atoms):
            if flag.value:  # type: ignore[union-attr]
                kept.extend(subject.atoms[i * size : (i + 1) * size])
                m += 1
        return EArray(
            (), (EBox((NatLit(m),), EArray((m,) + cell, tuple(kept))),)
        )
    raise Misapplied(name, "unknown operator")


# ---------------------------------------------------------------------------
# Erased machine


def _ecollapse(e: EFrame) -> Union[Stepped, Stuck]:
    try:
        dims = concrete_dims(e.shape)
    except SortError as exc:
        return Stuck("internal", detail=f"bad frame tag: {exc}")
    atoms = tuple(a for c in e.cells for a in c.atoms)  # type: ignore[union-attr]
    return Stepped(EArray(dims, atoms), "collapse")


class ErasedMachine(Machine):
    """The refocused erased machine: `Machine` over erased nodes, firing the
    erased contraction rules."""

    __slots__ = ()
    contractions = {EFrame: _ecollapse, EApp: _eapply, EIApp: _eibeta, EUnbox: _eunbox}


def erased_evaluate(e: EExpr, fuel: int = DEFAULT_FUEL, trace: bool = False) -> EvalResult:
    """Take up to fuel steps, reporting value / stuck / out-of-fuel; the result
    equals that of iterating `erased_step`."""
    return run(ErasedMachine(e), fuel, trace)


# ---------------------------------------------------------------------------
# Lockstep harness


class BisimReport:
    """`outcome`: "both-value", "both-stuck", "diverged" or "mismatch"; `trace`:
    (typed rule, erased rule) per step; `mismatch_path`: on a mismatch whose
    states differ, the child path (`arg1/atom0/body`, "" the root) to the first
    differing subterm (see `erased_subterm`)."""

    def __init__(self, outcome: str, steps: int, mismatch_step: Optional[int] = None,
                 typed_term: Optional[ExprTerm] = None, erased_term: Optional[EExpr] = None,
                 trace: Optional[list[tuple[str, str]]] = None, mismatch_path: Optional[str] = None) -> None:
        self.outcome, self.steps, self.mismatch_step, self.trace = outcome, steps, mismatch_step, trace
        self.typed_term, self.erased_term, self.mismatch_path = typed_term, erased_term, mismatch_path


# The erased class of each typed node that can hold a hole: t-app and i-app
# both erase to i-app.
_HOLE_KIND = {ArrayLit: EArray, Frame: EFrame, App: EApp, TApp: EIApp, IApp: EIApp, Unbox: EUnbox}


def _layer_kid(h, j: int):
    """Child `j` of a typed or erased context layer as the layer holds it now:
    an atom (a box, for the hole) of an array, a cell, an arg, or with -1 the
    head (fn or box)."""
    node = h.node
    if j == -1:
        return getattr(node, _HEAD[type(node)])
    return (getattr(node, _KIDS[type(node)]) if h.kids is None else h.kids)[j]


def _hole_child(h):
    """The child in the hole of a typed or erased context layer."""
    kid = _layer_kid(h, h.i)
    return kid.payload if type(h.node) in _BOX else kid


def _unchanged(stack: list, levels: list, side: int) -> int:
    """How many levels at the bottom of `stack` are as they were checked.

    A refocus only pops and pushes, so the levels it left alone are a prefix,
    and above it are the one level it popped and pushed again (its hole moved
    right) and levels it pushed new; the walk down from the top stops at the
    first level that is the same hole at the same index."""
    k = min(len(stack), len(levels))
    while k and (stack[k - 1] is not levels[k - 1][side] or stack[k - 1].i != levels[k - 1][2]):
        k -= 1
    return k


# For each erased class: a getter of the fields that are not term children
# (tags, dims, base values, names), and the term children, (field, shape).
_WALK = {
    cls: (attrgetter(*[f for f in cls._fields if f not in dict(_TERM_KIDS[cls])]), _TERM_KIDS[cls])
    for cls in get_args(ETerm)
}


def _equal_fields(a: ETerm, b: ETerm) -> bool:
    """Whether two erased terms are equal field for field: of one class, with
    `==` tags, dims, base values and names, and term children equal in turn.
    A pair of one object is not looked into. An explicit stack: any depth.
    Equal terms are alpha-equivalent; unequal ones may be too."""
    todo = [(a, b)]
    pop, push, extend = todo.pop, todo.append, todo.extend
    while todo:
        x, y = pop()
        if x is y:
            continue
        cls = x.__class__
        if cls is not y.__class__:
            return False
        plain, kids = _WALK[cls]
        if plain(x) != plain(y):
            return False
        for f, shape in kids:
            u, v = getattr(x, f), getattr(y, f)
            if shape == MANY:
                if len(u) != len(v):
                    return False
                extend(zip(u, v))
            else:
                push((u, v))
    return True


class LockstepComparer:
    """Decides whether erasing a typed state gives an erased state up to
    alpha-renaming, with tags compared as indices.

    `same` compares whole states. Call-by-value rewrites only a binder-free
    spine from the root to the redex and shares every other subtree with the
    previous state, so erasure (memoized on typed nodes) is rebuilt for that
    spine only, and a shared subtree mostly erases to the very node the
    erased state holds. A comparison walks the two erased terms field for
    field and skips a pair that is one object; only when the walk meets a
    difference are canonical forms (memoized on erased nodes) built, and they
    decide, up to renaming and the spelling of tags.

    `stepped` decides after one step of two machines whose states agreed,
    from what the step changed: the levels of the two context stacks that the
    refocus popped or pushed, and the contracta. The tables keep what the last
    two steps used."""

    def __init__(self) -> None:
        self._erasure = Generations()  # id(typed node) -> (node, erased node)
        self._canon = Forms()
        # Per context level checked: (typed hole, erased hole, their index).
        self._levels: list[tuple] = []

    def erase(self, t: Term) -> ETerm:
        return _erase(t, self._erasure)

    def _agree(self, typed: Term, erased: ETerm) -> bool:
        e = self.erase(typed)
        if _equal_fields(e, erased):
            return True
        a, b = self._canon.form(e), self._canon.form(erased)
        return a is b or a == b

    def _age(self) -> None:
        self._erasure.age()
        self._canon.age()

    def same(self, typed: ExprTerm, erased: EExpr) -> bool:
        agree = self._agree(typed, erased)
        self._age()
        return agree

    def mismatch_path(self, typed: ExprTerm, erased: EExpr) -> Optional[str]:
        """None if the states agree, else the child path to their first
        differing subterms."""
        ea = self.erase(typed)
        a, b = self._canon.form(ea), self._canon.form(erased)
        return None if a == b else _first_difference(a, b, ea, erased)

    def stepped(self, typed: Machine, erased: ErasedMachine) -> bool:
        """After both machines contracted a redex in states that agreed: True
        if the stacks still correspond and the contracta agree, so that the
        new states agree; False if a check failed, which decides nothing."""
        agree = self._stepped(typed.stack, erased.stack) and self._agree(typed.focus, erased.focus)
        self._age()
        return agree

    def _stepped(self, st: list, se: list) -> bool:
        levels = self._levels
        if len(st) != len(se):
            return False
        low = min(_unchanged(st, levels, 0), _unchanged(se, levels, 1))
        for k in range(low, len(st)):
            ht, he = st[k], se[k]
            if _HOLE_KIND[type(ht.node)] is not type(he.node) or he.i != ht.i:
                return False
            old = levels[k] if k < len(levels) else (None, None, 0)
            if ht is old[0] and he is old[1]:
                # Popped and pushed again: the value put where the hole was.
                lo = old[2] + 1
                if not self._agree(_layer_kid(ht, old[2]), _layer_kid(he, old[2])):
                    return False
            elif ht is not old[0] and he is not old[1]:
                # Pushed new: the node as a whole, unless it is the very child
                # in the hole of the level below, which agrees already.
                lo = 0
                if not (k > low and ht.node is _hole_child(st[k - 1]) and he.node is _hole_child(se[k - 1])) \
                        and not self._agree(ht.node, he.node):
                    return False
            else:
                return False
            if (ht.kids is not None or he.kids is not None) and not self._puts_agree(ht, he, lo):
                return False
        del levels[low:]
        levels.extend((ht, he, ht.i) for ht, he in zip(st[low:], se[low:]))
        return True

    def _puts_agree(self, ht, he, lo: int) -> bool:
        """The children from `lo` up to the hole that a put replaced agree."""
        field = _KIDS[type(he.node)]
        orig_t, orig_e = getattr(ht.node, field), getattr(he.node, field)
        kids_t, kids_e = ht.kids or orig_t, he.kids or orig_e
        return all(
            (kids_t[j] is orig_t[j] and kids_e[j] is orig_e[j]) or self._agree(kids_t[j], kids_e[j])
            for j in range(lo, ht.i)
        )


@gc_paused
def bisim_run(t: ExprTerm, fuel: int = 10_000, trace: bool = False) -> BisimReport:
    """Run the typed and erased machines side by side, asserting after each
    step that erasing the new typed state reproduces the erased machine's new
    state up to alpha-renaming of binders.

    Up to fuel steps are taken; a run that would take more is "diverged".
    Both machines are the refocused ones. When the step checks of
    `LockstepComparer.stepped` all pass, the states agree; when one fails,
    the whole states decide. The report is the one a whole-state comparison
    after every step would give."""
    lockstep = LockstepComparer()
    typed, erased = Machine(t), ErasedMachine(lockstep.erase(t))
    log: Optional[list[tuple[str, str]]] = [] if trace else None

    def mismatch(n: int) -> BisimReport:
        typed_term, erased_term = typed.term(), erased.term()
        return BisimReport(
            "mismatch", n, mismatch_step=n, typed_term=typed_term, erased_term=erased_term,
            trace=log, mismatch_path=lockstep.mismatch_path(typed_term, erased_term),
        )

    for n in range(fuel + 1):
        rt, re = typed.refocus(), erased.refocus()
        if rt is None and re is None:
            redexes = typed.focus, erased.focus
            rt, re = typed.contract(), erased.contract()
            if type(rt) is Stepped and type(re) is Stepped:
                if n == fuel:
                    break
                if log is not None:
                    log.append((rt.rule, re.rule))
                if not lockstep.stepped(typed, erased) and not lockstep.same(typed.term(), erased.term()):
                    return mismatch(n + 1)
                continue
            # The report shows both states as they were before this step.
            typed.focus, erased.focus = redexes
        if type(rt) is AlreadyValue and type(re) is AlreadyValue:
            if lockstep.same(typed.focus, erased.focus):
                return BisimReport("both-value", n, trace=log)
        elif type(rt) is Stuck and type(re) is Stuck and rt.reason == re.reason == "misapplied":
            return BisimReport("both-stuck", n, trace=log)
        return mismatch(n)
    return BisimReport("diverged", fuel, trace=log)
