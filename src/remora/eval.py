"""Type-driven small-step evaluator.

Redex selection is leftmost-outermost with arguments taken left to right:
inside an array literal only a box atom can hold pending computation, frame
cells evaluate in order, application evaluates the function position and
then each argument. A fully evaluated application fires exactly one of
lift / map / beta / delta; type and index application fire tbeta / ibeta;
frames of literals collapse; unbox substitutes per box.

`step` is the executable specification: one step, searching from the root.
The oracle tests hold the machine to it. `Machine` is a refocused machine
that fires the same rule on the same redex at every step but resumes the
search at the hole of the last contraction, so a step costs O(1) amortised
plus the contraction, and a deep evaluation context needs no Python
recursion. `evaluate` runs it to the end, and the lockstep harness in
`erase` steps it next to the erased machine. Only `trace=True` pays to
rebuild the whole term at each step.

The erased language has the typed language's evaluation contexts, so the
refocusing driver here (the context search, plug and run loop) serves the
erased machine too: `erase.ErasedMachine` is `Machine` with the erased
contraction rules. The specs and the rules stay separate per language.
"""

from __future__ import annotations

from typing import Optional, Union

from .indices import SortError, concrete_dims, element_count
from .names import (
    subst_idx_in_term,
    subst_idx_in_type,
    subst_term,
    subst_ty_in_term,
    subst_ty_in_type,
)
from .prims import Misapplied, apply_delta
from .syntax import (
    App,
    ArrayLit,
    ArrType,
    AtomTerm,
    BaseVal,
    Box,
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
    EVar,
    EmptyArray,
    EmptyFrame,
    ExprTerm,
    ForallType,
    Frame,
    FunType,
    IApp,
    ILam,
    Lam,
    PiType,
    PrimOp,
    TApp,
    TLam,
    Unbox,
    node,
    Var,
    copier,
    gc_paused,
    replace,
    shape_of_dims,
)

RULES = ("lift", "map", "beta", "delta", "tbeta", "ibeta", "collapse", "unbox")


class EvalBug(Exception):
    """Internal invariant violated; unreachable on elaborator output."""


class Stepped:
    __slots__ = ("term", "rule")

    def __init__(self, term: ExprTerm, rule: str) -> None:
        self.term, self.rule = term, rule


class AlreadyValue:
    __slots__ = ()


class Stuck(metaclass=node):
    reason: str  # "misapplied" | "internal"
    op: Optional[str]
    detail: str

    def __init__(self, reason: str, op: Optional[str] = None, detail: str = "") -> None:
        Stuck._init(self, reason, op, detail)


StepResult = Union[Stepped, AlreadyValue, Stuck]

_VALUE = AlreadyValue()


# The atoms that are values as they are; a box is one when its payload is.
_VALUE_ATOMS = frozenset((BaseVal, PrimOp, Lam, TLam, ILam))


def is_value_atom(a: AtomTerm) -> bool:
    return a.__class__ in _VALUE_ATOMS or (a.__class__ is Box and is_value(a.payload))


def is_value(e: ExprTerm) -> bool:
    return isinstance(e, ArrayLit) and all(is_value_atom(a) for a in e.atoms)


# ---------------------------------------------------------------------------
# List metafunctions


class IndivisibleLength(Exception):
    pass


class RaggedInput(Exception):
    pass


def split_list(n: int, xs: list) -> list[list]:
    """Consecutive length-n pieces of xs."""
    if n == 0:
        if xs:
            raise IndivisibleLength("cannot split a nonempty list into 0-length pieces")
        return []
    if len(xs) % n:
        raise IndivisibleLength(f"{len(xs)} not divisible by {n}")
    return [list(xs[i : i + n]) for i in range(0, len(xs), n)]


def rep_list(n: int, xs: list) -> list:
    """Each element repeated n times, inner structure untouched."""
    out = []
    for x in xs:
        out.extend([x] * n)
    return out


def transpose_list(xss: list[list]) -> list[list]:
    """Row i of the result collects the i-th element of every input list."""
    if not xss:
        return []
    width = len(xss[0])
    if any(len(row) != width for row in xss):
        raise RaggedInput("transpose requires equal-length lists")
    return [[row[i] for row in xss] for i in range(width)]


def concat_list(xss: list[list]) -> list:
    out = []
    for xs in xss:
        out.extend(xs)
    return out


# ---------------------------------------------------------------------------
# Stepping


def step(e: ExprTerm) -> StepResult:
    """One reduction step of a closed, elaborated expression.

    The redex is searched for from the root, as the module docstring says,
    and the spine above it is rebuilt with one copy per level: a loop that
    records the path, so a deep spine needs no Python recursion."""
    path = []  # (node, field, position in its tuple or None), root first
    # `is_value` without a call for the children it decides by class alone.
    plain = _VALUE_ATOMS.issuperset
    while True:
        t = e.__class__
        if t is Frame:
            for i, c in enumerate(e.cells):
                if c.__class__ is not ArrayLit or not (plain(map(type, c.atoms)) or is_value(c)):
                    path.append((e, "cells", i))
                    e = c
                    break
            else:
                r = _collapse(e)
                break
        elif t is App or t is TApp or t is IApp or t is Unbox:
            f = "box" if t is Unbox else "fn"
            head = getattr(e, f)
            if head.__class__ is not ArrayLit or not (plain(map(type, head.atoms)) or is_value(head)):
                path.append((e, f, None))
                e = head
                continue
            if t is not App:
                r = _CONTRACT[t](e)
                break
            for i, a in enumerate(e.args):
                if a.__class__ is not ArrayLit or not (plain(map(type, a.atoms)) or is_value(a)):
                    path.append((e, "args", i))
                    e = a
                    break
            else:
                r = _apply(e)
                break
        elif t is ArrayLit:
            for i, a in enumerate(e.atoms):
                if a.__class__ in _VALUE_ATOMS or is_value_atom(a):
                    continue
                if a.__class__ is not Box:
                    return Stuck("internal", detail="non-value atom that is not a box")
                path.append((e, "atoms", i))
                e = a.payload
                break
            else:
                return _VALUE
        elif t is Var:
            return Stuck("internal", detail=f"free variable {e.name}")
        elif t is EmptyArray or t is EmptyFrame:
            return Stuck("internal", detail="empty forms must be elaborated away")
        else:
            raise TypeError(e)
    if r.__class__ is not Stepped:
        return r
    term = r.term
    for e, f, i in reversed(path):
        if i is not None:
            kids = getattr(e, f)
            if f == "atoms":
                term = copier(Box, "payload")(kids[i], term)
            term = (term,) if len(kids) == 1 else kids[:i] + (term,) + kids[i + 1 :]
        term = copier(e.__class__, f)(e, term)
    return Stepped(term, r.rule)


def _collapse(e: Frame) -> StepResult:
    # Cell dims come from the cells when there are any; an empty frame reads
    # them off its type annotation.
    if e.cells:
        first = e.cells[0]
        if not isinstance(first, ArrayLit):
            return Stuck("internal", detail="collapse over a non-literal cell")
        cell_dims = first.dims
        atoms = tuple(a for c in e.cells for a in c.atoms)  # type: ignore[union-attr]
    else:
        if e.annot is None or not isinstance(e.annot, ArrType):
            return Stuck("internal", detail="empty frame without an array annotation")
        try:
            full = concrete_dims(e.annot.shape)
        except SortError as exc:
            return Stuck("internal", detail=f"bad frame shape: {exc}")
        if full[: len(e.dims)] != e.dims:
            return Stuck("internal", detail="frame annotation disagrees with dims")
        cell_dims = full[len(e.dims) :]
        atoms = ()
    result = ArrayLit(e.dims + cell_dims, atoms, annot=e.annot)
    return Stepped(result, "collapse")


def _app_frames(e: App):
    """(function elem type, the frame of the function and of each argument,
    the cell dims of each argument)."""
    fn = e.fn
    assert isinstance(fn, ArrayLit)
    if fn.annot is None or not isinstance(fn.annot, ArrType):
        raise EvalBug("unannotated function array")
    fun = fn.annot.elem
    if not isinstance(fun, FunType):
        raise EvalBug("function array whose element type is not a function")
    frames = [fn.dims]
    cells = []
    for arg, in_t in zip(e.args, fun.inputs):
        assert isinstance(arg, ArrayLit)
        if not isinstance(in_t, ArrType):
            raise EvalBug("function input type is not an array type")
        try:
            cell_dims = concrete_dims(in_t.shape)
        except SortError as exc:
            raise EvalBug(f"bad cell shape: {exc}") from None
        k = len(arg.dims) - len(cell_dims)
        if k < 0 or arg.dims[k:] != cell_dims:
            raise EvalBug("argument shape does not end with its cell shape")
        frames.append(arg.dims[:k])
        cells.append(cell_dims)
    return fun, frames, cells


def _apply(e: App) -> StepResult:
    try:
        fun, frames, cells = _app_frames(e)
    except EvalBug as bug:
        return Stuck("internal", detail=str(bug))
    if any(frames):
        principal = max(frames, key=len)
        for fr in frames:
            if principal[: len(fr)] != fr:
                return Stuck("internal", detail="frames are not prefix-ordered")
        # Lift and map cut each array's atoms into cells by its dims.
        for a in (e.fn, *e.args):
            if len(a.atoms) != element_count(a.dims):  # type: ignore[union-attr]
                return Stuck("internal", detail="atom count does not match dims")
        if any(fr != principal for fr in frames):
            return _lift(e, fun, frames, cells, principal)
        return _map(e, fun, cells, principal)

    # Every frame is scalar: beta or delta.
    head = e.fn.atoms[0]  # type: ignore[union-attr]
    if isinstance(head, Lam):
        if len(head.params) != len(e.args):
            return Stuck("internal", detail="arity mismatch in beta")
        binding = {x: arg for (x, _), arg in zip(head.params, e.args)}
        return Stepped(subst_term(head.body, binding), "beta")
    if isinstance(head, PrimOp):
        if not isinstance(head.annot, FunType):
            return Stuck("internal", detail="operator not instantiated to a function")
        try:
            result = apply_delta(head.name, head.annot, e.args)
        except Misapplied as exc:
            return Stuck("misapplied", op=exc.op, detail=exc.detail)
        except SortError as exc:
            return Stuck("internal", detail=f"bad result shape: {exc}")
        return Stepped(result, "delta")
    return Stuck("internal", detail="scalar application head is not lam or operator")


def _lift(e: App, fun: FunType, frames, cells, principal) -> StepResult:
    n_p = element_count(principal)
    fn = e.fn
    assert isinstance(fn, ArrayLit)
    n_fe = (n_p // element_count(fn.dims)) if element_count(fn.dims) else 0
    fn_atoms = tuple(
        concat_list(rep_list(n_fe, split_list(1, list(fn.atoms))))
    )
    new_fn = ArrayLit(
        principal, fn_atoms, annot=ArrType(fun, shape_of_dims(principal))
    )
    new_args = []
    for (arg, in_t, frame, cell_dims) in zip(e.args, fun.inputs, frames[1:], cells):
        assert isinstance(arg, ArrayLit)
        n_a = element_count(frame)
        n_ae = (n_p // n_a) if n_a else 0
        if n_ae == 1:  # one copy of each cell: the atoms as they are
            atoms = arg.atoms
        else:
            pieces = split_list(element_count(cell_dims), list(arg.atoms))
            atoms = tuple(concat_list(rep_list(n_ae, pieces)))
        dims = principal + cell_dims
        new_args.append(
            ArrayLit(dims, atoms, annot=ArrType(in_t.elem, shape_of_dims(dims)))
        )
    return Stepped(replace(e, fn=new_fn, args=tuple(new_args)), "lift")


def _split_cells(atoms: list, cell_size: int, n_cells: int) -> list[list]:
    # A zero-size cell still contributes one (empty) piece per frame cell.
    if cell_size == 0:
        return [[] for _ in range(n_cells)]
    return split_list(cell_size, atoms)


def _map(e: App, fun: FunType, cells, principal) -> StepResult:
    n_cells = element_count(principal)
    fn = e.fn
    assert isinstance(fn, ArrayLit)
    arg_cells = []
    for (arg, cell_dims) in zip(e.args, cells):
        arg_cells.append(
            _split_cells(list(arg.atoms), element_count(cell_dims), n_cells)  # type: ignore[union-attr]
        )
    grouped = transpose_list(arg_cells) if arg_cells else [[] for _ in range(n_cells)]
    fn_annot = ArrType(fun, shape_of_dims(()))
    out = []
    for j in range(n_cells):
        fn_cell = ArrayLit((), (fn.atoms[j],), annot=fn_annot)
        cell_args = tuple(
            ArrayLit(cd, tuple(atoms), annot=in_t)
            for (atoms, in_t, cd) in zip(grouped[j], fun.inputs, cells)
        )
        out.append(App(fn_cell, cell_args, annot=fun.output))
    return Stepped(Frame(principal, tuple(out), annot=e.annot), "map")


def _instantiate(e, args, abstraction, quantifier, in_term, in_type) -> StepResult:
    """tbeta (TApp of TLam / Forall operators, `subst_ty_*`) or ibeta (IApp of
    ILam / Pi operators, `subst_idx_*`): instantiate every atom of the
    function array and frame the results."""
    rule = "tbeta" if type(e) is TApp else "ibeta"
    fn = e.fn
    assert isinstance(fn, ArrayLit)
    cells = []
    for atom in fn.atoms:
        if isinstance(atom, abstraction):
            q = atom
        elif isinstance(atom, PrimOp) and isinstance(atom.annot, quantifier):
            q = atom.annot
        else:
            return Stuck("internal", detail=f"{rule} over a non-abstraction atom")
        if len(q.binders) != len(args):
            return Stuck("internal", detail=f"{rule} arity mismatch")
        m = {x: a for (x, _), a in zip(q.binders, args)}
        if q is atom:
            cells.append(in_term(atom.body, m))
            continue
        body = in_type(q.body, m)
        if not isinstance(body, ArrType):
            what = "universal" if quantifier is ForallType else "product"
            return Stuck("internal", detail=f"{what} body is not an array type")
        cells.append(ArrayLit((), (replace(atom, annot=body.elem),), annot=body))
    return Stepped(Frame(fn.dims, tuple(cells), annot=e.annot), rule)


def _tbeta(e: TApp) -> StepResult:
    return _instantiate(e, e.type_args, TLam, ForallType, subst_ty_in_term, subst_ty_in_type)


def _ibeta(e: IApp) -> StepResult:
    return _instantiate(e, e.idx_args, ILam, PiType, subst_idx_in_term, subst_idx_in_type)


def _unbox(e: Unbox) -> StepResult:
    arr = e.box
    assert isinstance(arr, ArrayLit)
    cells = []
    for atom in arr.atoms:
        if not isinstance(atom, Box):
            return Stuck("internal", detail="unbox over a non-box atom")
        if len(atom.indices) != len(e.idx_vars):
            return Stuck("internal", detail="unbox arity mismatch")
        m = {x: i for x, i in zip(e.idx_vars, atom.indices)}
        body = subst_idx_in_term(e.body, m)
        cells.append(subst_term(body, {e.val_var: atom.payload}))
    return Stepped(Frame(arr.dims, tuple(cells), annot=e.annot), "unbox")


# ---------------------------------------------------------------------------
# Driving loop: a refocused machine (Danvy & Nielsen, "Refocusing in Reduction
# Semantics", BRICS RS-04-26, 2004). The context of the subterm in focus is an
# explicit stack of holes, and after a contraction the search resumes at the
# hole. Each child is checked once as the scan passes it, and a node's tuple
# of children is rebuilt once, when the scan leaves the node. Each table holds
# a typed node class next to its erased counterpart.

DEFAULT_FUEL = 100_000

# The box class of each array class, and the atoms that are values as they are.
_BOX = {ArrayLit: Box, EArray: EBox}
_PLAIN_ATOMS = frozenset((BaseVal, PrimOp, Lam, TLam, ILam, EBase, EOp, ELam, EILam))
# The field whose children a hole index counts, and the head that a node
# evaluates before them.
_KIDS = {ArrayLit: "atoms", Frame: "cells", App: "args", EArray: "atoms", EFrame: "cells", EApp: "args"}
_HEAD = {App: "fn", TApp: "fn", IApp: "fn", Unbox: "box", EApp: "fn", EIApp: "fn", EUnbox: "box"}
# Where the scan of a node starts: before its first child (-1), or before its
# head (-2) for the nodes that evaluate one.
_START = {ArrayLit: -1, Frame: -1, EArray: -1, EFrame: -1, **dict.fromkeys(_HEAD, -2)}
_CONTRACT = {Frame: _collapse, App: _apply, TApp: _tbeta, IApp: _ibeta, Unbox: _unbox}


class _Hole:
    """One layer of evaluation context: `node` with the hole at child `i`.

    `i` indexes the atoms of an array (the hole is that box's payload), the
    cells of a frame or the args of an application; -1 is the head (the fn of
    an application, t-app or i-app, the box of an unbox). The children left
    of the hole are values; once one of them differs, `kids` holds them all."""

    __slots__ = ("node", "i", "kids")

    def __init__(self, node) -> None:
        self.node = node
        self.i = _START[type(node)]
        self.kids: Optional[list] = None


def _plain_value(e) -> bool:
    """A value whose atoms hold no box: known without descending."""
    return type(e) in _BOX and _PLAIN_ATOMS.issuperset(map(type, e.atoms))


def _advance(h: _Hole):
    """Move the hole of `h` to its next child that may not be a value and
    return that child; None once every child is a value."""
    node = h.node
    i = h.i + 1
    t = type(node)
    box = _BOX.get(t)
    if box is not None:
        atoms = node.atoms
        while i < len(atoms):
            a = atoms[i]
            if type(a) is box:
                if not _plain_value(a.payload):
                    h.i = i
                    return a.payload
            elif type(a) not in _PLAIN_ATOMS:
                return Stuck("internal", detail="non-value atom that is not a box")
            i += 1
        return None
    if i == -1:
        head = getattr(node, _HEAD[t])
        if not _plain_value(head):
            h.i = -1
            return head
        i = 0
    field = _KIDS.get(t)
    if field is None:
        return None
    kids = getattr(node, field)
    while i < len(kids):
        if not _plain_value(kids[i]):
            h.i = i
            return kids[i]
        i += 1
    return None


def _put(h: _Hole, v) -> None:
    """Fill the hole of `h` with the value its child evaluated to."""
    node, i = h.node, h.i
    t = type(node)
    if i == -1:
        field = _HEAD[t]
        if v is not getattr(node, field):
            h.node = copier(t, field)(node, v)
        return
    kids = getattr(node, _KIDS[t])
    if t in _BOX:
        if v is kids[i].payload:
            return
        v = copier(_BOX[t], "payload")(kids[i], v)
    elif v is kids[i]:
        return
    if h.kids is None:
        h.kids = list(kids)
    h.kids[i] = v


def _leave(h: _Hole):
    """The node of `h` with its evaluated children, as the scan leaves it."""
    if h.kids is None:
        return h.node
    node = h.node
    return copier(type(node), _KIDS[type(node)])(node, tuple(h.kids))


def _fill(h: _Hole, t):
    """The node of `h` with `t` in its hole; `h` is left as it is."""
    node, i = h.node, h.i
    cls = type(node)
    if i == -1:
        return copier(cls, _HEAD[cls])(node, t)
    field = _KIDS[cls]
    kids = list(getattr(node, field) if h.kids is None else h.kids)
    kids[i] = copier(_BOX[cls], "payload")(kids[i], t) if cls in _BOX else t
    return copier(cls, field)(node, tuple(kids))


def _plug(stack: list[_Hole], t):
    for h in reversed(stack):
        t = _fill(h, t)
    return t


def _decompose(e, stack: list[_Hole]) -> tuple:
    """Search from `e`, which fills the hole of `stack`, for the next redex.

    Returns (redex, None) with `stack` holding its context, (value, None) with
    `stack` empty once the whole term is a value, or (subterm, Stuck) where
    the search got stuck."""
    while True:
        t = type(e)
        if stack and _plain_value(e):
            # A value with no box, such as most contracta: nothing to search
            # inside it, so it goes straight into the hole below.
            h = stack.pop()
            _put(h, e)
        elif t in _START:
            h = _Hole(e)
        elif t is Var or t is EVar:
            return e, Stuck("internal", detail=f"free variable {e.name}")
        elif t is EmptyArray or t is EmptyFrame:
            return e, Stuck("internal", detail="empty forms must be elaborated away")
        else:
            raise TypeError(e)
        while True:
            child = _advance(h)
            if child is None:
                node = _leave(h)
                if type(node) not in _BOX or not stack:
                    return node, None
                h = stack.pop()
                _put(h, node)
            elif type(child) is Stuck:
                return _leave(h), child
            else:
                stack.append(h)
                e = child
                break


class Machine:
    """The refocused machine, one step at a time: the term it holds is `stack`
    plugged with `focus`. A step is `refocus` then `contract`; `run` and the
    lockstep harness both drive it through these two methods. `contractions`
    maps each redex class to its rule; `erase.ErasedMachine` is this machine
    with the erased rules."""

    __slots__ = ("stack", "focus")
    contractions = _CONTRACT

    def __init__(self, e) -> None:
        self.stack: list[_Hole] = []
        self.focus = e

    def refocus(self) -> Union[AlreadyValue, Stuck, None]:
        """Search for the next redex. None: `focus` is the redex and `stack`
        its context. AlreadyValue: `focus` is the whole value. Stuck: `focus`
        is the subterm the search got stuck on."""
        node, stuck = _decompose(self.focus, self.stack)
        self.focus = node
        if stuck is not None:
            return stuck
        return _VALUE if type(node) in _BOX else None

    def contract(self) -> Union[Stepped, Stuck]:
        """Fire the rule of the redex in focus; after Stepped, `focus` is the
        contractum."""
        r = self.contractions[type(self.focus)](self.focus)
        if type(r) is Stepped:
            self.focus = r.term
        return r

    def term(self):
        return _plug(self.stack, self.focus)


class EvalResult:
    def __init__(self, outcome: str, term: ExprTerm, steps: int, stuck: Optional[Stuck] = None,
                 trace: Optional[list[tuple[str, ExprTerm]]] = None) -> None:
        self.outcome = outcome  # "value" | "stuck" | "fuel"
        self.term, self.steps, self.stuck, self.trace = term, steps, stuck, trace


@gc_paused
def run(m: Machine, fuel: int, trace: bool) -> EvalResult:
    """Run `m` for up to fuel contractions, reporting value / stuck / out-of-fuel
    (as `erase.bisim_run` does, the state after the last one gets its verdict)."""
    log: Optional[list[tuple[str, ExprTerm]]] = [] if trace else None
    for n in range(fuel + 1):
        r = m.refocus()
        if r is None:
            redex = m.focus
            r = m.contract()
            if type(r) is Stepped:
                if n == fuel:
                    m.focus = redex
                    break
                if log is not None:
                    log.append((r.rule, m.term()))
                continue
        if r is _VALUE:
            return EvalResult("value", m.focus, n, trace=log)
        return EvalResult("stuck", m.term(), n, stuck=r, trace=log)
    return EvalResult("fuel", m.term(), fuel, trace=log)


def evaluate(e: ExprTerm, fuel: int = DEFAULT_FUEL, trace: bool = False) -> EvalResult:
    """Take up to fuel steps, reporting value / stuck / out-of-fuel; the result
    equals that of iterating `step`."""
    return run(Machine(e), fuel, trace)
