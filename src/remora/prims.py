"""Primitive operators: their closed signature types and the metafunctions
applied when an operator meets argument values at a scalar frame.

`PRIMS` gives each operator its signature, written in the surface syntax,
and its metafunction. Quantified signatures nest each quantifier body inside
a scalar array type, as the kinding rules require (dependent products and
universals must have Array bodies), so e.g. the readable
``(Pi ((d Dim) (s Shape)) (Forall ((a Atom)) (-> ... )))`` is written
``(Pi ((d Dim) (s Shape)) (Arr (Forall ((a Atom)) (Arr (-> ...) (Shp))) (Shp)))``.
`SIGNATURE` parses an operator's signature on its first lookup and returns
that same object from then on, so importing this module parses none.

A metafunction receives the operator's fully instantiated function type
(read off the operator atom's annotation at application time) plus the
argument value arrays, and returns a term inhabiting the instantiated output
type. Every result is a value except reduce's, which unfolds into a chain of
applications because a single step cannot run an arbitrary function
argument.
"""

from __future__ import annotations

import operator
from math import floor, isfinite
from typing import Callable, Mapping, Optional

from .indices import canonicalize_shape, element_count
from .names import subst_idx_in_type, subst_ty_in_type
from .syntax import (
    App,
    ArrayLit,
    ArrType,
    BaseVal,
    BOOL,
    Box,
    ForallType,
    FunType,
    IndexExpr,
    NatLit,
    Node,
    NUM,
    PiType,
    TypeExpr,
    replace,
    shape_of_dims,
)


class Misapplied(Exception):
    """A partial operator was applied, at the right types, outside its
    domain. The evaluator surfaces this as a stuck state."""

    def __init__(self, op: str, detail: str = ""):
        self.op = op
        self.detail = detail
        super().__init__(f"misapplied {op}" + (f": {detail}" if detail else ""))


# ---------------------------------------------------------------------------
# Metafunction helpers


def _num_atom(x: float) -> BaseVal:
    return BaseVal("Num", float(x), annot=NUM)


def _bool_atom(b: bool) -> BaseVal:
    return BaseVal("Bool", bool(b), annot=BOOL)


def _scalar_num(v: ArrayLit) -> float:
    return v.atoms[0].value  # type: ignore[union-attr]


def _out_dims(fn: FunType) -> tuple[int, ...]:
    return canonicalize_shape(fn.output.shape).concrete_dims()  # type: ignore[union-attr]


def _result(fn: FunType, dims: tuple[int, ...], atoms) -> ArrayLit:
    return ArrayLit(dims, tuple(atoms), annot=fn.output)


def _boxed(fn: FunType, indices: tuple[IndexExpr, ...], payload: ArrayLit) -> ArrayLit:
    sigma = fn.output.elem  # type: ignore[union-attr]
    box = Box(indices, payload, sigma, annot=sigma)
    return ArrayLit((), (box,), annot=fn.output)


def _shape_entry(x: float) -> int:
    if not isfinite(x):
        return 0
    return max(0, floor(x))


def _binary_num(f: Callable[[float, float], object], out_atom):
    def delta(fn: FunType, args):
        return _result(fn, (), (out_atom(f(_scalar_num(args[0]), _scalar_num(args[1]))),))

    return delta


def _divide(x: float, y: float) -> float:
    if y == 0.0:
        raise Misapplied("/", "division by zero")
    return x / y


def _delta_head(fn: FunType, args):
    subject = args[0]
    cell_dims = subject.dims[1:]
    take = element_count(cell_dims)
    return _result(fn, cell_dims, subject.atoms[:take])


def _delta_append(fn: FunType, args):
    x, y = args
    dims = (x.dims[0] + y.dims[0],) + x.dims[1:]
    return _result(fn, dims, x.atoms + y.atoms)


def _delta_reduce(fn: FunType, args):
    f_val, subject = args
    cell_t = fn.output
    cell_dims = _out_dims(fn)
    size = element_count(cell_dims)
    count = subject.dims[0]
    cells = [
        ArrayLit(cell_dims, subject.atoms[i * size : (i + 1) * size], annot=cell_t)
        for i in range(count)
    ]
    acc = cells[-1]
    for cell in reversed(cells[:-1]):
        acc = App(f_val, (cell, acc), annot=cell_t)
    return acc


def _delta_iota_v(fn: FunType, args):
    n = _shape_entry(_scalar_num(args[0]))
    payload = ArrayLit((n,), tuple(_num_atom(i) for i in range(n)), annot=ArrType(NUM, shape_of_dims((n,))))
    return _boxed(fn, (NatLit(n),), payload)


def _delta_iota_s(fn: FunType, args):
    dims = _out_dims(fn)
    atoms = tuple(_num_atom(i) for i in range(element_count(dims)))
    return _result(fn, dims, atoms)


def _delta_reshape(fn: FunType, args):
    spec_vec, data = args
    dims = tuple(_shape_entry(a.value) for a in spec_vec.atoms)  # type: ignore[union-attr]
    count = element_count(dims)
    if count > 0 and not data.atoms:
        raise Misapplied("reshape", "cannot cycle atoms of an empty array")
    atoms = tuple(data.atoms[i % len(data.atoms)] for i in range(count))
    elem = fn.inputs[1].elem  # type: ignore[union-attr]
    payload = ArrayLit(dims, atoms, annot=ArrType(elem, shape_of_dims(dims)))
    return _boxed(fn, (shape_of_dims(dims),), payload)


def _delta_ravel(fn: FunType, args):
    data = args[0]
    n = len(data.atoms)
    elem = fn.inputs[0].elem  # type: ignore[union-attr]
    payload = ArrayLit((n,), data.atoms, annot=ArrType(elem, shape_of_dims((n,))))
    return _boxed(fn, (NatLit(n),), payload)


def _delta_filter(fn: FunType, args):
    flags, subject = args
    cell_dims = subject.dims[1:]
    size = element_count(cell_dims)
    kept: list = []
    m = 0
    for i, flag in enumerate(flags.atoms):
        if flag.value:  # type: ignore[union-attr]
            kept.extend(subject.atoms[i * size : (i + 1) * size])
            m += 1
    elem = fn.inputs[1].elem  # type: ignore[union-attr]
    dims = (m,) + cell_dims
    payload = ArrayLit(dims, tuple(kept), annot=ArrType(elem, shape_of_dims(dims)))
    return _boxed(fn, (NatLit(m),), payload)


# ---------------------------------------------------------------------------
# The operators

_NUM_OP = "(-> ((Arr Num (Shp)) (Arr Num (Shp))) (Arr Num (Shp)))"
_BOOL_OP = "(-> ((Arr Num (Shp)) (Arr Num (Shp))) (Arr Bool (Shp)))"

# name -> (signature, metafunction)
PRIMS: dict[str, tuple[str, Callable]] = {
    "+": (_NUM_OP, _binary_num(operator.add, _num_atom)),
    "-": (_NUM_OP, _binary_num(operator.sub, _num_atom)),
    "*": (_NUM_OP, _binary_num(operator.mul, _num_atom)),
    "/": (_NUM_OP, _binary_num(_divide, _num_atom)),
    "<": (_BOOL_OP, _binary_num(operator.lt, _bool_atom)),
    "=": (_BOOL_OP, _binary_num(operator.eq, _bool_atom)),
    "head": ("(Pi ((d Dim) (s Shape)) (Arr (Forall ((a Atom)) (Arr"
             " (-> ((Arr a (++ (Shp (+ 1 d)) s))) (Arr a s))"
             " (Shp))) (Shp)))", _delta_head),
    "append": ("(Pi ((c Shape) (m Dim) (n Dim)) (Arr (Forall ((a Atom)) (Arr"
               " (-> ((Arr a (++ (Shp m) c)) (Arr a (++ (Shp n) c))) (Arr a (++ (Shp (+ m n)) c)))"
               " (Shp))) (Shp)))", _delta_append),
    # Nonempty input, right fold.
    "reduce": ("(Pi ((d Dim) (c Shape)) (Arr (Forall ((a Atom)) (Arr"
               " (-> ((Arr (-> ((Arr a c) (Arr a c)) (Arr a c)) (Shp)) (Arr a (++ (Shp (+ 1 d)) c))) (Arr a c))"
               " (Shp))) (Shp)))", _delta_reduce),
    "iota/v": ("(-> ((Arr Num (Shp))) (Arr (Sigma ((n Dim)) (Arr Num (Shp n))) (Shp)))", _delta_iota_v),
    "iota/s": ("(Pi ((s Shape)) (Arr (-> () (Arr Num s)) (Shp)))", _delta_iota_s),
    "reshape": ("(Pi ((d Dim) (c Shape)) (Arr (Forall ((a Atom)) (Arr"
                " (-> ((Arr Num (Shp d)) (Arr a c)) (Arr (Sigma ((s Shape)) (Arr a s)) (Shp)))"
                " (Shp))) (Shp)))", _delta_reshape),
    "ravel": ("(Pi ((c Shape)) (Arr (Forall ((a Atom)) (Arr"
              " (-> ((Arr a c)) (Arr (Sigma ((n Dim)) (Arr a (Shp n))) (Shp)))"
              " (Shp))) (Shp)))", _delta_ravel),
    # The output Sigma hides only the kept-slice count; trailing cell dims stay visible.
    "filter": ("(Pi ((d Dim) (c Shape)) (Arr (Forall ((a Atom)) (Arr"
               " (-> ((Arr Bool (Shp d)) (Arr a (++ (Shp d) c)))"
               "     (Arr (Sigma ((m Dim)) (Arr a (++ (Shp m) c))) (Shp)))"
               " (Shp))) (Shp)))", _delta_filter),
}


def _unlocated(t):
    """A parsed type without its source locations, as a type built in code
    has none, so that no diagnostic points into a signature's text."""
    if isinstance(t, tuple):
        return tuple(map(_unlocated, t))
    if not isinstance(t, Node):
        return t
    return replace(t, loc=None, **{f: _unlocated(getattr(t, f)) for f in t._fields if f != "loc"})


class _Signature(Mapping):
    """Operator name -> signature type, parsed from `PRIMS` on the first
    lookup of that name."""

    def __init__(self) -> None:
        self._types: dict[str, TypeExpr] = {}

    def __getitem__(self, name: str) -> TypeExpr:
        t = self._types.get(name)
        if t is None:
            from .parser import parse_type

            # setdefault: a lookup racing this one returns the same object
            t = self._types.setdefault(name, _unlocated(parse_type(PRIMS[name][0])))
        return t

    def __iter__(self):
        return iter(PRIMS)

    def __len__(self) -> int:
        return len(PRIMS)


SIGNATURE: Mapping[str, TypeExpr] = _Signature()


def signature_lookup(name: str) -> Optional[TypeExpr]:
    return SIGNATURE.get(name)


def apply_delta(name: str, fn_type: FunType, args) -> object:
    """Run an operator's metafunction against its instantiated function type
    and fully evaluated arguments. Raises Misapplied outside the domain."""
    _, delta = PRIMS[name]
    return delta(fn_type, tuple(args))


def instantiate(sig_type: TypeExpr, inst_types, inst_idxs) -> FunType:
    """Strip the quantifier prefix of a signature by substituting the given
    type and index arguments, yielding the concrete function type."""
    t = sig_type
    idxs = list(inst_idxs)
    tys = list(inst_types)
    while not isinstance(t, FunType):
        if isinstance(t, PiType):
            take, idxs = idxs[: len(t.binders)], idxs[len(t.binders) :]
            if len(take) != len(t.binders):
                raise ValueError("not enough index arguments for instantiation")
            t = subst_idx_in_type(
                t.body, {x: i for (x, _), i in zip(t.binders, take)}
            )
        elif isinstance(t, ForallType):
            take, tys = tys[: len(t.binders)], tys[len(t.binders) :]
            if len(take) != len(t.binders):
                raise ValueError("not enough type arguments for instantiation")
            t = subst_ty_in_type(
                t.body, {x: a for (x, _), a in zip(t.binders, take)}
            )
        elif isinstance(t, ArrType):
            t = t.elem  # quantifier bodies are scalar arrays of the next layer
        else:
            raise ValueError(f"cannot instantiate signature layer {t!r}")
    if idxs or tys:
        raise ValueError("too many instantiation arguments")
    return t


def delta_apply(name: str, inst_types, inst_idxs, args) -> object:
    """Public entry mirroring the registry contract: look up the signature,
    instantiate it, and run the metafunction."""
    sig_type = signature_lookup(name)
    if sig_type is None:
        raise KeyError(f"unknown operator {name}")
    fn = instantiate(sig_type, inst_types, inst_idxs)
    return apply_delta(name, fn, args)
