"""Primitive operators: their closed signature types and the metafunctions
applied when an operator meets argument values at a scalar frame.

Quantified signatures nest each quantifier body inside a scalar array type,
as the kinding rules require (dependent products and universals must have
Array bodies), so e.g. the readable
``(Pi ((d Dim) (s Shape)) (Forall ((a Atom)) (-> ... )))`` is shipped as
``(Pi ((d Dim) (s Shape)) (Arr (Forall ((a Atom)) (Arr (-> ...) (Shp))) (Shp)))``.

A metafunction receives the operator's fully instantiated function type
(read off the operator atom's annotation at application time) plus the
argument value arrays, and returns a term inhabiting the instantiated output
type. Every result is a value except reduce's, which unfolds into a chain of
applications because a single step cannot run an arbitrary function
argument.
"""

from __future__ import annotations

from math import floor, isfinite
from typing import Callable, Optional

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
    IdxAppend,
    IdxVar,
    IndexExpr,
    Kind,
    NatLit,
    node,
    NUM,
    PiType,
    Plus,
    ShapeLit,
    SigmaType,
    Sort,
    TypeExpr,
    TyVar,
    scalar_of,
    shape_of_dims,
)


class Misapplied(Exception):
    """A partial operator was applied, at the right types, outside its
    domain. The evaluator surfaces this as a stuck state."""

    def __init__(self, op: str, detail: str = ""):
        self.op = op
        self.detail = detail
        super().__init__(f"misapplied {op}" + (f": {detail}" if detail else ""))


@node
class PrimDef:
    name: str
    type: TypeExpr
    delta: Callable[[FunType, tuple[ArrayLit, ...]], object]
    domain_check: Callable[[tuple[ArrayLit, ...]], bool]


def _shp(*dims: IndexExpr) -> ShapeLit:
    return ShapeLit(dims)


def _cat(*parts: IndexExpr) -> IdxAppend:
    return IdxAppend(parts)


_NUM_SCALAR = scalar_of(NUM)
_BOOL_SCALAR = scalar_of(BOOL)

_d, _s, _c, _m, _n = IdxVar("d"), IdxVar("s"), IdxVar("c"), IdxVar("m"), IdxVar("n")
_TA = TyVar("a")


def _arith_type(out=_NUM_SCALAR) -> FunType:
    return FunType((_NUM_SCALAR, _NUM_SCALAR), out)


_HEAD_TYPE = PiType(
    (("d", Sort.DIM), ("s", Sort.SHAPE)),
    scalar_of(
        ForallType(
            (("a", Kind.ATOM),),
            scalar_of(
                FunType(
                    (ArrType(_TA, _cat(_shp(Plus((NatLit(1), _d))), _s)),),
                    ArrType(_TA, _s),
                )
            ),
        )
    ),
)

_APPEND_TYPE = PiType(
    (("c", Sort.SHAPE), ("m", Sort.DIM), ("n", Sort.DIM)),
    scalar_of(
        ForallType(
            (("a", Kind.ATOM),),
            scalar_of(
                FunType(
                    (
                        ArrType(_TA, _cat(_shp(_m), _c)),
                        ArrType(_TA, _cat(_shp(_n), _c)),
                    ),
                    ArrType(_TA, _cat(_shp(Plus((_m, _n))), _c)),
                )
            ),
        )
    ),
)

# Nonempty input, right fold.
_REDUCE_TYPE = PiType(
    (("d", Sort.DIM), ("c", Sort.SHAPE)),
    scalar_of(
        ForallType(
            (("a", Kind.ATOM),),
            scalar_of(
                FunType(
                    (
                        scalar_of(
                            FunType(
                                (ArrType(_TA, _c), ArrType(_TA, _c)), ArrType(_TA, _c)
                            )
                        ),
                        ArrType(_TA, _cat(_shp(Plus((NatLit(1), _d))), _c)),
                    ),
                    ArrType(_TA, _c),
                )
            ),
        )
    ),
)

_IOTA_V_TYPE = FunType(
    (_NUM_SCALAR,),
    scalar_of(SigmaType((("n", Sort.DIM),), ArrType(NUM, _shp(_n)))),
)

_IOTA_S_TYPE = PiType(
    (("s", Sort.SHAPE),),
    scalar_of(FunType((), ArrType(NUM, _s))),
)

_RESHAPE_TYPE = PiType(
    (("d", Sort.DIM), ("c", Sort.SHAPE)),
    scalar_of(
        ForallType(
            (("a", Kind.ATOM),),
            scalar_of(
                FunType(
                    (ArrType(NUM, _shp(_d)), ArrType(_TA, _c)),
                    scalar_of(SigmaType((("s", Sort.SHAPE),), ArrType(_TA, _s))),
                )
            ),
        )
    ),
)

_RAVEL_TYPE = PiType(
    (("c", Sort.SHAPE),),
    scalar_of(
        ForallType(
            (("a", Kind.ATOM),),
            scalar_of(
                FunType(
                    (ArrType(_TA, _c),),
                    scalar_of(SigmaType((("n", Sort.DIM),), ArrType(_TA, _shp(_n)))),
                )
            ),
        )
    ),
)

# The output Sigma hides only the kept-slice count; trailing cell dims stay visible.
_FILTER_TYPE = PiType(
    (("d", Sort.DIM), ("c", Sort.SHAPE)),
    scalar_of(
        ForallType(
            (("a", Kind.ATOM),),
            scalar_of(
                FunType(
                    (ArrType(BOOL, _shp(_d)), ArrType(_TA, _cat(_shp(_d), _c))),
                    scalar_of(
                        SigmaType((("m", Sort.DIM),), ArrType(_TA, _cat(_shp(_m), _c)))
                    ),
                )
            ),
        )
    ),
)


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


def _binary_num(op: str, f: Callable[[float, float], object], out_atom) -> PrimDef:
    def delta(fn: FunType, args):
        x, y = _scalar_num(args[0]), _scalar_num(args[1])
        if op == "/" and y == 0.0:
            raise Misapplied("/", "division by zero")
        return _result(fn, (), (out_atom(f(x, y)),))

    def domain(args) -> bool:
        return op != "/" or _scalar_num(args[1]) != 0.0

    ty = _arith_type(_BOOL_SCALAR if out_atom is _bool_atom else _NUM_SCALAR)
    return PrimDef(op, ty, delta, domain)


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
    payload = ArrayLit(
        (n,), tuple(_num_atom(i) for i in range(n)), annot=ArrType(NUM, _shp(NatLit(n)))
    )
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


def _reshape_domain(args) -> bool:
    spec_vec, data = args
    dims = tuple(_shape_entry(a.value) for a in spec_vec.atoms)
    return element_count(dims) == 0 or bool(data.atoms)


def _delta_ravel(fn: FunType, args):
    data = args[0]
    n = len(data.atoms)
    elem = fn.inputs[0].elem  # type: ignore[union-attr]
    payload = ArrayLit((n,), data.atoms, annot=ArrType(elem, _shp(NatLit(n))))
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


def _total(_args) -> bool:
    return True


PRIMS: dict[str, PrimDef] = {}


def _register(pd: PrimDef) -> None:
    PRIMS[pd.name] = pd


for _pd in (
    _binary_num("+", lambda x, y: x + y, _num_atom),
    _binary_num("-", lambda x, y: x - y, _num_atom),
    _binary_num("*", lambda x, y: x * y, _num_atom),
    _binary_num("/", lambda x, y: x / y, _num_atom),
    _binary_num("<", lambda x, y: x < y, _bool_atom),
    _binary_num("=", lambda x, y: x == y, _bool_atom),
):
    _register(_pd)

_register(PrimDef("head", _HEAD_TYPE, _delta_head, _total))
_register(PrimDef("append", _APPEND_TYPE, _delta_append, _total))
_register(PrimDef("reduce", _REDUCE_TYPE, _delta_reduce, _total))
_register(PrimDef("iota/v", _IOTA_V_TYPE, _delta_iota_v, _total))
_register(PrimDef("iota/s", _IOTA_S_TYPE, _delta_iota_s, _total))
_register(PrimDef("reshape", _RESHAPE_TYPE, _delta_reshape, _reshape_domain))
_register(PrimDef("ravel", _RAVEL_TYPE, _delta_ravel, _total))
_register(PrimDef("filter", _FILTER_TYPE, _delta_filter, _total))

SIGNATURE: dict[str, TypeExpr] = {name: pd.type for name, pd in PRIMS.items()}


def signature_lookup(name: str) -> Optional[TypeExpr]:
    pd = PRIMS.get(name)
    return pd.type if pd else None


def apply_delta(name: str, fn_type: FunType, args) -> object:
    """Run an operator's metafunction against its instantiated function type
    and fully evaluated arguments. Raises Misapplied outside the domain."""
    return PRIMS[name].delta(fn_type, tuple(args))


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
