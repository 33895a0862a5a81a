"""Random generation of closed well-typed programs for the property suites.

Generation is type-directed: pick a concrete array type, then build an
expression of that type by literal construction, frame nesting, lifted
applications of operators and lambdas, quantifier instantiation, and
box/unbox round trips. Every program the generator emits elaborates under
the shipped signature; the suites treat an elaboration failure as a bug,
not a skip.
"""

from __future__ import annotations

import random

from .check import types_equal
from .indices import concrete_dims, element_count
from .syntax import (
    App,
    ArrayLit,
    ArrType,
    BaseType,
    BaseVal,
    BOOL,
    Box,
    EmptyArray,
    EmptyFrame,
    ExprTerm,
    Frame,
    FunType,
    IApp,
    ILam,
    Kind,
    Lam,
    NatLit,
    NUM,
    ShapeLit,
    SigmaType,
    Sort,
    TApp,
    TLam,
    TypeExpr,
    Unbox,
    Var,
    num,
    scalar_of,
    shape_of_dims,
)


MAX_DIM, MAX_RANK = 3, 2  # of a generated array type


class GenConfig:
    def __init__(self, max_depth: int = 5, stuck_rate: float = 0.0):
        self.max_depth = max_depth
        self.stuck_rate = stuck_rate  # probability of wrapping in a division by zero


class ProgramGen:
    def __init__(self, seed: int, config: GenConfig | None = None):
        self.rng = random.Random(seed)
        self.cfg = config or GenConfig()
        self._n = 0

    def fresh(self, base: str) -> str:
        self._n += 1
        return f"{base}{self._n}"

    # -- shapes and types -----------------------------------------------------

    def dims(self, allow_zero: bool = True, max_rank: int = MAX_RANK) -> tuple[int, ...]:
        rank = self.rng.randint(0, max_rank)
        out = []
        for _ in range(rank):
            lo = 0 if (allow_zero and self.rng.random() < 0.12) else 1
            out.append(self.rng.randint(lo, MAX_DIM))
        return tuple(out)

    def base(self) -> BaseType:
        return NUM if self.rng.random() < 0.8 else BOOL

    def value_type(self) -> ArrType:
        return ArrType(self.base(), shape_of_dims(self.dims()))

    # -- entry points ----------------------------------------------------------

    def program(self) -> ExprTerm:
        if self.rng.random() < self.cfg.stuck_rate:
            e = self.expr(scalar_of(NUM), [], self.cfg.max_depth - 1)
            return _div_by_zero(e)
        target = self.value_type()
        return self.expr(target, [], self.cfg.max_depth)

    # -- expressions -----------------------------------------------------------

    def expr(self, target: ArrType, scope: list[tuple[str, ArrType]], depth: int) -> ExprTerm:
        dims = concrete_dims(target.shape)
        candidates = [self._literal]
        matching = [v for v in scope if types_equal(v[1], target)]
        if matching:
            candidates += [self._var] * 2
        if depth > 0:
            candidates += [self._frame, self._tbeta_wrap, self._ibeta_wrap]
            if isinstance(target.elem, BaseType):
                candidates += [self._lam_app] * 3
                candidates += [self._head_app, self._append_app, self._reduce_app]
                if target.elem.name == "Num":
                    candidates += [self._arith_app] * 3
                    if dims == ():
                        candidates += [self._iota_sum, self._unbox_use] * 2
                if target.elem.name == "Bool":
                    candidates += [self._compare_app] * 2
                candidates += [self._unbox_skip]
        while True:
            pick = self.rng.choice(candidates)
            out = pick(target, scope, depth)
            if out is not None:
                return out

    def _var(self, target, scope, depth):
        matching = [v for v in scope if types_equal(v[1], target)]
        if not matching:
            return None
        name, _ = self.rng.choice(matching)
        return Var(name)

    def _literal(self, target, scope, depth):
        dims = concrete_dims(target.shape)
        if element_count(dims) == 0:
            return EmptyArray(target.elem, dims)
        atoms = tuple(
            self.atom(target.elem, scope, depth - 1) for _ in range(element_count(dims))
        )
        return ArrayLit(dims, atoms)

    def _frame(self, target, scope, depth):
        dims = concrete_dims(target.shape)
        if not dims:
            return Frame((), (self.expr(target, scope, depth - 1),))
        k = self.rng.randint(1, len(dims))
        frame_dims, cell_dims = dims[:k], dims[k:]
        cell_t = ArrType(target.elem, shape_of_dims(cell_dims))
        n = element_count(frame_dims)
        if n == 0:
            return EmptyFrame(cell_t, frame_dims)
        cells = tuple(self.expr(cell_t, scope, depth - 1) for _ in range(n))
        return Frame(frame_dims, cells)

    def _split_frame(self, dims: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        k = self.rng.randint(0, len(dims))
        return dims[:k], dims[k:]

    def _sub_frame(self, principal: tuple[int, ...]) -> tuple[int, ...]:
        return principal[: self.rng.randint(0, len(principal))]

    def _arith_app(self, target, scope, depth):
        # +, -, * lifted over the whole target shape; one argument carries the
        # principal frame, the other a random prefix of it.
        dims = concrete_dims(target.shape)
        op = self.rng.choice(["+", "-", "*"])
        fn = ArrayLit((), (_op(op),))
        carrier = self.rng.randrange(2)
        frames = [dims if i == carrier else self._sub_frame(dims) for i in range(2)]
        args = tuple(
            self.expr(ArrType(NUM, shape_of_dims(fr)), scope, depth - 1)
            for fr in frames
        )
        return App(fn, args)

    def _lam_app(self, target, scope, depth):
        dims = concrete_dims(target.shape)
        principal, out_cell = self._split_frame(dims)
        arity = self.rng.randint(1, 2)
        in_cells = [self.dims(allow_zero=False, max_rank=1) for _ in range(arity)]
        in_elems = [self.base() for _ in range(arity)]
        in_types = [
            ArrType(el, shape_of_dims(cd)) for el, cd in zip(in_elems, in_cells)
        ]
        out_t = ArrType(target.elem, shape_of_dims(out_cell))
        def make_lam() -> Lam:
            params = tuple((self.fresh("x"), t) for t in in_types)
            inner = scope + [(x, t) for x, t in params]
            return Lam(params, self.expr(out_t, inner, depth - 1))

        # one position (function or some argument) carries the full frame
        carrier = self.rng.randint(0, arity)
        fn_frame = principal if carrier == 0 else self._sub_frame(principal)
        n_fn = element_count(fn_frame)
        if n_fn == 0:
            fn = EmptyFrame(scalar_of(FunType(tuple(in_types), out_t)), fn_frame)
        else:
            fn = ArrayLit(fn_frame, tuple(make_lam() for _ in range(n_fn)))
        args = []
        for i in range(arity):
            fr = principal if i + 1 == carrier else self._sub_frame(principal)
            full = fr + in_cells[i]
            args.append(self.expr(ArrType(in_elems[i], shape_of_dims(full)), scope, depth - 1))
        return App(fn, tuple(args))

    def _head_app(self, target, scope, depth):
        dims = concrete_dims(target.shape)
        if not isinstance(target.elem, BaseType):
            return None
        principal, s_cell = self._split_frame(dims)
        d = self.rng.randint(0, 2)
        arg_t = ArrType(target.elem, shape_of_dims(principal + (1 + d,) + s_cell))
        fn = TApp(
            IApp(
                ArrayLit((), (_op("head"),)),
                (NatLit(d), shape_of_dims(s_cell)),
            ),
            (target.elem,),
        )
        return App(fn, (self.expr(arg_t, scope, depth - 1),))

    def _append_app(self, target, scope, depth):
        dims = concrete_dims(target.shape)
        if not dims or not isinstance(target.elem, BaseType):
            return None
        lead, cell = dims[0], dims[1:]
        m = self.rng.randint(0, lead)
        n = lead - m
        fn = TApp(
            IApp(
                ArrayLit((), (_op("append"),)),
                (shape_of_dims(cell), NatLit(m), NatLit(n)),
            ),
            (target.elem,),
        )
        mk = lambda k: self.expr(  # noqa: E731
            ArrType(target.elem, shape_of_dims((k,) + cell)), scope, depth - 1
        )
        return App(fn, (mk(m), mk(n)))

    def _reduce_app(self, target, scope, depth):
        if not isinstance(target.elem, BaseType):
            return None
        cell = concrete_dims(target.shape)
        d = self.rng.randint(0, 2)
        subject_t = ArrType(target.elem, shape_of_dims((1 + d,) + cell))
        fn = TApp(
            IApp(
                ArrayLit((), (_op("reduce"),)),
                (NatLit(d), shape_of_dims(cell)),
            ),
            (target.elem,),
        )
        if target.elem.name == "Num" and cell == () and self.rng.random() < 0.6:
            combine = ArrayLit((), (_op(self.rng.choice(["+", "*"])),))
        else:
            x, y = self.fresh("x"), self.fresh("y")
            params = ((x, target), (y, target))
            inner = scope + [(x, target), (y, target)]
            body = self.expr(target, inner, depth - 1)
            combine = ArrayLit((), (Lam(params, body),))
        return App(fn, (combine, self.expr(subject_t, scope, depth - 1)))

    def _tbeta_wrap(self, target, scope, depth):
        body = self.expr(target, scope, depth - 1)
        t = self.fresh("t")
        fn = ArrayLit((), (TLam(((t, Kind.ATOM),), body),))
        return TApp(fn, (self.base(),))

    def _ibeta_wrap(self, target, scope, depth):
        body = self.expr(target, scope, depth - 1)
        n = self.fresh("n")
        fn = ArrayLit((), (ILam(((n, Sort.DIM),), body),))
        return IApp(fn, (NatLit(self.rng.randint(0, 3)),))

    def _unbox_skip(self, target, scope, depth):
        # Box arbitrary vectors, then unbox without letting the hidden
        # length reach the result type. A leading target axis can become the
        # box-array frame, which makes the unbox itself lift.
        elem = self.base()
        n = self.fresh("n")
        sigma = SigmaType(((n, Sort.DIM),), ArrType(elem, ShapeLit((_ivar(n),))))
        dims = concrete_dims(target.shape)
        if dims and 1 <= dims[0] <= 3 and self.rng.random() < 0.5:
            count = dims[0]
            body_target = ArrType(target.elem, shape_of_dims(dims[1:]))
        else:
            count = None
            body_target = target

        def make_box() -> Box:
            k = self.rng.randint(0, 3)
            payload = self.expr(ArrType(elem, shape_of_dims((k,))), scope, depth - 1)
            return Box((NatLit(k),), payload, sigma)

        boxes = ArrayLit(
            () if count is None else (count,),
            tuple(make_box() for _ in range(1 if count is None else count)),
        )
        iv, vv = self.fresh("len"), self.fresh("b")
        body = self.expr(body_target, scope, depth - 1)
        return Unbox((iv,), vv, boxes, body)

    def _compare_app(self, target, scope, depth):
        dims = concrete_dims(target.shape)
        op = self.rng.choice(["<", "="])
        carrier = self.rng.randrange(2)
        frames = [dims if i == carrier else self._sub_frame(dims) for i in range(2)]
        args = tuple(
            self.expr(ArrType(NUM, shape_of_dims(fr)), scope, depth - 1)
            for fr in frames
        )
        return App(ArrayLit((), (_op(op),)), args)

    def _iota_sum(self, target, scope, depth):
        # Sum a dynamically sized vector: prepend a unit then fold.
        n = self.rng.randint(0, 5)
        iota = App(ArrayLit((), (_op("iota/v"),)), (ArrayLit((), (num(n),)),))
        return _sum_unboxed(self, iota, scope, depth)

    def _unbox_use(self, target, scope, depth):
        # filter a vector, then sum the survivors the same way.
        d = self.rng.randint(0, 3)
        flags = ArrayLit(
            (d,), tuple(BaseVal("Bool", self.rng.random() < 0.5) for _ in range(d))
        ) if d else EmptyArray(BOOL, (0,))
        subject = self.expr(ArrType(NUM, shape_of_dims((d,))), scope, depth - 1)
        filt = App(
            TApp(
                IApp(ArrayLit((), (_op("filter"),)), (NatLit(d), ShapeLit(()))),
                (NUM,),
            ),
            (flags, subject),
        )
        return _sum_unboxed(self, filt, scope, depth)

    # -- atoms ------------------------------------------------------------------

    def atom(self, elem: TypeExpr, scope: list, depth: int):
        if isinstance(elem, BaseType):
            if elem.name == "Num":
                return num(self.rng.randint(-3, 9))
            if elem.name == "Bool":
                return BaseVal("Bool", self.rng.random() < 0.5)
            return BaseVal("Char", self.rng.choice("abcxyz"))
        if isinstance(elem, FunType):
            params = tuple((self.fresh("x"), t) for t in elem.inputs)
            inner = scope + [(x, t) for x, t in params]
            body = self.expr(elem.output, inner, max(depth, 0))
            return Lam(params, body)
        if isinstance(elem, SigmaType):
            # only the vector pattern (Sigma ((n Dim)) (Arr a (Shp n))) is generated
            (bname, _), = elem.binders
            body = elem.body
            assert isinstance(body, ArrType)
            k = self.rng.randint(0, 3)
            payload_t = ArrType(body.elem, shape_of_dims((k,)))
            payload = self.expr(payload_t, scope, max(depth, 0))
            return Box((NatLit(k),), payload, elem)
        raise ValueError(f"no atom generator for {elem!r}")


# -- helpers ---------------------------------------------------------------


def _op(name: str):
    from .syntax import PrimOp

    return PrimOp(name)


def _ivar(name: str):
    from .syntax import IdxVar

    return IdxVar(name)


def _div_by_zero(e: ExprTerm) -> ExprTerm:
    return App(ArrayLit((), (_op("/"),)), (e, ArrayLit((), (num(0),))))


def _sum_unboxed(gen: ProgramGen, boxed: ExprTerm, scope: list, depth: int) -> ExprTerm:
    iv, vv = gen.fresh("len"), gen.fresh("b")
    body = App(
        TApp(
            IApp(ArrayLit((), (_op("reduce"),)), (_ivar(iv), ShapeLit(()))),
            (NUM,),
        ),
        (
            ArrayLit((), (_op("+"),)),
            App(
                TApp(
                    IApp(
                        ArrayLit((), (_op("append"),)),
                        (ShapeLit(()), NatLit(1), _ivar(iv)),
                    ),
                    (NUM,),
                ),
                (ArrayLit((1,), (num(0),)), Var(vv)),
            ),
        ),
    )
    return Unbox((iv,), vv, boxed, body)


def generate_programs(count: int, seed: int = 0, config: GenConfig | None = None):
    """Deterministic list of generated closed programs."""
    out = []
    for i in range(count):
        out.append(ProgramGen(seed * 1_000_003 + i, config).program())
    return out
