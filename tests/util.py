"""Shared test helpers: independent evaluators for index expressions (the
brute-force oracle), random index/type generators, and a one-call pipeline
from source text to a result."""

from __future__ import annotations

import functools
import itertools
import pathlib
import random

from remora.check import EMPTY_ENV, elaborate
from remora.eval import evaluate
from remora.gen import GenConfig, generate_programs
from remora.parser import parse_term
from remora.prims import SIGNATURE
from remora.syntax import (
    ArrType,
    BOOL,
    ForallType,
    FunType,
    IdxAppend,
    IdxVar,
    IndexExpr,
    Kind,
    NatLit,
    NUM,
    PiType,
    Plus,
    ShapeLit,
    SigmaType,
    Sort,
    TypeExpr,
    TyVar,
)


# ---------------------------------------------------------------------------
# Brute-force index semantics (the oracle; no canonical forms involved)


def eval_dim(i: IndexExpr, env: dict[str, int]) -> int:
    if isinstance(i, NatLit):
        return i.value
    if isinstance(i, IdxVar):
        return env[i.name]
    if isinstance(i, Plus):
        return sum(eval_dim(o, env) for o in i.operands)
    raise TypeError(i)


def eval_shape(
    i: IndexExpr, dims: dict[str, int], shapes: dict[str, tuple[int, ...]]
) -> tuple[int, ...]:
    if isinstance(i, IdxVar):
        return shapes[i.name]
    if isinstance(i, ShapeLit):
        return tuple(eval_dim(d, dims) for d in i.dims)
    if isinstance(i, IdxAppend):
        out: tuple[int, ...] = ()
        for o in i.operands:
            out += eval_shape(o, dims, shapes)
        return out
    raise TypeError(i)


def all_assignments(names, lo=0, hi=3):
    names = list(names)
    for values in itertools.product(range(lo, hi + 1), repeat=len(names)):
        yield dict(zip(names, values))


# ---------------------------------------------------------------------------
# Random index/type generators


def random_dim(rng: random.Random, vars=("x", "y", "z"), depth: int = 3) -> IndexExpr:
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        return NatLit(rng.randint(0, 6))
    if roll < 0.6:
        return IdxVar(rng.choice(vars))
    return Plus(
        tuple(random_dim(rng, vars, depth - 1) for _ in range(rng.randint(0, 3)))
    )


def random_shape(
    rng: random.Random,
    dim_vars=("x", "y"),
    shape_vars=("s", "t"),
    depth: int = 3,
) -> IndexExpr:
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return ShapeLit(
            tuple(random_dim(rng, dim_vars, 1) for _ in range(rng.randint(0, 3)))
        )
    if roll < 0.6 and shape_vars:
        return IdxVar(rng.choice(shape_vars))
    return IdxAppend(
        tuple(
            random_shape(rng, dim_vars, shape_vars, depth - 1)
            for _ in range(rng.randint(0, 3))
        )
    )


def random_type(rng: random.Random, depth: int = 4, atom_vars=(), idx_env=None) -> TypeExpr:
    """A random Atom-kinded type; shapes stay closed unless idx_env names
    variables to draw from."""
    idx_env = idx_env or {"dims": (), "shapes": ()}

    def arr(d: int) -> ArrType:
        return ArrType(atom(d - 1), random_closed_shape(rng, idx_env))

    def atom(d: int) -> TypeExpr:
        roll = rng.random()
        if d <= 0 or roll < 0.45:
            if atom_vars and rng.random() < 0.3:
                return TyVar(rng.choice(atom_vars))
            return rng.choice((NUM, BOOL))
        if roll < 0.65:
            return FunType(
                tuple(arr(d - 1) for _ in range(rng.randint(0, 2))), arr(d - 1)
            )
        if roll < 0.78:
            return ForallType((("tv", Kind.ATOM),), arr(d - 1))
        if roll < 0.9:
            return PiType((("pv", Sort.DIM),), arr(d - 1))
        return SigmaType((("sv", Sort.DIM),), arr(d - 1))

    return atom(depth)


def random_closed_shape(rng: random.Random, idx_env) -> IndexExpr:
    dims = [NatLit(rng.randint(0, 3)) for _ in range(rng.randint(0, 2))]
    for name in idx_env.get("dims", ()):
        if rng.random() < 0.3:
            dims.append(IdxVar(name))
    if rng.random() < 0.3:
        return IdxAppend((ShapeLit(tuple(dims)), ShapeLit(())))
    return ShapeLit(tuple(dims))


# ---------------------------------------------------------------------------
# Pipeline helpers


def check_src(src: str):
    return elaborate(EMPTY_ENV, SIGNATURE, parse_term(src))


def run_src(src: str, fuel: int = 100_000):
    term, ty = check_src(src)
    return evaluate(term, fuel=fuel), ty


# ---------------------------------------------------------------------------
# Inputs of the machine oracle tests (refocused drivers against their spec)

PROGRAMS_DIR = pathlib.Path(__file__).resolve().parent.parent / "programs"


def reduce_source(n: int) -> str:
    """`reduce +` over `iota/s n`: a right fold that is an App chain n deep."""
    return (
        f"((t-app (i-app (array () reduce) {n - 1} (Shp)) Num) (array () +)"
        f" ((i-app (array () iota/s) (Shp {n}))))"
    )


def _family_source(family: str, n: int) -> str:
    if family == "lift":
        vec = f"(array ({n}) {' '.join(str(i % 97) for i in range(n))})"
        return f"((array () +) {vec} {vec})"
    if family == "reduce":
        return reduce_source(n)
    src = "(array () 7)"
    for _ in range(n):
        src = f"(frame () {src})"
    return src


_FAMILY_GROUPS = {
    "lift100": ("lift", 100),
    "lift400": ("lift", 400),
    "reduce100": ("reduce", 100),
    "reduce300": ("reduce", 300),
    "frame100": ("frame", 100),
}
ORACLE_GROUPS = ("batch", "corpus", *_FAMILY_GROUPS)


@functools.lru_cache(maxsize=None)
def oracle_programs(group: str) -> tuple:
    """Elaborated programs of one group: the first 100 of the acceptance batch
    (seed 2024), the `programs/` corpus, or one size-family member."""
    if group == "batch":
        # Each program has its own seed, so this is the batch's prefix.
        sources = generate_programs(100, seed=2024, config=GenConfig(stuck_rate=0.05))
        return tuple(elaborate(EMPTY_ENV, SIGNATURE, p)[0] for p in sources)
    if group == "corpus":
        paths = sorted(PROGRAMS_DIR.glob("*.remora"))
        return tuple(check_src(p.read_text(encoding="utf-8"))[0] for p in paths)
    return (check_src(_family_source(*_FAMILY_GROUPS[group]))[0],)
