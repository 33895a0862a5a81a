"""Decision procedures over type indices.

Dimensions are linear combinations of index variables over the naturals;
shapes live in the free monoid generated by dimensions and shape variables.
Equality of two indices (valid under every assignment of naturals to
variables) is decided by comparing canonical forms:

* a dimension canonicalizes to a constant plus a coefficient per variable;
* a shape canonicalizes to a flat list of single-dimension components and
  shape-variable components, with nested appends collapsed away.

On top of the canonical forms this module provides the prefix order on
shapes, the join used to pick principal frames, prefix/suffix subtraction,
and the axis-count homomorphism.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Union

from .syntax import (
    IdxAppend,
    IdxVar,
    IndexExpr,
    NatLit,
    node,
    Plus,
    ShapeLit,
)


class SortError(Exception):
    """An index was used at the wrong sort (Dim where Shape was needed, or
    vice versa). `index` is the index whose sort is wrong, when one is."""

    def __init__(self, message: str, index: Optional[IndexExpr] = None):
        super().__init__(message)
        self.index = index


class CanonicalDim(metaclass=node):
    """constant + sum of coeff * var, coefficients positive, sorted by name."""

    const: int
    coeffs: tuple[tuple[str, int], ...]

    def is_concrete(self) -> bool:
        return not self.coeffs

    def __str__(self) -> str:
        parts = [str(self.const)] if self.const or not self.coeffs else []
        parts += [f"{c}*{v}" if c != 1 else v for v, c in self.coeffs]
        return " + ".join(parts)


class DimC(metaclass=node):
    dim: CanonicalDim


class VarC(metaclass=node):
    name: str


Component = Union[DimC, VarC]


class CanonicalShape(metaclass=node):
    components: tuple[Component, ...]

    def is_concrete(self) -> bool:
        return all(
            isinstance(c, DimC) and c.dim.is_concrete() for c in self.components
        )

    def concrete_dims(self) -> tuple[int, ...]:
        if not self.is_concrete():
            raise SortError(f"shape is not concrete: {self}")
        return tuple(c.dim.const for c in self.components)  # type: ignore[union-attr]

    def __str__(self) -> str:
        inner = " ".join(
            str(c.dim) if isinstance(c, DimC) else c.name for c in self.components
        )
        return f"[{inner}]"


class FrameJoin(metaclass=node):
    """Result of joining frames under prefix order: either one of the input
    shapes (the maximum) or the top element marking incompatibility."""

    shape: Optional[CanonicalShape]

    @property
    def joined(self) -> bool:
        return self.shape is not None

    @property
    def incompatible(self) -> bool:
        return self.shape is None


INCOMPATIBLE = FrameJoin(None)


@lru_cache(maxsize=None)
def canonicalize_dim(i: IndexExpr) -> CanonicalDim:
    """Semantics-preserving normal form of a Dim-sorted index.

    A bare variable is read as a dimension variable; the caller is
    responsible for sort discipline.
    """
    if isinstance(i, NatLit):
        return CanonicalDim(i.value, ())
    if isinstance(i, IdxVar):
        return CanonicalDim(0, ((i.name, 1),))
    if isinstance(i, Plus):
        const = 0
        coeffs: dict[str, int] = {}
        for op in i.operands:
            d = canonicalize_dim(op)
            const += d.const
            for v, c in d.coeffs:
                coeffs[v] = coeffs.get(v, 0) + c
        return CanonicalDim(const, tuple(sorted(coeffs.items())))
    raise SortError("expected a Dim-sorted index, got a Shape form", i)


@lru_cache(maxsize=None)
def canonicalize_shape(i: IndexExpr) -> CanonicalShape:
    """Flatten a Shape-sorted index into its canonical component list.

    A bare variable is read as a shape variable.
    """
    if isinstance(i, IdxVar):
        return CanonicalShape((VarC(i.name),))
    if isinstance(i, ShapeLit):
        return CanonicalShape(tuple(DimC(canonicalize_dim(d)) for d in i.dims))
    if isinstance(i, IdxAppend):
        parts: list[Component] = []
        for op in i.operands:
            parts.extend(canonicalize_shape(op).components)
        return CanonicalShape(tuple(parts))
    raise SortError("expected a Shape-sorted index, got a Dim form", i)


_NATS_ONLY = frozenset((NatLit,)).issuperset


def concrete_dims(i: IndexExpr) -> tuple[int, ...]:
    """The dimensions of a shape index that mentions no variable.

    A `ShapeLit` of numerals, the scalar shape most of all, is read as it
    stands: it is the common case at every application, and canonicalizing
    it would hash the whole index and compare it in the cache. Any other
    index is canonicalized, which decides it and reports a wrong sort or a
    variable."""
    if i.__class__ is ShapeLit:
        dims = i.dims
        if not dims:
            return ()
        if _NATS_ONLY(map(type, dims)):
            return tuple([d.value for d in dims])
    return canonicalize_shape(i).concrete_dims()


def _looks_like_shape(i: IndexExpr) -> Optional[bool]:
    if isinstance(i, (ShapeLit, IdxAppend)):
        return True
    if isinstance(i, (NatLit, Plus)):
        return False
    return None  # bare variable: sort not structurally determined


def indices_equal(a: IndexExpr, b: IndexExpr, *, shape: Optional[bool] = None) -> bool:
    """Decide validity of ``a = b`` over all natural assignments.

    Both indices must have the same sort. When ``shape`` is not given the
    sort is inferred structurally; two bare variables compare the same way
    at either sort (by name), so the inference is harmless.
    """
    if shape is None:
        sa, sb = _looks_like_shape(a), _looks_like_shape(b)
        if sa is not None and sb is not None and sa != sb:
            raise SortError("sort mismatch between a Dim and a Shape", b)
        shape = sa if sa is not None else sb
    if shape:
        return canonicalize_shape(a) == canonicalize_shape(b)
    if shape is None:
        # Two bare variables.
        return a == b or (isinstance(a, IdxVar) and isinstance(b, IdxVar) and a.name == b.name)
    return canonicalize_dim(a) == canonicalize_dim(b)


def prefix_leq(a: CanonicalShape, b: CanonicalShape) -> bool:
    """a is a (possibly equal) prefix of b."""
    if len(a.components) > len(b.components):
        return False
    return a.components == b.components[: len(a.components)]


def frame_join(shapes: list[CanonicalShape] | tuple[CanonicalShape, ...]) -> FrameJoin:
    """Maximum of the given frames under prefix order.

    Prefixes of a common sequence are totally ordered, so a single pass that
    keeps the running maximum suffices: any incomparable pair proves the
    join is top.
    """
    if not shapes:
        raise ValueError("frame_join requires at least one shape")
    best = shapes[0]
    for s in shapes[1:]:
        if prefix_leq(best, s):
            best = s
        elif not prefix_leq(s, best):
            return INCOMPATIBLE
    return FrameJoin(best)


def drop_suffix(
    whole: CanonicalShape, suffix: CanonicalShape
) -> Optional[CanonicalShape]:
    """Frame left over after removing ``suffix`` from the end of ``whole``.

    Matching is syntactic on canonical components; a shape variable is never
    split to cover part of the suffix. Returns None when the trailing
    components do not match exactly.
    """
    n = len(suffix.components)
    if n > len(whole.components):
        return None
    if n and whole.components[-n:] != suffix.components:
        return None
    return CanonicalShape(whole.components[: len(whole.components) - n])


def prefix_subtract(
    a: CanonicalShape, b: CanonicalShape
) -> Optional[CanonicalShape]:
    """c with b ++ c = a, when b is a prefix of a; None otherwise."""
    if not prefix_leq(b, a):
        return None
    return CanonicalShape(a.components[len(b.components) :])


def element_count(dims: Iterable[int]) -> int:
    """Product of concrete dimensions; 1 for the scalar (empty) shape."""
    total = 1
    for n in dims:
        total *= n
    return total


# ---------------------------------------------------------------------------
# Canonical spellings back into index syntax


def dim_to_index(d: CanonicalDim) -> IndexExpr:
    terms: list[IndexExpr] = []
    if d.const or not d.coeffs:
        terms.append(NatLit(d.const))
    for v, c in d.coeffs:
        terms.extend(IdxVar(v) for _ in range(c))
    if len(terms) == 1:
        return terms[0]
    return Plus(tuple(terms))


def shape_to_index(s: CanonicalShape) -> IndexExpr:
    """Deterministic spelling of a canonical shape: a single (Shp ...) when
    no shape variables occur, otherwise an append of runs and variables."""
    parts: list[IndexExpr] = []
    run: list[IndexExpr] = []
    for c in s.components:
        if isinstance(c, DimC):
            run.append(dim_to_index(c.dim))
        else:
            if run:
                parts.append(ShapeLit(tuple(run)))
                run = []
            parts.append(IdxVar(c.name))
    if run or not parts:
        parts.append(ShapeLit(tuple(run)))
    if len(parts) == 1:
        return parts[0]
    return IdxAppend(tuple(parts))


def normalize_index(i: IndexExpr) -> IndexExpr:
    """Canonical spelling of an index, preserving its sort."""
    shape = _looks_like_shape(i)
    if shape is None:
        return i  # bare variable: already canonical at either sort
    if shape:
        return shape_to_index(canonicalize_shape(i))
    return dim_to_index(canonicalize_dim(i))


@lru_cache(maxsize=1 << 12)
def normalize_tag(i: IndexExpr) -> IndexExpr:
    """The canonical spelling of a residual tag of an erased term; equal tags
    share it."""
    return normalize_index(i)
