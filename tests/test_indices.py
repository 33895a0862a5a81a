"""Index theory: canonical forms, equality decision, prefix lattice, frame
arithmetic. Expected values of the derived cases are computed by the
brute-force assignment oracle in util.py."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remora.indices import (
    CanonicalDim,
    CanonicalShape,
    DimC,
    SortError,
    VarC,
    canonicalize_dim,
    canonicalize_shape,
    concrete_dims,
    dim_to_index,
    drop_suffix,
    element_count,
    frame_join,
    indices_equal,
    normalize_index,
    prefix_leq,
    prefix_subtract,
    shape_to_index,
)
from remora.erase import erase_term, erased_evaluate
from remora.eval import evaluate
from remora.parser import parse_index
from remora.syntax import IDX, Child, Node, ShapeLit

from .util import (
    ORACLE_GROUPS,
    all_assignments,
    eval_dim,
    eval_shape,
    oracle_programs,
    random_dim,
    random_shape,
    shape_of_ints,
)


def cd(text: str) -> CanonicalDim:
    return canonicalize_dim(parse_index(text))


def cs(text: str) -> CanonicalShape:
    return canonicalize_shape(parse_index(text))


class TestCanonicalDim:
    def test_combines_repeated_variables(self):
        got = cd("(+ x y 5 x)")
        assert got == CanonicalDim(5, (("x", 2), ("y", 1)))

    def test_literal(self):
        assert cd("7") == CanonicalDim(7, ())

    def test_additive_identity(self):
        assert cd("(+ 0 x)") == CanonicalDim(0, (("x", 1),))

    def test_no_zero_coefficients(self):
        got = cd("(+ x 3)")
        assert all(c > 0 for _, c in got.coeffs)

    def test_rejects_shape_form(self):
        with pytest.raises(SortError):
            canonicalize_dim(parse_index("(Shp 3)"))


class TestCanonicalShape:
    def test_paper_flattening_example(self):
        got = cs("(++ (Shp 2 (+ x 5 x)) (++ d (Shp 3)))")
        assert got == CanonicalShape(
            (
                DimC(CanonicalDim(2, ())),
                DimC(CanonicalDim(5, (("x", 2),))),
                VarC("d"),
                DimC(CanonicalDim(3, ())),
            )
        )

    def test_empty_shape(self):
        assert cs("(Shp)") == CanonicalShape(())

    def test_right_identity(self):
        assert cs("(++ s (Shp))") == CanonicalShape((VarC("s"),))

    def test_rejects_dim_form(self):
        with pytest.raises(SortError):
            canonicalize_shape(parse_index("(+ 1 2)"))


class TestIndicesEqual:
    def test_valid_equality(self):
        assert indices_equal(parse_index("(+ x y 5 x)"), parse_index("(+ (+ x x) 5 y)"))

    def test_invalid_equality(self):
        assert not indices_equal(parse_index("(+ q 5 y)"), parse_index("(+ (+ x x) 5 y)"))

    def test_append_of_singletons(self):
        assert indices_equal(parse_index("(Shp 3 4)"), parse_index("(++ (Shp 3) (Shp 4))"))

    def test_sort_mismatch_raises(self):
        with pytest.raises(SortError):
            indices_equal(parse_index("(Shp 3)"), parse_index("3"))

    def test_agrees_with_assignment_oracle(self):
        rng = random.Random(42)
        for _ in range(400):
            a = random_dim(rng)
            b = random_dim(rng)
            decided = indices_equal(a, b)
            truth = all(
                eval_dim(a, env) == eval_dim(b, env)
                for env in all_assignments("xyz")
            )
            assert decided == truth, f"{a} vs {b}"

    def test_shape_equality_agrees_with_oracle(self):
        rng = random.Random(43)
        shape_pool = [(), (1,), (2,), (2, 3)]
        for _ in range(200):
            a = random_shape(rng)
            b = random_shape(rng)
            decided = indices_equal(a, b)
            truth = True
            for denv in all_assignments("xy", 0, 2):
                for s in shape_pool:
                    for t in shape_pool:
                        senv = {"s": s, "t": t}
                        if eval_shape(a, denv, senv) != eval_shape(b, denv, senv):
                            truth = False
            # completeness over this finite family is one-directional: a
            # decided equality must hold everywhere
            if decided:
                assert truth

    def test_equivalence_relation(self):
        rng = random.Random(44)
        dims = [random_dim(rng) for _ in range(30)]
        for a in dims:
            assert indices_equal(a, a)
        for a in dims:
            for b in dims:
                assert indices_equal(a, b) == indices_equal(b, a)
        for a in dims:
            for b in dims:
                for c in dims:
                    if indices_equal(a, b) and indices_equal(b, c):
                        assert indices_equal(a, c)


class TestPrefixLattice:
    def test_paper_examples(self):
        assert prefix_leq(shape_of_ints([2, 3]), shape_of_ints([2, 3, 2]))
        assert not prefix_leq(shape_of_ints([2, 3]), shape_of_ints([6, 3, 2]))

    def test_empty_is_bottom(self):
        for dims in ([], [1], [4, 5], [0, 2]):
            assert prefix_leq(CanonicalShape(()), shape_of_ints(dims))

    def test_partial_order(self):
        rng = random.Random(45)
        shapes = [shape_of_ints([rng.randint(0, 3) for _ in range(rng.randint(0, 3))]) for _ in range(40)]
        for a in shapes:
            assert prefix_leq(a, a)
            for b in shapes:
                if prefix_leq(a, b) and prefix_leq(b, a):
                    assert a == b
                for c in shapes:
                    if prefix_leq(a, b) and prefix_leq(b, c):
                        assert prefix_leq(a, c)


class TestFrameJoin:
    def test_chain(self):
        j = frame_join([shape_of_ints([]), shape_of_ints([2, 3]), shape_of_ints([2])])
        assert j.joined and j.shape == shape_of_ints([2, 3])

    def test_incompatible(self):
        a, b = shape_of_ints([2, 3]), shape_of_ints([6, 3])
        # oracle: neither is a prefix of the other
        assert not prefix_leq(a, b) and not prefix_leq(b, a)
        assert frame_join([a, b]).incompatible

    def test_singleton(self):
        j = frame_join([shape_of_ints([5])])
        assert j.joined and j.shape == shape_of_ints([5])

    def test_join_is_an_input_and_an_upper_bound(self):
        rng = random.Random(46)
        for _ in range(300):
            base = [rng.randint(0, 3) for _ in range(rng.randint(0, 4))]
            shapes = [shape_of_ints(base[: rng.randint(0, len(base))]) for _ in range(rng.randint(1, 4))]
            j = frame_join(shapes)
            assert j.joined
            assert j.shape in shapes
            assert all(prefix_leq(s, j.shape) for s in shapes)


class TestSuffixArithmetic:
    def test_drop_suffix_with_reappend_oracle(self):
        whole, suffix = cs("(Shp 2 3 2)"), cs("(Shp 3 2)")
        frame = drop_suffix(whole, suffix)
        assert frame == shape_of_ints([2])
        assert CanonicalShape(frame.components + suffix.components) == whole

    def test_drop_empty_suffix(self):
        whole = cs("(++ (Shp n) (Shp 4))")
        assert drop_suffix(whole, CanonicalShape(())) == whole

    def test_drop_mismatch(self):
        assert drop_suffix(cs("(Shp 3)"), cs("(Shp 4)")) is None

    def test_prefix_subtract_paper_examples(self):
        assert prefix_subtract(cs("(Shp 3 4 5 6)"), cs("(Shp 3 4)")) == cs("(Shp 5 6)")
        assert prefix_subtract(cs("(Shp 3 4 5 6)"), cs("(Shp 4)")) is None

    def test_self_subtraction(self):
        s = cs("(++ s (Shp 3))")
        assert prefix_subtract(s, s) == CanonicalShape(())

    def test_inverses_on_random_splits(self):
        rng = random.Random(47)
        for _ in range(300):
            dims = [rng.randint(0, 4) for _ in range(rng.randint(0, 5))]
            cut = rng.randint(0, len(dims))
            whole = shape_of_ints(dims)
            front, back = shape_of_ints(dims[:cut]), shape_of_ints(dims[cut:])
            assert prefix_subtract(whole, front) == back
            assert drop_suffix(whole, back) == front


class TestLengthAndCount:
    def test_element_count(self):
        assert element_count([3, 2]) == 6
        assert element_count([]) == 1
        assert element_count([2, 0, 7]) == 0


class TestMonoidLaws:
    @given(st.integers(0, 10**6))
    def test_homomorphism_on_concat(self, seed):
        rng = random.Random(seed)
        a = random_shape(rng, shape_vars=())
        b = random_shape(rng, shape_vars=())
        joined = canonicalize_shape(parse_index(f"(++ {_p(a)} {_p(b)})"))
        assert len(joined.components) == len(canonicalize_shape(a).components) + len(
            canonicalize_shape(b).components
        )

    @settings(max_examples=200)
    @given(st.integers(0, 10**6))
    def test_identity_and_associativity(self, seed):
        rng = random.Random(seed)
        a = random_shape(rng)
        b = random_shape(rng)
        c = random_shape(rng)
        pa, pb, pc = _p(a), _p(b), _p(c)
        assert indices_equal(parse_index(f"(++ {pa} (Shp))"), a)
        assert indices_equal(parse_index(f"(++ (Shp) {pa})"), a)
        left = parse_index(f"(++ (++ {pa} {pb}) {pc})")
        right = parse_index(f"(++ {pa} (++ {pb} {pc}))")
        assert canonicalize_shape(left) == canonicalize_shape(right)


class TestCanonicalSpelling:
    def test_round_trips_through_canonical_form(self):
        rng = random.Random(48)
        for _ in range(200):
            s = random_shape(rng)
            spelled = shape_to_index(canonicalize_shape(s))
            assert canonicalize_shape(spelled) == canonicalize_shape(s)
            d = random_dim(rng)
            spelled_d = dim_to_index(canonicalize_dim(d))
            assert canonicalize_dim(spelled_d) == canonicalize_dim(d)

    def test_normalize_is_stable(self):
        i = parse_index("(++ (Shp 2) (Shp (+ x x 5)) d (Shp 3))")
        once = normalize_index(i)
        assert normalize_index(once) == once


def _canonical_dims(i):
    return canonicalize_shape(i).concrete_dims()


def _outcome(f, i):
    try:
        return f(i)
    except SortError as exc:
        return "SortError", str(exc)


def _index_fields(states) -> list:
    """The value of every index field (an array type's shape, an index
    argument, a box's indices, an erased tag) of every node of `states`,
    each shared node once."""
    seen, out = set(), []
    stack = list(states)
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack.extend(x)
            continue
        if not isinstance(x, Node) or id(x) in seen:
            continue
        seen.add(id(x))
        for f, role in x._roles.items():
            v = getattr(x, f)
            if isinstance(role, Child) and role.cat == IDX:
                out += v if isinstance(v, tuple) else [v]
            else:
                stack.append(v)
    return out


class TestConcreteDims:
    """`concrete_dims` reads a literal shape without canonicalizing it; the
    canonical form stays its oracle, errors included."""

    @pytest.mark.parametrize("text", ["(Shp)", "(Shp 0)", "(Shp (+ 1 2))", "(++ (Shp 2) (Shp 3))"])
    def test_concrete_shapes(self, text):
        i = parse_index(text)
        assert concrete_dims(i) == _canonical_dims(i)

    @pytest.mark.parametrize("text", ["s", "(Shp n)", "(++ s (Shp 1))"])
    def test_shapes_with_variables_raise_the_same_error(self, text):
        i = parse_index(text)
        with pytest.raises(SortError) as got:
            concrete_dims(i)
        with pytest.raises(SortError) as want:
            _canonical_dims(i)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("group", ORACLE_GROUPS)
    def test_agrees_on_every_index_the_machines_meet(self, group):
        literal = 0
        for term in oracle_programs(group):
            typed = [term] + [s for _, s in evaluate(term, trace=True).trace]
            erased = erase_term(term)
            erased = [erased] + [s for _, s in erased_evaluate(erased, trace=True).trace]
            for i in _index_fields(typed) + _index_fields(erased):
                assert _outcome(concrete_dims, i) == _outcome(_canonical_dims, i), i
                literal += type(i) is ShapeLit
        assert literal


def _p(i):
    from remora.printer import print_index

    return print_index(i)
