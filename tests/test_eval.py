"""The small-step evaluator: list metafunctions (paper goldens plus
algebra), single-step rule goldens, full-evaluation goldens, and the
dynamic-semantics invariants over generated programs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remora.check import EMPTY_ENV, elaborate, types_equal
from remora.eval import (
    DEFAULT_FUEL,
    AlreadyValue,
    EvalResult,
    Machine,
    Stepped,
    Stuck,
    concat_list,
    evaluate,
    is_value,
    rep_list,
    split_list,
    step,
    transpose_list,
)
from remora.gen import GenConfig, generate_programs
from remora.indices import element_count
from remora.names import alpha_equal
from remora.parser import parse_term
from remora.printer import print_term
from remora.prims import SIGNATURE
from remora.syntax import (
    NUM,
    App,
    ArrayLit,
    ArrType,
    BaseVal,
    Frame,
    FunType,
    IdxAppend,
    IdxVar,
    NatLit,
    PrimOp,
    ShapeLit,
    replace,
)

from .util import (
    ORACLE_GROUPS,
    assert_same_steps,
    oracle_programs,
    recursive_step,
    reduce_source,
    steps_to_reduce_delta,
)


class TestMetafunctions:
    def test_split_paper_example(self):
        assert split_list(3, [1, 2, 3, 4, 5, 6]) == [[1, 2, 3], [4, 5, 6]]

    def test_split_unit_pieces(self):
        assert split_list(1, ["a", "b"]) == [["a"], ["b"]]

    def test_split_empty(self):
        assert split_list(2, []) == []

    def test_rep_paper_example(self):
        assert rep_list(2, [0, 1]) == [0, 0, 1, 1]

    def test_rep_nested_lists_atomic(self):
        assert rep_list(2, [[1, 2, 3], [4, 5, 6]]) == [
            [1, 2, 3],
            [1, 2, 3],
            [4, 5, 6],
            [4, 5, 6],
        ]

    def test_rep_zero(self):
        assert rep_list(0, ["x"]) == []

    def test_transpose(self):
        assert transpose_list([[1, 2], [3, 4]]) == [[1, 3], [2, 4]]
        assert transpose_list([["a", "b", "c"]]) == [["a"], ["b"], ["c"]]
        assert transpose_list([[], []]) == []

    def test_concat(self):
        assert concat_list([[1, 2], [3]]) == [1, 2, 3]
        assert concat_list([]) == []

    @settings(max_examples=300)
    @given(st.lists(st.integers(), max_size=30), st.integers(1, 6))
    def test_concat_undoes_split(self, xs, n):
        xs = xs[: len(xs) - len(xs) % n]
        assert concat_list(split_list(n, xs)) == xs

    @settings(max_examples=300)
    @given(st.lists(st.integers(), max_size=20), st.integers(0, 5))
    def test_rep_length(self, xs, n):
        assert len(rep_list(n, xs)) == n * len(xs)

    @settings(max_examples=300)
    @given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 10**6))
    def test_transpose_involution(self, rows, cols, seed):
        rng = random.Random(seed)
        xss = [[rng.randint(0, 99) for _ in range(cols)] for _ in range(rows)]
        if rows and cols:
            assert transpose_list(transpose_list(xss)) == xss
        else:
            # degenerate rectangles collapse to [] either way
            assert transpose_list(xss) == [] or transpose_list(transpose_list(xss)) == []


def elab(src: str):
    t, ty = elaborate(EMPTY_ENV, SIGNATURE, parse_term(src))
    return t, ty


def run(src: str, fuel: int = 100_000):
    t, _ = elab(src)
    return evaluate(t, fuel=fuel)


class TestStepRules:
    def test_collapse_golden(self):
        t, _ = elab("(frame (2) (array (2) 1 2) (array (2) 3 4))")
        r = step(t)
        assert isinstance(r, Stepped) and r.rule == "collapse"
        assert print_term(r.term) == "(array (2 2) 1 2 3 4)"

    def test_delta_golden(self):
        t, _ = elab("((array () +) (array () 2) (array () 3))")
        r = step(t)
        assert isinstance(r, Stepped) and r.rule == "delta"
        assert print_term(r.term) == "(array () 5)"

    def test_lift_against_naive_oracle(self):
        # oracle: replicate the vector across the matrix rows, add pointwise
        vec = [10, 20]
        mat = [[1, 2, 3], [4, 5, 6]]
        expected = [x + y for row, x in zip(mat, vec) for y in row]
        assert expected == [11, 12, 13, 24, 25, 26]

        t, _ = elab("((array () +) (array (2) 10 20) (array (2 3) 1 2 3 4 5 6))")
        r = step(t)
        assert isinstance(r, Stepped) and r.rule == "lift"
        final = evaluate(t)
        assert final.outcome == "value"
        assert print_term(final.term) == "(array (2 3) 11 12 13 24 25 26)"

    def test_lift_postcondition_enables_map(self):
        t, _ = elab("((array () +) (array (2) 10 20) (array (2 3) 1 2 3 4 5 6))")
        lifted = step(t).term
        assert isinstance(lifted, App)
        assert lifted.fn.dims == (2, 3)
        assert lifted.args[0].dims == (2, 3)
        nxt = step(lifted)
        assert nxt.rule == "map"

    def test_map_produces_scalar_frames(self):
        # the function array already carries the principal frame
        t, _ = elab("((array (2) + +) (array (2) 1 2) (array (2) 3 4))")
        r = step(t)
        assert r.rule == "map"
        frame = r.term
        assert isinstance(frame, Frame) and frame.dims == (2,)
        for cell in frame.cells:
            assert isinstance(cell, App)
            assert cell.fn.dims == ()

    def test_beta_substitution(self):
        t, _ = elab("((array () (lam ((x (Arr Num (Shp)))) x)) (array () 9))")
        r = step(t)
        assert r.rule == "beta"
        assert print_term(r.term) == "(array () 9)"

    def test_tbeta_and_ibeta_wrap_frames(self):
        t, _ = elab("(t-app (array () (tlam ((t Atom)) (array () 1))) Num)")
        r = step(t)
        assert r.rule == "tbeta" and isinstance(r.term, Frame)
        t, _ = elab("(i-app (array () (ilam ((n Dim)) (array () 1))) 4)")
        r = step(t)
        assert r.rule == "ibeta" and isinstance(r.term, Frame)

    def test_unbox_lifts_over_box_array(self):
        t, _ = elab(
            "(unbox (n v (array (2)"
            " (box 1 (array (1) 5) (Sigma ((n Dim)) (Arr Num (Shp n))))"
            " (box 2 (array (2) 6 7) (Sigma ((n Dim)) (Arr Num (Shp n))))))"
            " (array () 0))"
        )
        r = step(t)
        assert r.rule == "unbox"
        assert isinstance(r.term, Frame) and r.term.dims == (2,)

    def test_empty_frame_collapses_from_annotation(self):
        t, _ = elab("(empty-frame (Arr Num (Shp 3)) (0))")
        r = step(t)
        assert r.rule == "collapse"
        assert r.term.dims == (0, 3) and r.term.atoms == ()

    def test_step_of_value_is_already_value(self):
        t, _ = elab("(array (2) 1 2)")
        assert isinstance(step(t), AlreadyValue)

    @pytest.mark.parametrize(
        "src,rules,result",
        [
            (
                "(t-app (empty-array (Forall ((t Atom)) (Arr Num (Shp 2))) (0)) Num)",
                ["tbeta", "collapse"],
                (0, 2),
            ),
            (
                "(i-app (empty-array (Pi ((n Dim)) (Arr Num (Shp 3))) (0)) 7)",
                ["ibeta", "collapse"],
                (0, 3),
            ),
            (
                "(unbox (n v (empty-array (Sigma ((n Dim)) (Arr Num (Shp n))) (0)))"
                " (array () 1))",
                ["unbox", "collapse"],
                (0,),
            ),
        ],
    )
    def test_empty_abstraction_arrays(self, src, rules, result):
        # zero cells: the produced empty frame collapses off its annotation
        t, _ = elab(src)
        r = evaluate(t, trace=True)
        assert r.outcome == "value"
        assert [rule for rule, _ in r.trace] == rules
        assert r.term.dims == result and r.term.atoms == ()


class TestEvaluate:
    def test_head_row_golden(self):
        r = run("((t-app (i-app (array () head) 2 (Shp 2)) Num) (array (3 2) 0 1 2 3 4 5))")
        assert r.outcome == "value" and print_term(r.term) == "(array (2) 0 1)"

    def test_head_column_golden(self):
        r = run("((t-app (i-app (array () head) 1 (Shp)) Num) (array (3 2) 0 1 2 3 4 5))")
        assert r.outcome == "value" and print_term(r.term) == "(array (3) 0 2 4)"

    def test_column_program_passes_through_paper_frame_state(self):
        t, _ = elab("((t-app (i-app (array () head) 1 (Shp)) Num) (array (3 2) 0 1 2 3 4 5))")
        r = evaluate(t, trace=True)
        states = [print_term(term) for _, term in r.trace]
        assert "(frame (3) (array () 0) (array () 2) (array () 4))" in states

    def test_division_by_zero_sticks(self):
        r = run("((array () /) (array () 1) (array () 0))")
        assert r.outcome == "stuck"
        assert r.stuck.reason == "misapplied" and r.stuck.op == "/"

    def test_out_of_fuel(self):
        r = run("((t-app (i-app (array () head) 1 (Shp)) Num) (array (3 2) 0 1 2 3 4 5))", fuel=3)
        assert r.outcome == "fuel"

    def test_determinism(self):
        src = "((array () +) (array (2) 10 20) (array (2 3) 1 2 3 4 5 6))"
        t, _ = elab(src)
        r1 = evaluate(t, trace=True)
        r2 = evaluate(t, trace=True)
        assert r1.term == r2.term
        assert [rule for rule, _ in r1.trace] == [rule for rule, _ in r2.trace]

    def test_trace_rules_are_known(self):
        from remora.eval import RULES

        for prog in generate_programs(20, seed=31):
            t, _ = elaborate(EMPTY_ENV, SIGNATURE, prog)
            r = evaluate(t, fuel=4000, trace=True)
            for rule, _ in r.trace:
                assert rule in RULES


def _num(x: float) -> BaseVal:
    return BaseVal("Num", float(x), annot=NUM)


def _with_arg(src: str, i: int, dims: tuple[int, ...]):
    """The elaborated application `src` with argument i replaced by an array
    of the given dims (its annotation kept: the rules read the function's)."""
    t, _ = elab(src)
    arg = ArrayLit(dims, tuple(_num(k) for k in range(element_count(dims))), annot=t.args[i].annot)
    return replace(t, args=t.args[:i] + (arg,) + t.args[i + 1 :])


def _with_extra_atom(src: str):
    """The elaborated application `src` with one more atom in its first
    argument than its dims hold."""
    t, _ = elab(src)
    arg = replace(t.args[0], atoms=t.args[0].atoms + (_num(9),))
    return replace(t, args=(arg,) + t.args[1:])


def _scalar_plus(**changes):
    """`(+ 1 2)` with the given fields of its function array changed."""
    t, _ = elab("((array () +) (array () 1) (array () 2))")
    return replace(t, fn=replace(t.fn, **changes))


def _binary_num(cell_shape) -> ArrType:
    """The type of a scalar array of functions of two Num arrays of
    `cell_shape`."""
    cell = ArrType(NUM, cell_shape)
    return ArrType(FunType((cell, cell), ArrType(NUM, ShapeLit(()))), ShapeLit(()))


def _iota_s_to(shape):
    """`iota/s` applied, instantiated to the result shape `shape`."""
    fun = FunType((), ArrType(NUM, shape))
    fn = ArrayLit((), (PrimOp("iota/s", annot=fun),), annot=ArrType(fun, ShapeLit(())))
    return App(fn, (), annot=fun.output)


_S = IdxVar("s")


class TestInternalStuck:
    """Hand-built redexes that no well-typed program reaches: each rule ends
    in an internal stuck state, never a Python exception, in `step` and in
    the machine alike."""

    CASES = {
        "frames not prefix-ordered": (
            lambda: _with_arg("((array () +) (array (2) 1 2) (array (2) 3 4))", 1, (3,)),
            "frames are not prefix-ordered",
        ),
        "argument without its cell shape": (
            lambda: _with_arg("((array () (lam ((x (Arr Num (Shp 2)))) x)) (array (2) 1 2))", 0, (3,)),
            "argument shape does not end with its cell shape",
        ),
        "map over more atoms than dims": (
            lambda: _with_extra_atom("((array (2) + +) (array (2) 1 2) (array (2) 3 4))"),
            "atom count does not match dims",
        ),
        "lift over more atoms than dims": (
            lambda: _with_extra_atom("((array () +) (array (2) 1 2) (array () 3))"),
            "atom count does not match dims",
        ),
        "scalar head neither lam nor operator": (
            lambda: _scalar_plus(atoms=(_num(5),)),
            "scalar application head is not lam or operator",
        ),
        "cell shape with a variable": (
            lambda: _scalar_plus(annot=_binary_num(_S)),
            "bad cell shape: shape is not concrete: [s]",
        ),
        "cell shape of the wrong sort": (
            lambda: _scalar_plus(annot=_binary_num(NatLit(1))),
            "bad cell shape: expected a Shape-sorted index, got a Dim form",
        ),
        "delta result shape with a variable": (
            lambda: _iota_s_to(_S),
            "bad result shape: shape is not concrete: [s]",
        ),
        "empty frame shape with a variable": (
            lambda: Frame((0,), (), annot=ArrType(NUM, IdxAppend((ShapeLit((NatLit(0),)), _S)))),
            "bad frame shape: shape is not concrete: [0 s]",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_step_and_machine_stick(self, case):
        build, detail = self.CASES[case]
        t = build()
        want = Stuck("internal", detail=detail)
        assert step(t) == want
        r = evaluate(t)
        assert (r.outcome, r.steps, r.stuck) == ("stuck", 0, want)


def iterate_step(e, fuel: int, trace: bool) -> EvalResult:
    """The specification of `evaluate`: a plain loop over `step`."""
    log = [] if trace else None
    current = e
    for n in range(fuel + 1):
        r = step(current)
        if isinstance(r, AlreadyValue):
            return EvalResult("value", current, n, trace=log)
        if isinstance(r, Stuck):
            return EvalResult("stuck", current, n, stuck=r, trace=log)
        if n == fuel:  # fuel bounds the steps taken, not the verdicts
            break
        current = r.term
        if log is not None:
            log.append((r.rule, current))
    return EvalResult("fuel", current, fuel, trace=log)


class TestRefocusedMachine:
    """`evaluate` resumes the redex search at the hole; iterating `step` from
    the root is its oracle. Fresh names come from a global counter, so terms
    are compared up to alpha."""

    @pytest.mark.parametrize("group", ORACLE_GROUPS)
    def test_matches_iterated_step(self, group):
        for term in oracle_programs(group):
            for fuel in (1, 3, DEFAULT_FUEL):
                spec = iterate_step(term, fuel, trace=True)
                for trace in (False, True):
                    got = evaluate(term, fuel=fuel, trace=trace)
                    assert (got.outcome, got.steps, got.stuck) == (spec.outcome, spec.steps, spec.stuck)
                    assert alpha_equal(got.term, spec.term)
                    if not trace:
                        assert got.trace is None
                        continue
                    assert [r for r, _ in got.trace] == [r for r, _ in spec.trace]
                    if fuel < DEFAULT_FUEL:
                        for (_, a), (_, b) in zip(got.trace, spec.trace):
                            assert alpha_equal(a, b)

    def test_fuel_zero_returns_the_input(self):
        t, _ = elab("((array () +) (array () 1) (array () 2))")
        r = evaluate(t, fuel=0)
        assert (r.outcome, r.term, r.steps) == ("fuel", t, 0)

    def test_fuel_ends_on_a_value(self):
        # As in bisim_run, a value after the last allowed contraction is a value.
        t, _ = elab("((array () +) (array () 1) (array () 2))")
        r = evaluate(t, fuel=1)
        assert (r.outcome, r.steps, print_term(r.term)) == ("value", 1, "(array () 3)")

    def test_deep_context_evaluates(self):
        # The right fold is an App chain 10^4 deep: the context stack lives on
        # the heap, so this needs no Python recursion.
        t, _ = elab(reduce_source(10_000))
        r = evaluate(t)
        assert r.outcome == "value" and print_term(r.term) == "(array () 49995000)"


class TestSpecLoop:
    """`step` searches from the root in a loop and rebuilds the spine once.
    The recursive spec it replaced is its oracle at every step."""

    @pytest.mark.parametrize("group", ORACLE_GROUPS)
    def test_matches_recursive_step(self, group):
        for term in oracle_programs(group):
            assert_same_steps(term, step, recursive_step)

    def test_deep_spine_needs_no_recursion(self):
        # Right after the `reduce` delta the redex is at the bottom of an App
        # chain 3000 deep: deeper than a recursive spec can descend.
        t, _ = elab(reduce_source(3000))
        m = Machine(t)
        state = evaluate(t, fuel=steps_to_reduce_delta(m)).term
        assert m.refocus() is None
        r = step(state)
        assert type(r) is Stepped and r.rule == m.contract().rule


class TestDynamicInvariants:
    def test_progress_and_preservation(self):
        violations = []
        for i, prog in enumerate(generate_programs(120, seed=41, config=GenConfig(stuck_rate=0.06))):
            t, ty = elaborate(EMPTY_ENV, SIGNATURE, prog)
            cur = t
            for _ in range(4000):
                r = step(cur)
                if isinstance(r, AlreadyValue):
                    assert is_value(cur)
                    break
                if isinstance(r, Stuck):
                    if r.reason != "misapplied":
                        violations.append((i, "internal", r.detail))
                    break
                cur = r.term
                _, ty2 = elaborate(EMPTY_ENV, SIGNATURE, cur)
                if not types_equal(ty, ty2):
                    violations.append((i, "type drift", print_term(cur)))
                    break
        assert not violations, violations[:3]

    def test_collapse_count_law(self):
        for prog in generate_programs(40, seed=51):
            t, _ = elaborate(EMPTY_ENV, SIGNATURE, prog)
            cur = t
            for _ in range(4000):
                r = step(cur)
                if not isinstance(r, Stepped):
                    break
                if r.rule == "collapse":
                    out = _find_new_array(cur, r.term)
                    if out is not None:
                        frame, arr = out
                        assert len(arr.atoms) == element_count(arr.dims)
                        assert element_count(frame.dims) * element_count(
                            arr.dims[len(frame.dims) :]
                        ) == len(arr.atoms)
                cur = r.term


def _find_new_array(before, after):
    """Locate the frame that collapsed and the array it became (the unique
    position where the two terms differ)."""
    if isinstance(before, Frame) and isinstance(after, ArrayLit):
        return before, after
    for name in ("fn", "box", "body"):
        b, a = getattr(before, name, None), getattr(after, name, None)
        if b is not None and a is not None and b != a:
            return _find_new_array(b, a)
    for name in ("args", "cells", "atoms"):
        bs, as_ = getattr(before, name, None), getattr(after, name, None)
        if bs is None or as_ is None:
            continue
        for b, a in zip(bs, as_):
            if b != a:
                if hasattr(b, "payload"):
                    return _find_new_array(b.payload, a.payload)
                return _find_new_array(b, a)
    return None
