"""Type erasure, the erased evaluator, and lockstep execution."""

import os
import pathlib
import random
import subprocess
import sys
import typing
from collections import Counter

import pytest

import remora
import remora.erase
import remora.eval
import remora.indices
import remora.names

from remora.check import EMPTY_ENV, elaborate
from remora.erase import (
    EArray,
    EBase,
    EBox,
    EFrame,
    EIApp,
    EILam,
    ELam,
    EVar,
    ErasedMachine,
    LockstepComparer,
    bisim_run,
    erase_term,
    erase_type,
    erased_alpha_equal,
    erased_evaluate,
    erased_step,
    erased_subterm,
    esubst_idx,
    esubst_term,
    is_evalue,
    print_erased,
)
from remora.eval import AlreadyValue, EvalResult, Machine, Stepped, Stuck, evaluate, is_value, step as typed_step
from remora.gen import GenConfig, generate_programs
from remora.indices import element_count, normalize_tag
from remora.names import (
    IDX,
    TM,
    Generations,
    alpha_equal,
    free_vars,
    subst,
    subst_idx_in_term,
    subst_term,
    subst_ty_in_term,
)
from remora.parser import parse_term, parse_type
from remora.printer import print_term
from remora.prims import SIGNATURE
from remora.syntax import App, EApp, EOp, IdxAppend, IdxVar, IndexExpr, NatLit, NUM, ShapeLit, TypeExpr
from remora.syntax import replace, scalar_of

from . import util
from .util import (
    E_DIM_VARS,
    E_SHAPE_VARS,
    E_TERM_VARS,
    ORACLE_GROUPS,
    PROGRAMS_DIR,
    TWO_LAMS_SOURCE,
    assert_same_steps,
    atom_in_surviving_lam,
    change_atom,
    check_src,
    efree_idx,
    efree_term,
    erased_sites,
    erased_tags,
    family_source,
    fired_substitutions,
    first_free_atom,
    first_free_tag,
    frame_cell_right_of_hole,
    oracle_programs,
    plant_divergence,
    random_erased_expr,
    random_erased_tag,
    recursive_erased_step,
    reduce_source,
    reference_bisim,
    reference_erase_term,
    reference_erased_alpha_equal,
    reference_esubst_idx,
    reference_esubst_term,
    reference_form,
    reference_subst,
    rename_index_binder,
    reshape_tag,
    respell_tag,
    rewrite_at,
    steps_to_reduce_delta,
    swap_params,
    value_left_of_hole,
)


def elab(src: str):
    t, _ = elaborate(EMPTY_ENV, SIGNATURE, parse_term(src))
    return t


class TestEraseType:
    def test_array_keeps_shape(self):
        assert erase_type(parse_type("(Arr Num (Shp 3))")) == ShapeLit((NatLit(3),))

    def test_function_becomes_scalar_shape(self):
        assert erase_type(parse_type("(-> ((Arr Num (Shp))) (Arr Num (Shp)))")) == ShapeLit(())

    def test_quantifiers_and_bases_become_scalar_shape(self):
        for src in ["Num", "(Forall ((t Atom)) (Arr t (Shp)))", "(Pi ((n Dim)) (Arr Num (Shp n)))",
                    "(Sigma ((n Dim)) (Arr Num (Shp n)))"]:
            assert erase_type(parse_type(src)) == ShapeLit(())

    def test_type_variable_becomes_index_variable(self):
        assert erase_type(parse_type("t")) == IdxVar("t")

    def test_shape_extraction_from_symbolic_array(self):
        got = erase_type(parse_type("(Arr t s)"))
        assert got == IdxVar("s")


# Erases a hand-built, annotated `(frame () ...)` nest argv[1] levels deep,
# deeper than the recursion limit, and prints the erasure.
DEEP_FRAME_ERASURE = """
import sys
from remora.erase import erase_term, print_erased
from remora.syntax import NUM, ArrayLit, Frame, num, scalar_of
n = int(sys.argv[1])
assert n > sys.getrecursionlimit()
t = ArrayLit((), (num(7),), annot=scalar_of(NUM))
for _ in range(n):
    t = Frame((), (t,), annot=scalar_of(NUM))
print(print_erased(erase_term(t)))
"""


class TestEraseTerm:
    def test_literals_unchanged(self):
        got = erase_term(elab("(array (2) 1 2)"))
        assert got == EArray((2,), (EBase("Num", 1.0), EBase("Num", 2.0)))

    def test_lambda_loses_parameter_types(self):
        got = erase_term(elab("(array () (lam ((x (Arr Num (Shp)))) x))"))
        assert got.atoms[0] == ELam(("x",), EVar("x"))

    def test_tlam_becomes_index_lambda(self):
        got = erase_term(elab("(array () (tlam ((t Atom)) (array () 1)))"))
        assert isinstance(got.atoms[0], EILam)

    def test_tapp_becomes_index_application_with_result_tag(self):
        got = erase_term(elab("(t-app (array () (tlam ((t Atom)) (array () 1))) Num)"))
        assert isinstance(got, EIApp)
        assert got.idx_args == (ShapeLit(()),)
        assert got.out_shape == ShapeLit(())

    def test_application_tagged_with_cell_and_result_shapes(self):
        got = erase_term(
            elab("((array () +) (array (2) 10 20) (array (2 3) 1 2 3 4 5 6))")
        )
        assert got.arg_shapes == (ShapeLit(()), ShapeLit(()))
        assert got.out_shape == ShapeLit((NatLit(2), NatLit(3)))

    def test_box_drops_annotation(self):
        got = erase_term(
            elab("(array () (box 2 (array (2) 1 2) (Sigma ((n Dim)) (Arr Num (Shp n)))))")
        )
        assert got.atoms[0] == EBox((NatLit(2),), EArray((2,), (EBase("Num", 1.0), EBase("Num", 2.0))))

    def test_erasure_is_a_function(self):
        t = elab("((array () +) (array () 1) (array () 2))")
        assert erase_term(t) == erase_term(t)

    @pytest.mark.parametrize("src, what", [
        ("((array () +) (array () 1) (array () 2))", "application"),
        ("(frame () (array () 1))", "frame"),
        ("(t-app (array () (tlam ((t Atom)) (array () 1))) Num)", "t-app"),
        ("(i-app (array () iota/s) (Shp 2))", "i-app"),
        ("(unbox (n v (array () (box 2 (array (2) 1 2) (Sigma ((n Dim)) (Arr Num (Shp n)))))) v)", "unbox"),
    ])
    def test_unelaborated_node_is_refused(self, src, what):
        with pytest.raises(ValueError) as exc:
            erase_term(parse_term(src))
        assert str(exc.value) == f"erasure requires an elaborated term ({what})"

    def test_application_whose_head_is_not_a_function_is_refused(self):
        t = elab("((array () +) (array () 1) (array () 2))")
        with pytest.raises(ValueError) as exc:
            erase_term(replace(t, fn=replace(t.fn, annot=scalar_of(NUM))))
        assert str(exc.value) == "application head is not function-typed"

    def test_any_depth_at_the_default_recursion_limit(self):
        # In a fresh process, where the recursion limit is the default.
        n = 10_000
        src = str(pathlib.Path(remora.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-c", DEEP_FRAME_ERASURE, str(n)], capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        assert proc.stdout == "(frame (Shp) " * n + "(array () 7)" + ")" * n + "\n"


class TestSubstitutionCommutes:
    def _programs(self, n, seed):
        return generate_programs(n, seed=seed)

    def test_term_substitution(self):
        rng = random.Random(61)
        payloads = [elab("(array () 7)"), elab("(array (2) 1 2)")]
        for prog in self._programs(60, 62):
            t, _ = elaborate(EMPTY_ENV, SIGNATURE, prog)
            fvs = sorted(free_vars(t, TM)) or ["zz"]
            x = rng.choice(fvs)
            v = rng.choice(payloads)
            lhs = erase_term(subst_term(t, {x: v}))
            rhs = esubst_term(erase_term(t), {x: erase_term(v)})
            assert erased_alpha_equal(lhs, rhs), print_term(prog)

    def test_index_substitution(self):
        rng = random.Random(63)
        for prog in self._programs(60, 64):
            t, _ = elaborate(EMPTY_ENV, SIGNATURE, prog)
            # substitute for a fresh variable too (no-op) and for any free one
            for x, payload in [("n", NatLit(rng.randint(0, 3)))]:
                lhs = erase_term(subst_idx_in_term(t, {x: payload}))
                rhs = esubst_idx(erase_term(t), {x: payload})
                assert erased_alpha_equal(lhs, rhs)

    def test_index_substitution_in_open_terms(self):
        open_srcs = [
            "(array () (lam ((x (Arr Num (Shp n)))) x))",
            "(frame () (array () (lam ((x (Arr Num (++ (Shp n) (Shp 2))))) x)))",
        ]
        from remora.check import Env
        from remora.syntax import Sort

        env = EMPTY_ENV.with_sorts([("n", Sort.DIM)])
        for src in open_srcs:
            t, _ = elaborate(env, SIGNATURE, parse_term(src))
            for k in (0, 2):
                lhs = erase_term(subst_idx_in_term(t, {"n": NatLit(k)}))
                rhs = esubst_idx(erase_term(t), {"n": NatLit(k)})
                assert erased_alpha_equal(lhs, rhs)

    def test_type_substitution(self):
        # type variables erase to index variables, type payloads to shapes
        from remora.check import Env
        from remora.syntax import Kind

        env = EMPTY_ENV.with_kinds([("t", Kind.ATOM)])
        srcs = [
            "(array () (lam ((x (Arr t (Shp)))) x))",
            "(frame () (array () (lam ((x (Arr t (Shp 2)))) x)))",
        ]
        for src in srcs:
            t, _ = elaborate(env, SIGNATURE, parse_term(src))
            for payload in (NUM, parse_type("Bool")):
                lhs = erase_term(subst_ty_in_term(t, {"t": payload}))
                rhs = esubst_idx(erase_term(t), {"t": erase_type(payload)})
                assert erased_alpha_equal(lhs, rhs)


class TestDerivedSubstitution:
    """Free variables and substitution on erased terms, derived from
    `names.SCHEMA`, against the hand-written reference in `tests/util.py`, on
    random erased terms with well-sorted tags whose binders' names, in both
    namespaces, also occur free in the payloads."""

    def test_agrees_with_reference(self, monkeypatch):
        renames = 0
        gensym = remora.names.gensym

        def counted(base):
            nonlocal renames
            renames += 1
            return gensym(base)

        monkeypatch.setattr(remora.names, "gensym", counted)
        rng = random.Random(71)
        for _ in range(1500):
            t = random_erased_expr(rng, 4)
            assert free_vars(t, TM) == efree_term(t) and free_vars(t, IDX) == efree_idx(t)
            idx_keys = rng.sample(E_DIM_VARS + E_SHAPE_VARS, rng.randint(1, 3))
            by_idx = {x: random_erased_tag(rng, x in E_DIM_VARS) for x in idx_keys}
            by_term = {x: random_erased_expr(rng, 2) for x in rng.sample(E_TERM_VARS, rng.randint(1, 2))}
            # A tag of the result that is neither the term's nor a term
            # payload's was rewritten by the substitution.
            kept = {id(i) for v in (t, *by_term.values()) for i in erased_tags(v)}
            for derived, reference, m in (
                (esubst_idx, reference_esubst_idx, by_idx),
                (esubst_term, reference_esubst_term, by_term),
            ):
                got = derived(t, m)
                assert erased_alpha_equal(got, reference(t, m)), (print_erased(t), m)
                assert all(i == normalize_tag(i) for i in erased_tags(got) if id(i) not in kept)
        assert renames >= 500


class TestValuesEraseToValues:
    def test_on_generated_final_values(self):
        for prog in generate_programs(50, seed=65):
            t, _ = elaborate(EMPTY_ENV, SIGNATURE, prog)
            r = evaluate(t, fuel=4000)
            if r.outcome != "value":
                continue
            assert is_value(r.term)
            assert is_evalue(erase_term(r.term))

    def test_nonvalues_erase_to_nonvalues(self):
        for src in [
            "((array () +) (array () 1) (array () 2))",
            "(frame (1) ((array () +) (array () 1) (array () 2)))",
        ]:
            t = elab(src)
            assert not is_value(t)
            assert not is_evalue(erase_term(t))


class TestErasedEvaluator:
    def test_column_program(self):
        t = elab("((t-app (i-app (array () head) 1 (Shp)) Num) (array (3 2) 0 1 2 3 4 5))")
        r = erased_evaluate(erase_term(t))
        assert r.outcome == "value"
        assert print_erased(r.term) == "(array (3) 0 2 4)"

    def test_empty_frame_collapse_reads_tag(self):
        t = elab("(empty-frame (Arr Num (Shp 3)) (0))")
        r = erased_evaluate(erase_term(t))
        assert r.outcome == "value"
        assert r.term == EArray((0, 3), ())

    def test_division_by_zero_sticks(self):
        t = elab("((array () /) (array () 1) (array () 0))")
        r = erased_evaluate(erase_term(t))
        assert r.outcome == "stuck" and r.stuck.op == "/"

    def test_step_counts_match_typed_machine(self):
        t = elab("((t-app (i-app (array () head) 1 (Shp)) Num) (array (3 2) 0 1 2 3 4 5))")
        typed = evaluate(t)
        erased = erased_evaluate(erase_term(t))
        assert typed.steps == erased.steps == 10


def _e_with_arg(src: str, i: int, dims: tuple[int, ...]):
    """The erased application `src` with argument i replaced by an array of
    the given dims."""
    e = erase_term(elab(src))
    arg = EArray(dims, tuple(EBase("Num", float(k)) for k in range(element_count(dims))))
    return replace(e, args=e.args[:i] + (arg,) + e.args[i + 1 :])


def _e_with_extra_atom(src: str):
    """The erased application `src` with one more atom in its first argument
    than its dims hold."""
    e = erase_term(elab(src))
    arg = replace(e.args[0], atoms=e.args[0].atoms + (EBase("Num", 9.0),))
    return replace(e, args=(arg,) + e.args[1:])


def _e_scalar_plus(**changes):
    """The erased `(+ 1 2)` with the given fields changed."""
    return replace(erase_term(elab("((array () +) (array () 1) (array () 2))")), **changes)


_S = IdxVar("s")


class TestErasedInternalStuck:
    """The erased rules' internal stuck states, on hand-built redexes that
    no erased well-typed program reaches, in `erased_step` and in the
    machine alike."""

    CASES = {
        "frames not prefix-ordered": (
            lambda: _e_with_arg("((array () +) (array (2) 1 2) (array (2) 3 4))", 1, (3,)),
            "frames are not prefix-ordered",
        ),
        "argument without its cell tag": (
            lambda: _e_with_arg("((array () (lam ((x (Arr Num (Shp 2)))) x)) (array (2) 1 2))", 0, (3,)),
            "argument shape does not end with its cell tag",
        ),
        "map over more atoms than dims": (
            lambda: _e_with_extra_atom("((array (2) + +) (array (2) 1 2) (array (2) 3 4))"),
            "atom count does not match dims",
        ),
        "lift over more atoms than dims": (
            lambda: _e_with_extra_atom("((array () +) (array (2) 1 2) (array () 3))"),
            "atom count does not match dims",
        ),
        "scalar head neither lam nor operator": (
            lambda: _e_scalar_plus(fn=EArray((), (EBase("Num", 5.0),))),
            "scalar application head is not lam or operator",
        ),
        "cell tag with a variable": (
            lambda: _e_scalar_plus(arg_shapes=(_S, _S)),
            "bad cell tag: shape is not concrete: [s]",
        ),
        "cell tag of the wrong sort": (
            lambda: _e_scalar_plus(arg_shapes=(NatLit(1), NatLit(1))),
            "bad cell tag: expected a Shape-sorted index, got a Dim form",
        ),
        "map result tag with a variable": (
            lambda: replace(erase_term(elab("((array (2) + +) (array (2) 1 2) (array (2) 3 4))")), out_shape=_S),
            "bad result tag: shape is not concrete: [s]",
        ),
        "delta result tag with a variable": (
            lambda: EApp(EArray((), (EOp("iota/s"),)), (), (), _S),
            "bad result tag: shape is not concrete: [s]",
        ),
        "frame tag with a variable": (
            lambda: EFrame(IdxAppend((ShapeLit((NatLit(0),)), _S)), ()),
            "bad frame tag: shape is not concrete: [0 s]",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_step_and_machine_stick(self, case):
        build, detail = self.CASES[case]
        e = build()
        want = Stuck("internal", detail=detail)
        assert erased_step(e) == want
        r = erased_evaluate(e)
        assert (r.outcome, r.steps, r.stuck) == ("stuck", 0, want)


def iterate_erased_step(e, fuel: int, trace: bool) -> EvalResult:
    """The specification of `erased_evaluate`: a plain loop over `erased_step`."""
    log = [] if trace else None
    current = e
    for n in range(fuel + 1):
        r = erased_step(current)
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


class TestRefocusedErasedMachine:
    """`erased_evaluate` resumes the redex search at the hole; iterating
    `erased_step` from the root is its oracle. Fresh names come from a global
    counter, so terms are compared up to alpha."""

    FUEL = 100_000

    @pytest.mark.parametrize("group", ORACLE_GROUPS)
    def test_matches_iterated_erased_step(self, group):
        for term in oracle_programs(group):
            erased = erase_term(term)
            for fuel in (1, 3, self.FUEL):
                spec = iterate_erased_step(erased, fuel, trace=True)
                for trace in (False, True):
                    got = erased_evaluate(erased, fuel=fuel, trace=trace)
                    assert (got.outcome, got.steps, got.stuck) == (spec.outcome, spec.steps, spec.stuck)
                    assert erased_alpha_equal(got.term, spec.term)
                    if not trace:
                        assert got.trace is None
                        continue
                    assert [r for r, _ in got.trace] == [r for r, _ in spec.trace]
                    if fuel < self.FUEL:
                        for (_, a), (_, b) in zip(got.trace, spec.trace):
                            assert erased_alpha_equal(a, b)

    def test_deep_context_evaluates(self):
        r = erased_evaluate(erase_term(elab(reduce_source(10_000))))
        assert r.outcome == "value" and print_erased(r.term) == "(array () 49995000)"


class TestErasedSpecLoop:
    """`erased_step` searches from the root in a loop and rebuilds the spine
    once. The recursive spec it replaced is its oracle at every step."""

    @pytest.mark.parametrize("group", ORACLE_GROUPS)
    def test_matches_recursive_erased_step(self, group):
        for term in oracle_programs(group):
            assert_same_steps(erase_term(term), erased_step, recursive_erased_step)

    def test_deep_spine_needs_no_recursion(self):
        # Erasing the deep state would recurse, so the erased machine, run
        # from the erasure of the shallow program, reaches it.
        e = erase_term(elab(reduce_source(3000)))
        m = ErasedMachine(e)
        state = erased_evaluate(e, fuel=steps_to_reduce_delta(m)).term
        assert m.refocus() is None
        r = erased_step(state)
        assert type(r) is Stepped and r.rule == m.contract().rule


RESHAPE = "(t-app (i-app (array () reshape) 2 (Shp 0)) Num)"
RAVEL_BOX = "(Sigma ((n Dim)) (Arr Num (Shp n)))"


class TestBisim:
    def test_column_program_lockstep(self):
        t = elab("((t-app (i-app (array () head) 1 (Shp)) Num) (array (3 2) 0 1 2 3 4 5))")
        rep = bisim_run(t, fuel=1000, trace=True)
        assert rep.outcome == "both-value"
        # tbeta on the typed side shows up as ibeta on the erased side
        rules = dict(rep.trace)
        assert rules.get("tbeta") == "ibeta"

    def test_stuck_program(self):
        t = elab("((array () /) (array () 1) (array () 0))")
        rep = bisim_run(t, fuel=100)
        assert rep.outcome == "both-stuck"

    def test_value_input(self):
        t = elab("(array (2) 1 2)")
        rep = bisim_run(t, fuel=100)
        assert rep.outcome == "both-value" and rep.steps == 0

    def test_generated_programs_never_mismatch(self):
        for prog in generate_programs(80, seed=71, config=GenConfig(stuck_rate=0.08)):
            t, _ = elaborate(EMPTY_ENV, SIGNATURE, prog)
            rep = bisim_run(t, fuel=10_000)
            assert rep.outcome in ("both-value", "both-stuck"), print_term(prog)

    # Operators the generated programs never apply, at empty arrays, under a
    # frame and outside the domain: (program, bisim outcome, typed outcome and
    # result).
    UNEXERCISED = {
        "ravel-2x3": (
            "((t-app (i-app (array () ravel) (Shp 2 3)) Num) (array (2 3) 1 2 3 4 5 6))",
            "both-value", "value", f"(array () (box 6 (array (6) 1 2 3 4 5 6) {RAVEL_BOX}))",
        ),
        "ravel-empty-0x3": (
            "((t-app (i-app (array () ravel) (Shp 0 3)) Num) (empty-array Num (0 3)))",
            "both-value", "value", f"(array () (box 0 (array (0) : (Arr Num (Shp 0))) {RAVEL_BOX}))",
        ),
        "ravel-lifted-4-frame": (
            "((t-app (i-app (array () ravel) (Shp 2)) Num) (array (4 2) 1 2 3 4 5 6 7 8))",
            "both-value", "value",
            "(array (4) " + " ".join(f"(box 2 (array (2) {2 * i + 1} {2 * i + 2}) {RAVEL_BOX})" for i in range(4)) + ")",
        ),
        "reshape-empty-source": (
            f"({RESHAPE} (array (2) 0 2) (empty-array Num (0)))",
            "both-value", "value",
            "(array () (box (Shp 0 2) (array (0 2) : (Arr Num (Shp 0 2))) (Sigma ((s Shape)) (Arr Num s))))",
        ),
        "reshape-outside-domain": (
            f"({RESHAPE} (array (2) 3 2) (empty-array Num (0)))",
            "both-stuck", "stuck", "((array () reshape) (array (2) 3 2) (array (0) : (Arr Num (Shp 0))))",
        ),
        "iota-s-2x0": (
            "((i-app (array () iota/s) (Shp 2 0)))", "both-value", "value", "(array (2 0) : (Arr Num (Shp 2 0)))",
        ),
        "iota-s-scalar": ("((i-app (array () iota/s) (Shp)))", "both-value", "value", "(array () 0)"),
    }

    @pytest.mark.parametrize("case", UNEXERCISED)
    def test_unexercised_operators_in_lockstep(self, case):
        src, outcome, typed_outcome, result = self.UNEXERCISED[case]
        t = elab(src)
        rep = bisim_run(t, fuel=1000, trace=True)
        assert rep.outcome == outcome
        assert (("delta", "delta") in rep.trace) == (outcome == "both-value")
        r = evaluate(t)
        assert (r.outcome, print_term(r.term)) == (typed_outcome, result)


class TestLockstepComparer:
    """The incremental comparer `bisim_run` uses, driven state by state
    against the whole-term reference, on the real states and on one-site
    mutations of the erased state; and the erasure it memoizes, against the
    erasure as first written."""

    # The groups whose states the whole-state reference decides; on every
    # group, each state's erasure is checked against the reference erasure.
    GROUPS = ("batch", "corpus", "lift100", "frame100")
    # Mutation, and the verdict it must get (None: the reference decides).
    MUTATIONS = {
        change_atom: False,
        reshape_tag: False,
        respell_tag: True,
        rename_index_binder: True,
        swap_params: None,
    }
    MUTATE_EVERY = 16  # steps between mutation rounds

    @staticmethod
    def check(lockstep, typed, erased, typed_erasure, typed_reference_form):
        verdict = typed_reference_form == reference_form(erased)
        assert erased_alpha_equal(typed_erasure, erased) == verdict
        assert lockstep.same(typed, erased) == verdict
        return verdict

    @pytest.mark.parametrize("group", ORACLE_GROUPS)
    def test_agrees_with_reference(self, group):
        rng = random.Random(91)
        verdicts: dict = {m: [] for m in self.MUTATIONS}
        fields = remora.erase._equal_fields
        for term in oracle_programs(group):
            lockstep, memo, seen = LockstepComparer(), Generations(), {}
            typed, erased = term, lockstep.erase(term)
            for n in range(10_000):
                # Erasure without a memo and with one aged once per step,
                # field for field (node `==` recurses) against the ladder.
                e, want = erase_term(typed), reference_erase_term(typed, seen)
                assert fields(e, want) and fields(remora.erase._erase(typed, memo), want)
                memo.age()
                if group in self.GROUPS:
                    ref = reference_form(e)
                    assert self.check(lockstep, typed, erased, e, ref)
                    if n % self.MUTATE_EVERY == 0:
                        sites = erased_sites(erased)
                        for mutation, expected in self.MUTATIONS.items():
                            where = [(p, x) for p, _, x in sites if mutation(x) is not None]
                            if not where:
                                continue
                            path, node = rng.choice(where)
                            bad = rewrite_at(erased, path, mutation(node))
                            verdict = self.check(lockstep, typed, bad, e, ref)
                            assert expected is None or verdict == expected
                            verdicts[mutation].append(verdict)
                rt, re = typed_step(typed), erased_step(erased)
                if not (isinstance(rt, Stepped) and isinstance(re, Stepped)):
                    break
                typed, erased = rt.term, re.term
        if group not in self.GROUPS:
            return
        assert verdicts[change_atom] and verdicts[respell_tag] and verdicts[reshape_tag]
        if group in ("batch", "corpus"):
            assert verdicts[rename_index_binder]
        if group == "batch":
            assert False in verdicts[swap_params]


class TestPlantedDivergence:
    """A memo must not hide a real difference: the erased machine's k-th step
    returns its term with one site changed, and bisim must report a mismatch
    at step k whose path names that site. The two-lam program takes 6 steps."""

    def test_unplanted_run_agrees(self):
        rep = bisim_run(elab(TWO_LAMS_SOURCE))
        assert (rep.outcome, rep.steps, rep.mismatch_path) == ("both-value", 6, None)

    @pytest.mark.parametrize(
        "choose, k",
        [(first_free_atom, k) for k in range(1, 7)]
        + [(first_free_tag, k) for k in range(1, 6)],  # the final value has no tag
    )
    def test_changed_site_is_caught_at_its_step(self, monkeypatch, choose, k):
        planted = plant_divergence(monkeypatch, k, choose)
        rep = bisim_run(elab(TWO_LAMS_SOURCE))
        assert (rep.outcome, rep.mismatch_step) == ("mismatch", k)
        assert rep.mismatch_path == planted["path"]

    def test_change_under_a_surviving_binder_is_caught(self, monkeypatch):
        planted = plant_divergence(monkeypatch, 2, atom_in_surviving_lam)
        rep = bisim_run(elab(TWO_LAMS_SOURCE))
        assert (rep.outcome, rep.mismatch_step) == ("mismatch", 2)
        assert rep.mismatch_path == planted["path"] == "cell1/fn/atom0/body/arg1/atom0"
        typed_side = erased_subterm(erase_term(rep.typed_term), rep.mismatch_path)
        assert typed_side == EBase("Num", 3.0)
        assert erased_subterm(rep.erased_term, rep.mismatch_path) == EBase("Num", 4.0)


    @pytest.mark.parametrize(
        "choose, k, path",
        [(frame_cell_right_of_hole, 2, "cell1/arg0/atom0"), (value_left_of_hole, 4, "cell0/atom0")],
    )
    def test_changed_context_site_is_caught_at_its_step(self, monkeypatch, choose, k, path):
        planted = plant_divergence(monkeypatch, k, choose)
        rep = bisim_run(elab(TWO_LAMS_SOURCE))
        assert (rep.outcome, rep.mismatch_step) == ("mismatch", k)
        assert rep.mismatch_path == planted["path"] == path


class TestContextChecks:
    """A change the erased machine makes to its own context while it refocuses,
    with no re-seating, is caught at its step by the per-step checks: a node
    that `_advance` hands over to be pushed, a hole it moves to the wrong
    child, the value that `_put` plugs left of the hole, and the node that
    `_leave` rebuilds. The driver is shared; each change below touches only
    erased nodes."""

    def test_wrong_push_is_caught(self, monkeypatch):
        real = remora.eval._advance

        def advance(h):
            child = real(h)
            if isinstance(child, EFrame) and len(child.cells) == 2:
                child = EFrame(child.shape, (child.cells[0], EArray((), (EBase("Num", 6.0),))))
            return child

        monkeypatch.setattr(remora.eval, "_advance", advance)
        src = "(frame (1) (frame (2) ((array () +) (array () 1) (array () 2)) (array () 5)))"
        rep = bisim_run(elab(src))
        # The inner frame is pushed before step 1; without the check on what is
        # pushed, the change would first show in step 2's collapse.
        assert (rep.outcome, rep.mismatch_step, rep.mismatch_path) == ("mismatch", 1, "cell0/cell1/atom0")

    def test_wrong_hole_is_caught(self, monkeypatch):
        real = remora.eval._advance

        def advance(h):
            child = real(h)
            if isinstance(h.node, EFrame) and h.i == 0:
                h.i, child = 1, h.node.cells[1]
            return child

        monkeypatch.setattr(remora.eval, "_advance", advance)
        cell = "((array () +) (array () 1) (array () 2))"
        rep = bisim_run(elab(f"(frame (2) {cell} {cell})"))
        # Both machines contract an equal redex at step 1, in different cells.
        assert (rep.outcome, rep.mismatch_step, rep.mismatch_path) == ("mismatch", 1, "cell0")

    def test_wrong_put_is_caught(self, monkeypatch):
        real = remora.eval._put

        def put(h, v):
            if isinstance(h.node, EFrame) and h.i == 0:
                v = EArray(v.dims, (EBase("Num", v.atoms[0].value + 1.0),))
            real(h, v)

        monkeypatch.setattr(remora.eval, "_put", put)
        rep = bisim_run(elab(TWO_LAMS_SOURCE))
        # The first put plugs cell0's value 11 before the beta of step 4.
        assert (rep.outcome, rep.mismatch_step, rep.mismatch_path) == ("mismatch", 4, "cell0/atom0")
        assert erased_subterm(rep.erased_term, "cell0/atom0") == EBase("Num", 12.0)

    def test_wrong_rebuild_is_caught(self, monkeypatch):
        real = remora.eval._leave
        seven = EArray((2,), (EBase("Num", 7.0), EBase("Num", 8.0)))
        nine = EArray((2,), (EBase("Num", 9.0), EBase("Num", 8.0)))

        def leave(h):
            node = real(h)
            if isinstance(node, EArray) and node.atoms and isinstance(node.atoms[0], EBox) \
                    and node.atoms[0].payload == seven:
                node = EArray((), (EBox(node.atoms[0].indices, nine),))
            return node

        monkeypatch.setattr(remora.eval, "_leave", leave)
        box = "(array () (box 2 {} (Sigma ((n Dim)) (Arr Num (Shp n)))))"
        add = "((array () +) (array (2) {}) (array () 0))"
        cells = (box.format(add.format("1 2")), box.format("(array (2) 7 8)"), box.format(add.format("3 4")))
        rep = bisim_run(elab(f"(frame (3) {' '.join(cells)})"))
        # The refocus after step 5 passes through cell1, a value holding a
        # box, on its way to cell2, and plugs it back rebuilt.
        assert (rep.outcome, rep.mismatch_step) == ("mismatch", 6)
        assert rep.mismatch_path == "cell1/atom0/payload/atom0"


def assert_same_report(got, want):
    """Equal reports: the states are compared up to alpha-renaming, since the
    machines and the specs draw fresh names from one global counter."""
    assert (got.outcome, got.steps, got.mismatch_step, got.mismatch_path, got.trace) == (
        want.outcome, want.steps, want.mismatch_step, want.mismatch_path, want.trace
    )
    assert (got.typed_term is None) == (want.typed_term is None)
    if got.typed_term is not None:
        assert alpha_equal(got.typed_term, want.typed_term)
        assert erased_alpha_equal(got.erased_term, want.erased_term)


class _Mutate:
    """Each call rewrites one random binder-free site of the erased state with
    one of `TestLockstepComparer.MUTATIONS`, chosen at random where one
    applies."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def __call__(self, before, after, hole):
        mutation = self.rng.choice(list(TestLockstepComparer.MUTATIONS))
        where = [(p, x) for p, under, x in erased_sites(after) if not under and mutation(x) is not None]
        if not where:
            return None
        path, x = self.rng.choice(where)
        return path, mutation(x)


class TestBisimOracle:
    """`bisim_run` checks each step through the two machines' context stacks;
    its reports equal those of `reference_bisim`, which compares the whole
    states after every step of the spec steppers, on the real runs and with a
    mutation planted every 16 steps."""

    MUTATE_EVERY = 16

    @pytest.mark.parametrize("group", ORACLE_GROUPS)
    def test_matches_whole_state_reference(self, monkeypatch, group):
        for j, term in enumerate(oracle_programs(group)):
            assert_same_report(bisim_run(term, trace=True), reference_bisim(term, trace=True))
            want = reference_bisim(term, trace=True, plant=(self.MUTATE_EVERY, _Mutate(j), True))
            with monkeypatch.context() as mp:
                plant_divergence(mp, self.MUTATE_EVERY, _Mutate(j), every=True)
                got = bisim_run(term, trace=True)
            assert_same_report(got, want)


class TestBisimFuel:
    """`bisim_run(t, fuel=k)` takes at most k steps: a run that needs more ends
    `diverged` with k steps and k trace entries, as `reference_bisim` does,
    and a run that needs exactly k still reaches its verdict."""

    def test_fuel_bounds_steps(self):
        t = elab((PROGRAMS_DIR / "filter-keep.remora").read_text())
        total = bisim_run(t).steps
        for fuel in range(total):
            rep = bisim_run(t, fuel=fuel, trace=True)
            assert (rep.outcome, rep.steps, len(rep.trace)) == ("diverged", fuel, fuel)
            assert_same_report(rep, reference_bisim(t, fuel=fuel, trace=True))
        rep = bisim_run(t, fuel=total, trace=True)
        assert (rep.outcome, rep.steps, len(rep.trace)) == ("both-value", total, total)
        assert_same_report(rep, reference_bisim(t, fuel=total, trace=True))

    def test_stuck_at_the_last_step_is_not_diverged(self):
        t = elab("((array () /) ((array () +) (array () 1) (array () 2)) (array () 0))")
        for fuel in (1, 2):
            rep = bisim_run(t, fuel=fuel)
            assert (rep.outcome, rep.steps) == ("both-stuck", 1)
            assert_same_report(rep, reference_bisim(t, fuel=fuel))
        assert (bisim_run(t, fuel=0).outcome, reference_bisim(t, fuel=0).outcome) == ("diverged", "diverged")


class TestBisimCost:
    """Work per bisim step does not grow with the size of the term: the
    erased nodes built (each by its erasure plan's class), the node pairs
    the field-for-field walk of `LockstepComparer` compares, and the nodes
    whose canonical forms are built (each computes its head once), counted
    per step, for a deeper member of a family against its n=100 member. The
    walk decides every check of these runs, so no form is built."""

    @staticmethod
    def work_per_step(monkeypatch, family: str, n: int) -> dict:
        counts: Counter = Counter()

        def counted(name, real):
            def call(*args):
                counts[name] += 1
                return real(*args)

            return call

        for cls, (build, values, terms) in list(remora.erase._ERASURE.items()):
            monkeypatch.setitem(remora.erase._ERASURE, cls, (counted("erase", build), values, terms))
        # The walk reads a compared pair's own fields once per node of the pair.
        for cls, (plain, kids) in list(remora.erase._WALK.items()):
            monkeypatch.setitem(remora.erase._WALK, cls, (counted("walk", plain), kids))
        for cls, (head, slots, binders) in list(remora.names._FORM_PLANS.items()):
            monkeypatch.setitem(remora.names._FORM_PLANS, cls, (counted("form", head), slots, binders))
        for cls, head in list(remora.names._INLINE.items()):
            monkeypatch.setitem(remora.names._INLINE, cls, counted("form", head))
        term = check_src(family_source(family, n))[0]
        try:
            rep = bisim_run(term)
        finally:
            monkeypatch.undo()
        assert rep.outcome == "both-value"
        counts["walk"] /= 2
        return {name: counts[name] / rep.steps for name in ("erase", "walk", "form")}

    @pytest.mark.parametrize("family, n", [("frame", 400), ("reduce", 300)])
    def test_work_per_step_is_flat(self, monkeypatch, family, n):
        small = self.work_per_step(monkeypatch, family, 100)
        large = self.work_per_step(monkeypatch, family, n)
        assert large["erase"] > 0 and large["walk"] > 0 and large["form"] == 0, large
        for name, per_step in large.items():
            assert per_step <= 1.5 * small[name], (name, per_step, small[name])


class TestSubstitutionCost:
    """On each substitution that elaborating the `batch` group and running it
    under bisim make: the rewrite of `names` visits no more nodes than the
    walks it replaced (`reference_subst`, which renames a binder of another
    namespace in a walk of its own), the free-variable walks of payloads left
    out, and at most nine tenths of them in all, as it enters no closed node
    of an operator signature; and the memo in front of it runs it for at most
    a third of the index- and type-rooted calls. Counted, not timed."""

    def test_visits_no_more_nodes_than_the_reference(self, monkeypatch):
        counts: Counter = Counter()
        for cls in (remora.names._Rewrite, util._ReferenceSubst):
            def go(self, node, real=cls.go, key=cls):
                if getattr(self, "fresh", None) is None:  # not a payload's `free_vars`
                    counts[key] += 1
                return real(self, node)

            monkeypatch.setattr(cls, "go", go)
        more, totals = [], Counter()
        for node, ns, m in fired_substitutions("batch"):
            counts.clear()
            remora.names._MEMO.clear()
            reference_subst(node, ns, m)
            subst(node, ns, m)
            if counts[remora.names._Rewrite] > counts[util._ReferenceSubst]:
                more.append((node, ns, m, counts.copy()))
            totals.update(counts)
        assert not more, more[:3]
        assert 10 * totals[remora.names._Rewrite] <= 9 * totals[util._ReferenceSubst], totals

    def test_memo_runs_the_rewrite_for_at_most_a_third_of_index_and_type_roots(self, monkeypatch):
        quoted = typing.get_args(IndexExpr) + typing.get_args(TypeExpr)
        real, runs = remora.names._Rewrite.go, Counter()

        def go(self, node):
            runs[self.fresh is None] += 1  # not a payload's `free_vars`
            return real(self, node)

        monkeypatch.setattr(remora.names._Rewrite, "go", go)
        fired = fired_substitutions("batch")  # first: it may elaborate, which fills the memo
        remora.names._MEMO.clear()
        calls = ran = 0
        for node, ns, m in fired:
            before = runs[True]
            subst(node, ns, m)
            assert len(remora.names._MEMO) <= remora.names._MEMO_SIZE
            if isinstance(node, quoted):
                calls += 1
                ran += runs[True] > before
        assert 3 * ran <= calls, (ran, calls)

    def test_a_full_memo_is_emptied(self, monkeypatch):
        monkeypatch.setattr(remora.names, "_MEMO_SIZE", 64)
        remora.names._MEMO.clear()
        sizes = set()
        for node, ns, m in fired_substitutions("batch"):
            subst(node, ns, m)
            sizes.add(len(remora.names._MEMO))
        assert max(sizes) == 64 and 1 in sizes


class TestApplicationCost:
    """An application step costs its contraction alone: a scalar application
    (beta or delta) canonicalizes no shape in either machine, and a map
    builds the annotation of its cells' function arrays once. Counted, not
    timed."""

    @pytest.mark.parametrize("family, n", [("lift", 100), ("lift", 1600), ("reduce", 300)])
    @pytest.mark.parametrize("erased", [False, True], ids=["typed", "erased"])
    def test_scalar_application_canonicalizes_no_shape(self, monkeypatch, erased, family, n):
        term = check_src(family_source(family, n))[0]
        m = ErasedMachine(erase_term(term)) if erased else Machine(term)
        calls = []
        real = remora.indices.canonicalize_shape

        def counted(i):
            calls.append(i)
            return real(i)

        monkeypatch.setattr(remora.indices, "canonicalize_shape", counted)
        per_step = []  # (operator or None, calls) per beta or delta step
        while True:
            before = len(calls)
            if m.refocus() is not None:
                break
            head = m.focus.fn.atoms[0] if type(m.focus) in (App, EApp) else None
            if m.contract().rule in ("beta", "delta"):
                per_step.append((getattr(head, "name", None), len(calls) - before))
        # The typed `reduce` reads the input shape its instantiation built,
        # `(++ (Shp (+ 1 d)) (Shp))`, which is not a literal.
        counts = [k for op, k in per_step if erased or op != "reduce"]
        assert len(counts) >= n - 1 and not any(counts), per_step

    @pytest.mark.parametrize("n", [100, 1600])
    def test_map_cells_share_one_function_annotation(self, n):
        m = Machine(check_src(family_source("lift", n))[0])
        rules = []
        for _ in range(2):
            assert m.refocus() is None
            rules.append(m.contract().rule)
        assert rules == ["lift", "map"]
        cells = m.focus.cells
        assert len(cells) == n and all(c.fn.annot is cells[0].fn.annot for c in cells)


class TestFieldWalk:
    """`LockstepComparer` confirms agreement by comparing erased terms field
    for field; only a True is final, and when the walk finds a difference,
    canonical forms decide."""

    @pytest.mark.parametrize("mutation", [respell_tag, rename_index_binder])
    def test_alpha_equivalent_mutation_is_left_to_forms(self, mutation):
        tried = 0
        for typed in oracle_programs("batch") + oracle_programs("corpus"):
            erased = erase_term(typed)
            sites = [(path, node) for path, _, node in erased_sites(erased) if mutation(node) is not None]
            for path, node in sites[:2]:
                bad = rewrite_at(erased, path, mutation(node))
                assert remora.erase._equal_fields(erased, bad) is False
                assert LockstepComparer().same(typed, bad) is True
                tried += 1
        assert tried > 0

    @staticmethod
    def nest(depth: int, value: float):
        e = EArray((), (EBase("Num", value),))
        for _ in range(depth):
            e = EFrame(ShapeLit(()), (e,))
        return e

    def test_any_depth_at_the_default_recursion_limit(self):
        depth = 10_000
        assert depth > sys.getrecursionlimit()
        a, b = self.nest(depth, 7.0), self.nest(depth, 7.0)
        assert a is not b
        assert remora.erase._equal_fields(a, b) is True
        assert remora.erase._equal_fields(a, self.nest(depth, 8.0)) is False


def _context_positions(t, under_binder=False):
    """Expression positions reachable without crossing a binder (the shape of
    evaluation contexts), as (replace-fn, subexpr) pairs."""

    from remora.syntax import App, ArrayLit, Box, Frame, IApp, TApp, Unbox, replace

    out = []
    if isinstance(t, ArrayLit):
        for i, a in enumerate(t.atoms):
            if isinstance(a, Box):
                for plug, sub in _context_positions(a.payload):
                    out.append(
                        (
                            lambda h, i=i, a=a, plug=plug: replace(
                                t,
                                atoms=t.atoms[:i]
                                + (replace(a, payload=plug(h)),)
                                + t.atoms[i + 1 :],
                            ),
                            sub,
                        )
                    )
    elif isinstance(t, Frame):
        for i, c in enumerate(t.cells):
            out.append(
                (
                    lambda h, i=i: replace(
                        t, cells=t.cells[:i] + (h,) + t.cells[i + 1 :]
                    ),
                    c,
                )
            )
            for plug, sub in _context_positions(c):
                out.append((lambda h, i=i, plug=plug: replace(t, cells=t.cells[:i] + (plug(h),) + t.cells[i + 1 :]), sub))
    elif isinstance(t, App):
        out.append((lambda h: replace(t, fn=h), t.fn))
        for plug, sub in _context_positions(t.fn):
            out.append((lambda h, plug=plug: replace(t, fn=plug(h)), sub))
        for i, a in enumerate(t.args):
            out.append((lambda h, i=i: replace(t, args=t.args[:i] + (h,) + t.args[i + 1 :]), a))
            for plug, sub in _context_positions(a):
                out.append((lambda h, i=i, plug=plug: replace(t, args=t.args[:i] + (plug(h),) + t.args[i + 1 :]), sub))
    elif isinstance(t, (TApp, IApp)):
        out.append((lambda h: replace(t, fn=h), t.fn))
        for plug, sub in _context_positions(t.fn):
            out.append((lambda h, plug=plug: replace(t, fn=plug(h)), sub))
    elif isinstance(t, Unbox):
        out.append((lambda h: replace(t, box=h), t.box))
        for plug, sub in _context_positions(t.box):
            out.append((lambda h, plug=plug: replace(t, box=plug(h)), sub))
    return out


class TestErasureInContext:
    def test_erasure_commutes_with_context_filling(self):
        # erase(E[e]) equals erase(E) filled with erase(e); holes are plugged
        # by substituting for a variable that stands in for the hole, which
        # evaluation-context positions make capture-free.
        from remora.syntax import Var

        rng = random.Random(81)
        checked = 0
        for prog in generate_programs(60, seed=82):
            t, _ = elaborate(EMPTY_ENV, SIGNATURE, prog)
            positions = _context_positions(t)
            if not positions:
                continue
            plug, sub = rng.choice(positions)
            # the hole keeps the focused expression's annotation, as context
            # erasure reads residual tags off the context itself
            ctx = plug(Var("#hole", annot=sub.annot))
            lhs = erase_term(t)
            rhs = esubst_term(erase_term(ctx), {"#hole": erase_term(sub)})
            assert erased_alpha_equal(lhs, rhs), print_term(prog)
            checked += 1
        assert checked >= 30


class TestErasedAlpha:
    def test_binder_renaming(self):
        a = ELam(("x",), EVar("x"))
        b = ELam(("y",), EVar("y"))
        assert erased_alpha_equal(a, b)

    def test_tag_spellings_identified_up_to_canonical_form(self):
        a = EFrame(ShapeLit((NatLit(2),)), (EArray((), (EBase("Num", 1.0),)), EArray((), (EBase("Num", 2.0),))))
        from remora.syntax import IdxAppend

        b = EFrame(
            IdxAppend((ShapeLit(()), ShapeLit((NatLit(2),)))),
            (EArray((), (EBase("Num", 1.0),)), EArray((), (EBase("Num", 2.0),))),
        )
        assert erased_alpha_equal(a, b)

    def test_distinguishes_different_tags(self):
        a = EFrame(ShapeLit((NatLit(2),)), ())
        b = EFrame(ShapeLit((NatLit(3),)), ())
        assert not erased_alpha_equal(a, b)

    def test_depth(self):
        def nest(value):
            e = EArray((), (EBase("Num", value),))
            for _ in range(10_000):
                e = EFrame(ShapeLit(()), (e,))
            return e

        assert erased_alpha_equal(nest(7.0), nest(7.0))
        assert not erased_alpha_equal(nest(7.0), nest(8.0))

    def test_binders_by_position(self):
        from remora.erase import EApp, EUnbox
        from remora.syntax import IdxAppend

        def app(f, x):
            return EApp(EVar(f), (EVar(x),), (ShapeLit(()),), ShapeLit(()))

        def shape(*names):
            return EFrame(IdxAppend(tuple(IdxVar(n) for n in names)), ())

        def unbox(names, body):
            return EUnbox(names, "v", EVar("b"), body, ShapeLit(()))

        pairs = [
            # shadowing, then a third binder at the same dictionary size
            (ELam(("x",), ELam(("x",), ELam(("y",), app("x", "y")))),
             ELam(("x",), ELam(("x",), ELam(("y",), app("y", "y")))), False),
            (ELam(("x",), ELam(("x",), ELam(("y",), app("x", "y")))),
             ELam(("a",), ELam(("b",), ELam(("c",), app("b", "c")))), True),
            (EILam(("a", "b"), shape("a", "b")), EILam(("c", "d"), shape("c", "d")), True),
            (EILam(("a", "b"), shape("a", "b")), EILam(("b", "a"), shape("a", "b")), False),
            (unbox(("a", "b"), shape("a", "b")), unbox(("b", "a"), shape("a", "b")), False),
            (unbox(("a", "b"), shape("a", "b")), unbox(("p", "q"), shape("p", "q")), True),
            # term and index variables live in separate namespaces
            (EILam(("x",), ELam(("x",), app("x", "x"))), EILam(("i",), ELam(("x",), app("x", "x"))), True),
            (ELam(("f",), app("f", "g")), ELam(("f",), app("f", "h")), False),
        ]
        for a, b, expected in pairs:
            assert reference_erased_alpha_equal(a, b) == expected
            assert erased_alpha_equal(a, b) == expected
