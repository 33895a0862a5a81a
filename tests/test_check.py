"""Static semantics: sorting, kinding, equivalence, elaboration goldens from
real programs, metatheory properties at test scale, the ill-typed program
suite with its designated error kinds, the elaborator's memo and its reuse of
the previous call's conclusions across consecutive calls, and the cost of
re-elaborating each small-step state."""

import copy
import random
import sys
import threading

import pytest

import remora.check
import remora.names
import remora.prims
import remora.syntax
from remora.check import (
    EMPTY_ENV,
    ErrorKind,
    TypeCheckError,
    check_env,
    elaborate,
    kind_of,
    sort_of,
    types_equal,
)
from remora.eval import Machine, Stepped, step
from remora.gen import generate_programs
from remora.names import (
    MANY,
    SCHEMA,
    TM,
    Child,
    Scope,
    freshen,
    subst_idx_in_term,
    subst_idx_in_type,
)
from remora.parser import parse_index, parse_term, parse_type
from remora.printer import print_term, print_type
from remora.prims import SIGNATURE
from remora.syntax import (
    ArrayLit,
    ArrType,
    Frame,
    FunType,
    Kind,
    NatLit,
    NUM,
    PrimOp,
    ShapeLit,
    Sort,
    Var,
    num,
    replace,
    scalar_of,
)

from .util import (
    _group_sources,
    check_src,
    family_source,
    oracle_programs,
    random_dim,
    random_shape,
    random_type,
    rewrite_at,
    typed_sites,
)


def sort_src(env, text):
    return sort_of(env, parse_index(text))


def kind_src(env, text):
    return kind_of(env, parse_type(text))


class TestSorting:
    def test_shape_literal(self):
        assert sort_src(EMPTY_ENV, "(Shp 3 4)") is Sort.SHAPE

    def test_plus_over_bound_dim(self):
        env = EMPTY_ENV.with_sorts([("n", Sort.DIM)])
        assert sort_src(env, "(+ 1 n)") is Sort.DIM

    def test_plus_over_shape_is_sort_error(self):
        env = EMPTY_ENV.with_sorts([("s", Sort.SHAPE)])
        with pytest.raises(TypeCheckError) as e:
            sort_src(env, "(+ s 1)")
        assert e.value.kind is ErrorKind.SORT_MISMATCH

    def test_unbound_variable(self):
        with pytest.raises(TypeCheckError) as e:
            sort_src(EMPTY_ENV, "(+ 1 n)")
        assert e.value.kind is ErrorKind.UNBOUND_VAR

    def test_uniqueness_of_sorting(self):
        env = EMPTY_ENV.with_sorts([("n", Sort.DIM), ("s", Sort.SHAPE)])
        for text in ["3", "n", "(+ n 2)", "(Shp n)", "(++ s (Shp 1))", "s"]:
            assert sort_of(env, parse_index(text)) is sort_of(env, parse_index(text))


class TestKinding:
    def test_array_over_base(self):
        assert kind_src(EMPTY_ENV, "(Arr Num (Shp 3))") is Kind.ARRAY

    def test_vector_mean_type_is_atom(self):
        src = "(Pi ((n Dim)) (Arr (-> ((Arr Num (Shp n))) (Arr Num (Shp))) (Shp)))"
        assert kind_src(EMPTY_ENV, src) is Kind.ATOM

    def test_nested_array_elem_rejected(self):
        with pytest.raises(TypeCheckError) as e:
            kind_src(EMPTY_ENV, "(Arr (Arr Num (Shp)) (Shp))")
        assert e.value.kind is ErrorKind.KIND_MISMATCH

    def test_pi_body_must_be_array(self):
        with pytest.raises(TypeCheckError) as e:
            kind_src(EMPTY_ENV, "(Pi ((n Dim)) (-> ((Arr Num (Shp n))) (Arr Num (Shp))))")
        assert e.value.kind is ErrorKind.KIND_MISMATCH

    def test_signature_entries_kind_at_atom(self):
        for name, ty in SIGNATURE.items():
            assert kind_of(EMPTY_ENV, ty) is Kind.ATOM, name


class TestTypesEqual:
    def test_index_identity(self):
        assert types_equal(
            parse_type("(Arr Num (Shp 6))"), parse_type("(Arr Num (++ (Shp) (Shp 6)))")
        )

    def test_appended_vs_flat_shape(self):
        assert types_equal(
            parse_type("(Arr Num (++ (Shp 3) (Shp 4)))"), parse_type("(Arr Num (Shp 3 4))")
        )

    def test_alpha_equivalent_pi(self):
        assert types_equal(
            parse_type("(Pi ((m Dim)) (Arr Num (Shp m)))"),
            parse_type("(Pi ((k Dim)) (Arr Num (Shp k)))"),
        )

    def test_distinguishes_different_shapes(self):
        assert not types_equal(parse_type("(Arr Num (Shp 2))"), parse_type("(Arr Num (Shp 3))"))

    def test_equivalence_relation_on_random_types(self):
        rng = random.Random(3)
        types = [random_type(rng, depth=4) for _ in range(40)]
        types += [freshen(t, salt="v") for t in types[:10]]
        for a in types:
            assert types_equal(a, a)
        for a in types:
            for b in types:
                assert types_equal(a, b) == types_equal(b, a)
        eq = [(a, b) for a in types for b in types if types_equal(a, b)]
        for a, b in eq:
            for c in types:
                if types_equal(b, c):
                    assert types_equal(a, c)

    def test_equivalence_respects_kinds(self):
        rng = random.Random(4)
        env = EMPTY_ENV
        for _ in range(150):
            t = random_type(rng, depth=3)
            t2 = freshen(t, salt="w")
            assert types_equal(t, t2)
            assert kind_of(env, t) is kind_of(env, t2)


class TestCheckEnv:
    def test_ok(self):
        check_env(EMPTY_ENV.with_types([("x", parse_type("(Arr Num (Shp))"))]))

    def test_atom_binding_rejected(self):
        with pytest.raises(TypeCheckError) as e:
            check_env(EMPTY_ENV.with_types([("x", NUM)]))
        assert e.value.kind is ErrorKind.KIND_MISMATCH

    def test_free_index_var_rejected(self):
        with pytest.raises(TypeCheckError) as e:
            check_env(EMPTY_ENV.with_types([("x", parse_type("(Arr Num (Shp n))"))]))
        assert e.value.kind is ErrorKind.UNBOUND_VAR


MTX = "(array (3 2) 0 1 2 3 4 5)"


def type_of_src(src: str) -> str:
    _, ty = elaborate(EMPTY_ENV, SIGNATURE, parse_term(src))
    return print_type(ty, canonical=True)


class TestElaborate:
    def test_array_literal(self):
        assert type_of_src("(array (3 2) 0 1 2 3 4 5)") == "(Arr Num (Shp 3 2))"

    def test_head_row(self):
        src = f"((t-app (i-app (array () head) 2 (Shp 2)) Num) {MTX})"
        assert type_of_src(src) == "(Arr Num (Shp 2))"

    def test_head_column_lifts(self):
        src = f"((t-app (i-app (array () head) 1 (Shp)) Num) {MTX})"
        _, ty = elaborate(EMPTY_ENV, SIGNATURE, parse_term(src))
        # the raw type appends an empty cell shape onto the principal frame
        assert types_equal(ty, parse_type("(Arr Num (++ (Shp 3) (Shp)))"))
        assert print_type(ty, canonical=True) == "(Arr Num (Shp 3))"

    def test_every_node_annotated(self):
        src = f"((t-app (i-app (array () head) 1 (Shp)) Num) {MTX})"
        t, _ = elaborate(EMPTY_ENV, SIGNATURE, parse_term(src))

        def walk(node):
            assert node.annot is not None, node
            for name in ("fn", "box", "body", "payload"):
                child = getattr(node, name, None)
                if child is not None and hasattr(child, "annot"):
                    walk(child)
            for name in ("args", "atoms", "cells"):
                for child in getattr(node, name, ()) or ():
                    walk(child)

        walk(t)

    def test_empty_forms_rewritten(self):
        from remora.syntax import ArrayLit, Frame

        t, ty = elaborate(EMPTY_ENV, SIGNATURE, parse_term("(empty-array Num (0 3))"))
        assert isinstance(t, ArrayLit) and t.atoms == () and t.annot is not None
        assert print_type(ty, canonical=True) == "(Arr Num (Shp 0 3))"
        t, ty = elaborate(
            EMPTY_ENV, SIGNATURE, parse_term("(empty-frame (Arr Num (Shp 3)) (0))")
        )
        assert isinstance(t, Frame) and t.cells == ()
        assert print_type(ty, canonical=True) == "(Arr Num (Shp 0 3))"

    def test_open_term_under_env(self):
        env = EMPTY_ENV.with_sorts([("n", Sort.DIM)]).with_types(
            [("v", parse_type("(Arr Num (Shp n))"))]
        )
        _, ty = elaborate(env, SIGNATURE, parse_term("v"))
        assert types_equal(ty, parse_type("(Arr Num (Shp n))"))


ILL_TYPED = [
    # (source, expected kind)
    (f"((array () +) (array (2) 1 2) (array (6) 1 2 3 4 5 6))", ErrorKind.FRAME_INCOMPATIBLE),
    # a 2-frame function array against a 6-framed argument
    (
        "((array (2) (lam ((x (Arr Num (Shp)))) x) (lam ((x (Arr Num (Shp)))) x))"
        " (array (6) 1 2 3 4 5 6))",
        ErrorKind.FRAME_INCOMPATIBLE,
    ),
    ("(array (2 2) 1 2 3)", ErrorKind.LENGTH_MISMATCH),
    ("(frame (2) (array () 1))", ErrorKind.LENGTH_MISMATCH),
    ("(empty-array Num (2 3))", ErrorKind.LENGTH_MISMATCH),
    # unbox body type leaks the hidden length
    (
        "(unbox (len v ((array () iota/v) (array () 3))) v)",
        ErrorKind.ESCAPING_INDEX_VAR,
    ),
    # box annotation disagrees with the payload shape
    (
        "(array () (box 2 (array (3) 1 2 3) (Sigma ((n Dim)) (Arr Num (Shp n)))))",
        ErrorKind.ANNOTATION_MISMATCH,
    ),
    # lam parameter type has an Atom where an Array is required
    ("(array () (lam ((x Num)) x))", ErrorKind.KIND_MISMATCH),
    # kind error inside a parameter type: Arr element must be an Atom
    ("(array () (lam ((x (Arr (Arr Num (Shp)) (Shp)))) x))", ErrorKind.KIND_MISMATCH),
    # i-app argument with the wrong sort
    (f"((t-app (i-app (array () head) (Shp 2) (Shp)) Num) {MTX})", ErrorKind.SORT_MISMATCH),
    ("y", ErrorKind.UNBOUND_VAR),
    ("(array () unknown-op)", ErrorKind.UNBOUND_VAR),
    # applying an array of numbers
    ("((array () 5) (array () 6))", ErrorKind.NOT_A_FUNCTION),
    # t-app of something with no universal type
    ("(t-app (array () 5) Num)", ErrorKind.NOT_A_FUNCTION),
    # unboxing a number array
    ("(unbox (n v (array () 5)) v)", ErrorKind.NOT_A_BOX),
    # argument atom type mismatch: + over booleans
    ("((array () +) (array () #t) (array () #f))", ErrorKind.CELL_MISMATCH),
    # argument shape does not end with the declared cell shape
    (
        f"((t-app (i-app (array () head) 2 (Shp 2)) Num) (array (4) 1 2 3 4))",
        ErrorKind.CELL_MISMATCH,
    ),
    # t-app with a type argument of the wrong kind
    (
        "(t-app (array () (tlam ((t Atom)) (array () 5))) (Arr Num (Shp)))",
        ErrorKind.KIND_MISMATCH,
    ),
    # mixed atom types in one literal
    ("(array (2) 1 #t)", ErrorKind.CELL_MISMATCH),
]


class TestNegativeSuite:
    @pytest.mark.parametrize("src,kind", ILL_TYPED, ids=[k.value + "-" + str(i) for i, (_, k) in enumerate(ILL_TYPED)])
    def test_designated_error_kind(self, src, kind):
        with pytest.raises(TypeCheckError) as e:
            elaborate(EMPTY_ENV, SIGNATURE, parse_term(src))
        assert e.value.kind is kind

    def test_errors_carry_locations(self):
        try:
            elaborate(EMPTY_ENV, SIGNATURE, parse_term("(array (2 2)\n 1 2 3)"))
        except TypeCheckError as e:
            assert e.loc is not None and e.loc.line == 1
        else:
            pytest.fail("expected a type error")


# (source, line and column of the form whose annotation disagrees)
MISANNOTATED = [
    ("(array (2) 1 2 : (Arr Bool (Shp 5)))", 1, 1),
    ("(frame (2) (array () 1) (array () 2) : (Arr Bool (Shp 7)))", 1, 1),
    ("(empty-array Num (0) : (Arr Num (Shp 3)))", 1, 1),
    ("((array () +) (array () 1) (array () 2) : (Arr Bool (Shp 9)))", 1, 1),
    ("(frame (1)\n  (array (2) 1 2 : (Arr Num (Shp 3))))", 2, 3),
    ("(array () (lam ((x (Arr Num (Shp)))) x : (-> ((Arr Num (Shp))) (Arr Bool (Shp)))))", 1, 11),
    ("(t-app (array () (tlam ((t Atom)) (array () 5) : (Forall ((t Atom)) (Arr Bool (Shp))))) Num)", 1, 18),
]


# Annotations that are no type of the form's kind: each gets the diagnostic of
# the kinding rules, at the offending part of the annotation.
ILL_FORMED_ANNOTATIONS = [
    ("(array (2) 1 2 : (Arr Num 3))", ErrorKind.SORT_MISMATCH, 1, 27),
    ("(array (2) 1 2 : (Arr Num (Shp (Shp 2))))", ErrorKind.SORT_MISMATCH, 1, 27),
    ("(array () (lam ((x (Arr Num (Shp)))) x : (-> ((Arr Num 3)) (Arr Num (Shp)))))", ErrorKind.SORT_MISMATCH, 1, 56),
    ("(array (2) 1 2 : (Arr Num (Shp n)))", ErrorKind.UNBOUND_VAR, 1, 32),
    ("(empty-array Num (0) : (Arr Num (Shp ²)))", ErrorKind.UNBOUND_VAR, 1, 38),
    ("(array (2) 1 2 : Num)", ErrorKind.KIND_MISMATCH, 1, 18),
    ("(t-app (array () (tlam ((t Atom)) (array () 5) : (Arr Num (Shp)))) Num)", ErrorKind.KIND_MISMATCH, 1, 50),
]


class TestAnnotations:
    """A source annotation on a form must agree with the form's type."""

    @pytest.mark.parametrize("src, kind, line, column", ILL_FORMED_ANNOTATIONS)
    def test_ill_formed_annotation_is_rejected(self, src, kind, line, column):
        with pytest.raises(TypeCheckError) as e:
            elaborate(EMPTY_ENV, SIGNATURE, parse_term(src))
        assert e.value.kind is kind
        assert (e.value.loc.line, e.value.loc.column) == (line, column)

    def test_random_annotations_never_crash(self):
        """Any annotation put on any form of a generated program either
        elaborates, with its annotated printing, or is a TypeCheckError."""
        rng = random.Random(17)
        dim, arr = lambda: random_dim(rng), lambda shape: ArrType(NUM, shape)
        makers = (
            lambda: arr(dim()),
            lambda: arr(ShapeLit((random_shape(rng),))),
            lambda: arr(random_shape(rng)),
            lambda: ArrType(random_type(rng), random_shape(rng)),
            lambda: random_type(rng),
            lambda: FunType((arr(dim()),), arr(ShapeLit(()))),
        )
        rejected = 0
        for prog in generate_programs(60, seed=17):
            sites = [x for x in typed_sites(prog) if not isinstance(x[1], PrimOp)]
            for _ in range(4):
                path, node = rng.choice(sites)
                t = rewrite_at(prog, path, replace(node, annot=rng.choice(makers)()))
                try:
                    out, _ = elaborate(EMPTY_ENV, SIGNATURE, t)
                except TypeCheckError:
                    rejected += 1
                else:
                    print_term(out, annotations=True, canonical=True)
        assert rejected > 200

    @pytest.mark.parametrize("src, line, column", MISANNOTATED)
    def test_disagreeing_annotation_is_rejected(self, src, line, column):
        with pytest.raises(TypeCheckError) as e:
            elaborate(EMPTY_ENV, SIGNATURE, parse_term(src))
        assert e.value.kind is ErrorKind.ANNOTATION_MISMATCH
        assert (e.value.loc.line, e.value.loc.column) == (line, column)

    @pytest.mark.parametrize(
        "src",
        [
            "(array (2) 1 2 : (Arr Num (Shp 2)))",
            "(array (2) 1 2 : (Arr Num (++ (Shp 2) (Shp))))",  # equivalent, not equal
            "((array () +) (array () 1) (array (3) 1 2 3) : (Arr Num (Shp 3)))",
            "(array () (lam ((x (Arr Num (Shp)))) x : (-> ((Arr Num (Shp))) (Arr Num (Shp)))))",
        ],
    )
    def test_agreeing_annotation_is_kept(self, src):
        t, ty = elaborate(EMPTY_ENV, SIGNATURE, parse_term(src))
        assert types_equal(t.annot, ty)


class TestMetatheoryProperties:
    def test_uniqueness_of_typing(self):
        for prog in generate_programs(80, seed=21):
            _, ty1 = elaborate(EMPTY_ENV, SIGNATURE, freshen(prog))
            _, ty2 = elaborate(EMPTY_ENV, SIGNATURE, freshen(prog, salt="b"))
            assert types_equal(ty1, ty2)

    def test_well_kinded_ascription(self):
        from remora.syntax import Box, ILam, Lam, TLam, Unbox, is_atom

        def walk(node, env):
            if node.annot is not None:
                want = Kind.ATOM if is_atom(node) else Kind.ARRAY
                assert kind_of(env, node.annot) is want
            if isinstance(node, Lam):
                walk(node.body, env)
            elif isinstance(node, TLam):
                walk(node.body, env.with_kinds(node.binders))
            elif isinstance(node, ILam):
                walk(node.body, env.with_sorts(node.binders))
            elif isinstance(node, Unbox):
                walk(node.box, env)
                sigma = node.box.annot.elem
                inner = env.with_sorts(
                    [(x, srt) for x, (_, srt) in zip(node.idx_vars, sigma.binders)]
                )
                walk(node.body, inner)
            elif isinstance(node, Box):
                walk(node.payload, env)
            else:
                for name in ("fn", "args", "atoms", "cells"):
                    children = getattr(node, name, None)
                    if children is None:
                        continue
                    if not isinstance(children, tuple):
                        children = (children,)
                    for child in children:
                        walk(child, env)

        for prog in generate_programs(40, seed=22):
            t, ty = elaborate(EMPTY_ENV, SIGNATURE, prog)
            assert kind_of(EMPTY_ENV, ty) is Kind.ARRAY
            walk(t, EMPTY_ENV)

            walk(t, EMPTY_ENV)

    def test_substitution_stability(self):
        env = EMPTY_ENV.with_sorts([("n", Sort.DIM)])
        open_terms = [
            "(array () (lam ((x (Arr Num (Shp n)))) x))",
            "(array () (lam ((x (Arr Num (Shp n 2)))) x))",
            "(frame () (array () (lam ((x (Arr Num (Shp n)))) x)))",
        ]
        for src in open_terms:
            t = parse_term(src)
            _, open_ty = elaborate(env, SIGNATURE, t)
            for k in (0, 1, 3):
                closed = subst_idx_in_term(t, {"n": NatLit(k)})
                _, closed_ty = elaborate(EMPTY_ENV, SIGNATURE, closed)
                assert types_equal(closed_ty, subst_idx_in_type(open_ty, {"n": NatLit(k)}))


# ---------------------------------------------------------------------------
# The memo across consecutive calls: a stepped state re-elaborated with the
# memo of the previous state gives exactly what a from-scratch elaboration
# gives, and nothing remembered under one signature or environment leaks into
# another.

_TERM_FIELDS = {
    cls: tuple(f for f, role in roles.items() if role in (Child(TM), Child(TM, MANY), Scope(TM)))
    for cls, roles in SCHEMA.items()
}


def _term_nodes(t):
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        for f in _TERM_FIELDS[type(node)]:
            v = getattr(node, f)
            stack.extend(v if isinstance(v, tuple) else (v,))


def _with_new_nodes(t):
    """A copy of a term whose term nodes are all new objects (types shared),
    so no entry of a memo keyed by node identity can match any of them."""
    changes = {}
    for f in _TERM_FIELDS[type(t)]:
        v = getattr(t, f)
        changes[f] = tuple(map(_with_new_nodes, v)) if isinstance(v, tuple) else _with_new_nodes(v)
    return replace(t, **changes)


def _states(prog):
    cur, out = prog, []
    for _ in range(10_000):
        r = step(cur)
        if not isinstance(r, Stepped):
            return out
        cur = r.term
        out.append(cur)
    raise AssertionError("no verdict in 10000 steps")


def _printed(state, env=EMPTY_ENV):
    t, ty = elaborate(env, SIGNATURE, state)
    return print_term(t, annotations=True), print_type(ty)


def _elaborated(state):
    """(term, printed annotated term, printed type), or the error's
    (kind, detail, loc)."""
    try:
        t, ty = elaborate(EMPTY_ENV, SIGNATURE, state)
    except TypeCheckError as e:
        return e.kind, e.detail, e.loc
    return t, print_term(t, annotations=True), print_type(ty)


def _forget():
    """A failed call: the call after it reuses no conclusion of an earlier
    one but what the memo holds for the nodes it meets again."""
    with pytest.raises(TypeCheckError):
        elaborate(EMPTY_ENV, SIGNATURE, Var("unbound#"))


def _fresh(state):
    """`_elaborated` from scratch: of a copy whose term nodes are all new,
    right after a failed call."""
    _forget()
    return _elaborated(_with_new_nodes(state))


def _after(prev, state):
    """`_elaborated` of `state` in the call right after one on `prev`."""
    _elaborated(prev)
    return _elaborated(state)


class TestElaborationMemo:
    @pytest.mark.parametrize("group", ["batch", "corpus", "lift100", "reduce100", "frame100"])
    def test_preservation_loop_matches_fresh_elaboration(self, group):
        reused = 0
        for prog in oracle_programs(group):
            states = _states(prog)
            memoized, prev_ids = [], set()
            for s in states:
                t, ty = elaborate(EMPTY_ENV, SIGNATURE, s)
                memoized.append((t, print_type(ty)))  # keeps t, so its ids stay unique
                # PrimOps with an annotation are returned as they are, memo or not
                ids = {id(n) for n in _term_nodes(t) if not isinstance(n, PrimOp)}
                reused += len(ids & prev_ids)
                prev_ids = ids
            # Each state with new nodes throughout, after a failed call: no
            # memo hit and no reused conclusion is possible. Node equality
            # compares every field but `loc`, annotations included, so it is
            # at least as strict as comparing the printed terms; the printed
            # terms are compared at the last state.
            for s, want in zip(states, memoized):
                _forget()
                t, ty = elaborate(EMPTY_ENV, SIGNATURE, _with_new_nodes(s))
                assert (t, print_type(ty)) == want
            if states:
                assert print_term(t, annotations=True) == print_term(want[0], annotations=True)
        assert reused > 0

    def test_new_nodes_copy_matches_deepcopy(self):
        for s in _states(oracle_programs("corpus")[0])[:5]:
            assert _printed(_with_new_nodes(s)) == _printed(copy.deepcopy(s))

    def test_second_signature_gets_its_own_annotation(self):
        t = parse_term("((array () +) (array () 1) (array () 2))")
        other = {**SIGNATURE, "+": SIGNATURE["<"]}
        assert _printed(t)[1] == "(Arr Num (Shp))"
        out, ty = elaborate(EMPTY_ENV, other, t)
        assert print_type(ty) == "(Arr Bool (Shp))"
        assert out.fn.atoms[0].annot is other["+"]
        assert _printed(t)[1] == "(Arr Num (Shp))"

    def test_second_root_env_gets_its_own_annotation(self):
        t = parse_term("(frame (2) x (array () 1))")
        num_env = EMPTY_ENV.with_types([("x", scalar_of(NUM))])
        bool_env = EMPTY_ENV.with_types([("x", parse_type("(Arr Bool (Shp))"))])
        assert _printed(t, num_env)[1] == "(Arr Num (Shp 2))"
        with pytest.raises(TypeCheckError) as e:
            elaborate(bool_env, SIGNATURE, t)
        assert e.value.kind is ErrorKind.CELL_MISMATCH
        out, _ = elaborate(bool_env, SIGNATURE, t.cells[0])
        assert print_type(out.annot) == "(Arr Bool (Shp))"

    def test_failure_is_not_remembered(self):
        t = parse_term("((array () +) (array () 1) x)", "f.remora")
        env = EMPTY_ENV.with_types([("x", scalar_of(NUM))])
        errors = []
        for e in (EMPTY_ENV, EMPTY_ENV, env, EMPTY_ENV):
            try:
                elaborate(e, SIGNATURE, t)
            except TypeCheckError as exc:
                errors.append((exc.kind, exc.loc, exc.detail))
        assert errors == [(ErrorKind.UNBOUND_VAR, t.args[1].loc, "unbound variable x")] * 3

    def test_node_whose_own_check_failed_fails_again(self):
        # its cells elaborate, so they are remembered; the frame is not
        t = parse_term("(frame () (frame (2) (array () 1) (array () #t)))", "f.remora")
        for _ in range(2):
            with pytest.raises(TypeCheckError) as e:
                elaborate(EMPTY_ENV, SIGNATURE, t)
            assert (e.value.kind, e.value.loc) == (ErrorKind.CELL_MISMATCH, t.cells[0].loc)

    def test_ill_typed_new_spine_raises_at_its_location(self):
        src = "((array () +) ((array () +) (array () 1) (array () 2)) (array () 5))"
        t, _ = elaborate(EMPTY_ENV, SIGNATURE, parse_term(src, "s.remora"))
        r = step(t)
        assert isinstance(r, Stepped) and r.term.args[1] is t.args[1]
        elaborate(EMPTY_ENV, SIGNATURE, r.term)
        bad_arg = parse_term("(array () #t)", "bad.remora")
        bad = replace(r.term, args=(bad_arg, r.term.args[1]))
        raised = []
        for state in (bad, copy.deepcopy(bad)):
            with pytest.raises(TypeCheckError) as e:
                elaborate(EMPTY_ENV, SIGNATURE, state)
            raised.append((e.value.kind, e.value.loc, e.value.detail))
        assert raised[0] == raised[1]
        assert raised[0][:2] == (ErrorKind.CELL_MISMATCH, bad_arg.loc)
        want = _printed(r.term)
        _forget()
        assert want == _printed(_with_new_nodes(r.term))

    def test_threads_sharing_the_memo_get_fresh_results(self):
        # Threads interleave calls with the same and with different root
        # environments; every result must still be the from-scratch one.
        progs = oracle_programs("corpus")[:4]
        envs = [EMPTY_ENV, EMPTY_ENV, EMPTY_ENV.with_sorts([("n", Sort.DIM)]), EMPTY_ENV]
        cases = []
        for p, env in zip(progs, envs):
            cases.append([])
            for s in _states(p)[:40]:
                _forget()
                cases[-1].append((s, env, _printed(_with_new_nodes(s), env)))
        bad = []

        def run(case):
            for _ in range(3):
                for s, env, want in case:
                    if _printed(s, env) != want:
                        bad.append(s)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(c,)) for c in cases]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert not bad

    # The previous call's conclusions, reused along the spine

    def test_equivalent_but_unequal_child_type_runs_the_rules(self):
        # The new cell's type is equivalent to the old one's, not `==`: the
        # frames above it get the type their rules give, not the old one.
        weird = parse_type("(-> ((Arr Num (Shp)) (Arr Num (Shp))) (Arr Num (++ (Shp) (Shp))))")
        assert types_equal(weird, SIGNATURE["+"]) and weird != SIGNATURE["+"]
        old = parse_term("(frame () (frame (2) (array () +) (array () +)))")
        inner = old.cells[0]
        cell = ArrayLit((), (PrimOp("+", annot=weird),))
        new = replace(old, cells=(replace(inner, cells=(cell, inner.cells[1])),))
        got = _after(old, new)
        assert got == _fresh(new)
        assert got[2] == "(Arr (-> ((Arr Num (Shp)) (Arr Num (Shp))) (Arr Num (++ (Shp) (Shp)))) (Shp 2))"

    def test_changed_child_that_fails_raises_as_from_scratch(self):
        old = parse_term("(frame (2) (array () 1) ((array () +) (array () 1) (array () 2)))", "f.remora")
        app = old.cells[1]
        bad = parse_term("y", "bad.remora")
        new = replace(old, cells=(old.cells[0], replace(app, args=(app.args[0], bad))))
        want = (ErrorKind.UNBOUND_VAR, "unbound variable y", bad.loc)
        assert _after(old, new) == _fresh(new) == want

    @pytest.mark.parametrize("src, cell, kind", [
        # the changed cell elaborates, but its frame's cells disagree
        ("((array () +) (frame (2) (array () 1) (array () 2)) (array () 5))", "(array () #t)",
         ErrorKind.CELL_MISMATCH),
        # the changed argument elaborates, but its frame no longer fits the other's
        ("((array () +) (frame (2) (array () 1) (array () 2)) (frame (2) (array () 3) (array () 4)))",
         "(frame (3) (array () 1) (array () 2) (array () 3))", ErrorKind.FRAME_INCOMPATIBLE),
    ])
    def test_changed_child_that_makes_its_parent_ill_typed(self, src, cell, kind):
        old = parse_term(src, "s.remora")
        frame = old.args[0]
        new_cell = parse_term(cell, "c.remora")
        if kind is ErrorKind.CELL_MISMATCH:
            new = replace(old, args=(replace(frame, cells=(new_cell, frame.cells[1])), old.args[1]))
        else:
            new = replace(old, args=(new_cell, old.args[1]))
        got = _after(old, new)
        assert got == _fresh(new)
        assert got[0] is kind and got[2] is not None

    def test_unrelated_term_after_a_state(self):
        a = _states(oracle_programs("lift100")[0])[2]
        b = _states(oracle_programs("reduce100")[0])[5]
        for prev, state in ((a, b), (b, a)):
            assert _after(prev, state) == _fresh(state)

    def test_same_state_twice(self):
        for state in _states(oracle_programs("corpus")[0])[:5]:
            first = _elaborated(state)
            again = _elaborated(state)
            assert first == again == _fresh(state)

    def test_failed_call_then_a_good_one(self):
        states = _states(oracle_programs("lift100")[0])[:4]
        for prev, state in zip(states, states[1:]):
            f = _TERM_FIELDS[type(state)][0]  # its first child made unbound
            kids = getattr(state, f)
            bad = replace(state, **{f: (Var("unbound#"), *kids[1:]) if isinstance(kids, tuple) else Var("unbound#")})
            _elaborated(prev)
            assert _elaborated(bad) == _fresh(bad)
            assert _elaborated(state) == _fresh(state)

    def test_deep_frame_within_default_recursion_limit(self):
        # The memo lookup lives inside `expr`: one Python frame per level.
        t = ArrayLit((), (num(7),))
        for _ in range(400):
            t = Frame((), (t,))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            _, ty = elaborate(EMPTY_ENV, SIGNATURE, t)
        finally:
            sys.setrecursionlimit(limit)
        assert ty.elem == NUM


class TestElaborationCost:
    """Re-elaborating each state of the preservation loop fires O(1) typing
    rules, whatever the size of the term: calls into the rules (of
    `_Elaborator.expr` and `atom`, memo hits included, so at least the
    firings), counted per step, for a larger member of a family against its
    n=100 member."""

    @staticmethod
    def rules_per_step(monkeypatch, family: str, n: int) -> float:
        term = check_src(family_source(family, n))[0]
        states = _states(term)
        calls = [0]
        for name in ("expr", "atom"):
            real = getattr(remora.check._Elaborator, name)

            def counted(self, t, env, real=real):
                calls[0] += 1
                return real(self, t, env)

            monkeypatch.setattr(remora.check._Elaborator, name, counted)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(4 * limit)  # each counted call adds a frame
        try:
            elaborate(EMPTY_ENV, SIGNATURE, term)
            calls[0] = 0
            for s in states:
                elaborate(EMPTY_ENV, SIGNATURE, s)
        finally:
            sys.setrecursionlimit(limit)
            monkeypatch.undo()
        return calls[0] / len(states)

    @pytest.mark.parametrize("family, n", [("reduce", 300), ("frame", 400), ("lift", 400)])
    def test_rules_per_step_are_flat(self, monkeypatch, family, n):
        small = self.rules_per_step(monkeypatch, family, 100)
        large = self.rules_per_step(monkeypatch, family, n)
        assert large <= 1.5 * small, (large, small)

    def test_batch_kinds_no_operator_signature(self, monkeypatch):
        """An operator's signature kinded at its first lookup; elaborating
        the `batch` group kinds none again."""
        kinded = []
        real = remora.check.kind_of

        def counted(env, t, loc=None):
            if remora.prims.KINDED.get(id(t)) is t:
                kinded.append(t)
            return real(env, t, loc)

        sources = _group_sources("batch")
        monkeypatch.setattr(remora.check, "kind_of", counted)
        # Its own memo, so that later tests meet the process's as it was
        monkeypatch.setattr(remora.names, "_MEMO", {})
        for p in sources:
            elaborate(EMPTY_ENV, SIGNATURE, p)
        assert not kinded


class TestCopyCost:
    """The preservation loop copies O(1) nodes per level of the redex path:
    `step` rebuilds the spine above the redex once, and `elaborate` walks it
    back up once, returning each successor as it is. Every copy of a node is
    made by `syntax._new`; the copies of `step` plus `elaborate`, summed over
    a run and divided by the levels of the redex paths, for a larger member
    of a family against its n=100 member."""

    @staticmethod
    def copies_per_level(monkeypatch, family: str, n: int) -> float:
        cur = check_src(family_source(family, n))[0]
        elaborate(EMPTY_ENV, SIGNATURE, cur)
        made, real = [0], remora.syntax._new

        def counted(cls):
            made[0] += 1
            return real(cls)

        monkeypatch.setattr(remora.syntax, "_new", counted)
        copies = levels = 0
        try:
            while True:
                m = Machine(cur)
                if m.refocus() is not None:
                    break
                levels += len(m.stack)
                before = made[0]
                r = step(cur)
                assert type(r) is Stepped
                cur = r.term
                elaborate(EMPTY_ENV, SIGNATURE, cur)
                copies += made[0] - before
        finally:
            monkeypatch.undo()
        return copies / levels

    @pytest.mark.parametrize("family, n", [("reduce", 300), ("frame", 400)])
    def test_copies_per_level_are_flat(self, monkeypatch, family, n):
        small = self.copies_per_level(monkeypatch, family, 100)
        large = self.copies_per_level(monkeypatch, family, n)
        # `step` copies a level once and `elaborate` not at all; the
        # contraction's own copies are O(1) per step. Two per level would be
        # a level copied twice.
        assert large <= small < 2, (large, small)


class TestReElaborationIdentity:
    """Re-elaborating a node whose annotations are its conclusions as written
    (node equality with a from-scratch elaboration) returns that very node:
    an elaborated program from scratch, and each state of the preservation
    loop in the call right after the one on the state it came from."""

    def test_elaborated_program_is_returned_as_it_is(self):
        for t in oracle_programs("corpus"):
            _forget()
            assert elaborate(EMPTY_ENV, SIGNATURE, t)[0] is t
            assert elaborate(EMPTY_ENV, SIGNATURE, t)[0] is t

    @pytest.mark.parametrize("group", ["lift100", "frame100"])
    def test_preservation_loop_state_is_returned_as_it_is(self, group):
        [prog] = oracle_programs(group)
        states = _states(prog)
        fresh = [_fresh(s)[0] for s in states]
        _forget()
        elaborate(EMPTY_ENV, SIGNATURE, prog)
        kept = 0
        for s, want in zip(states, fresh):
            out = elaborate(EMPTY_ENV, SIGNATURE, s)[0]
            assert out == want
            if s == want:
                assert out is s
                kept += 1
        assert kept > 0
