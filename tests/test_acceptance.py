"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line. Criteria 5-7 share one batch of 500 generated well-typed closed
programs (AST depth <= 5) plus the corpus under programs/."""

import pathlib
import random
import sys
import time

import pytest

from remora.check import EMPTY_ENV, ErrorKind, TypeCheckError, elaborate, types_equal
from remora.erase import bisim_run, erase_term, erased_alpha_equal, esubst_idx, esubst_term
from remora.eval import (
    AlreadyValue,
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
from remora.indices import (
    CanonicalDim,
    CanonicalShape,
    DimC,
    VarC,
    canonicalize_shape,
    indices_equal,
    prefix_subtract,
)
from remora.names import TM, free_vars, freshen, subst_idx_in_term, subst_term, subst_ty_in_term
from remora.parser import parse_index, parse_term
from remora.printer import print_term, print_type
from remora.prims import SIGNATURE
from remora.syntax import NatLit, NUM, Sort

from .util import all_assignments, eval_dim, random_dim
from .test_check import ILL_TYPED

PROGRAM_DIR = pathlib.Path(__file__).resolve().parent.parent / "programs"


def report(number: int, name: str, ok: bool, extra: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[criterion {number}] {name}: {verdict}{suffix}", file=sys.__stdout__, flush=True)
    assert ok, f"criterion {number} {name} failed"


@pytest.fixture(scope="module")
def suite_500():
    programs = generate_programs(500, seed=2024, config=GenConfig(stuck_rate=0.05))
    return [(p, *elaborate(EMPTY_ENV, SIGNATURE, p)) for p in programs]


def _run_golden(src: str):
    t, ty = elaborate(EMPTY_ENV, SIGNATURE, parse_term(src))
    r = evaluate(t)
    return r, ty


MTX = "(array (3 2) 0 1 2 3 4 5)"


def test_criterion_1_paper_example_goldens():
    start = time.monotonic()
    ok = True

    r, ty = _run_golden(f"((t-app (i-app (array () head) 2 (Shp 2)) Num) {MTX})")
    ok &= print_type(ty, canonical=True) == "(Arr Num (Shp 2))"
    ok &= r.outcome == "value" and print_term(r.term) == "(array (2) 0 1)"

    r, ty = _run_golden(f"((t-app (i-app (array () head) 1 (Shp)) Num) {MTX})")
    ok &= print_type(ty, canonical=True) == "(Arr Num (Shp 3))"
    ok &= r.outcome == "value" and print_term(r.term) == "(array (3) 0 2 4)"

    r, _ = _run_golden("(frame (2) (array (2) 1 2) (array (2) 3 4))")
    ok &= r.outcome == "value" and print_term(r.term) == "(array (2 2) 1 2 3 4)"

    r, _ = _run_golden(
        "((t-app (i-app (array () reshape) 2 (Shp 5)) Num)"
        " (array (2) 3 2) (array (5) 1 2 3 4 5))"
    )
    # reshape is box-returning; the quoted matrix is the box payload
    payload = r.term.atoms[0].payload
    ok &= r.outcome == "value" and print_term(payload) == "(array (3 2) 1 2 3 4 5 1)"

    elapsed = time.monotonic() - start
    report(1, "paper-example goldens", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_2_index_theory_goldens():
    start = time.monotonic()
    ok = True
    ok &= indices_equal(parse_index("(+ x y 5 x)"), parse_index("(+ (+ x x) 5 y)")) is True
    ok &= indices_equal(parse_index("(+ q 5 y)"), parse_index("(+ (+ x x) 5 y)")) is False
    got = canonicalize_shape(parse_index("(++ (Shp 2 (+ x 5 x)) (++ d (Shp 3)))"))
    ok &= got == CanonicalShape(
        (
            DimC(CanonicalDim(2, ())),
            DimC(CanonicalDim(5, (("x", 2),))),
            VarC("d"),
            DimC(CanonicalDim(3, ())),
        )
    )
    ok &= prefix_subtract(
        canonicalize_shape(parse_index("(Shp 3 4 5 6)")),
        canonicalize_shape(parse_index("(Shp 3 4)")),
    ) == canonicalize_shape(parse_index("(Shp 5 6)"))
    ok &= (
        prefix_subtract(
            canonicalize_shape(parse_index("(Shp 3 4 5 6)")),
            canonicalize_shape(parse_index("(Shp 4)")),
        )
        is None
    )
    elapsed = time.monotonic() - start
    report(2, "index-theory goldens", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_3_canonicalization_oracle():
    start = time.monotonic()
    rng = random.Random(1000)
    assignments = list(all_assignments("xyz"))
    bad = 0
    agreements_true = 0
    for _ in range(1000):
        a = random_dim(rng, vars=("x", "y", "z"))
        # half the time, derive b from a so valid equalities actually occur
        if rng.random() < 0.5:
            b = random_dim(rng, vars=("x", "y", "z"))
        else:
            from remora.indices import canonicalize_dim, dim_to_index

            b = dim_to_index(canonicalize_dim(a))
        decided = indices_equal(a, b)
        truth = all(eval_dim(a, env) == eval_dim(b, env) for env in assignments)
        if decided != truth:
            bad += 1
        if decided:
            agreements_true += 1
    elapsed = time.monotonic() - start
    report(
        3,
        "canonicalization vs brute-force oracle",
        bad == 0 and agreements_true > 100 and elapsed < 30.0,
        f"{elapsed:.1f}s, {agreements_true} valid equalities",
    )


def test_criterion_4_metafunction_goldens_and_algebra():
    ok = split_list(3, [1, 2, 3, 4, 5, 6]) == [[1, 2, 3], [4, 5, 6]]
    ok &= rep_list(2, [0, 1]) == [0, 0, 1, 1]
    ok &= rep_list(2, [[1, 2, 3], [4, 5, 6]]) == [[1, 2, 3], [1, 2, 3], [4, 5, 6], [4, 5, 6]]
    rng = random.Random(1001)
    for _ in range(1000):
        n = rng.randint(1, 6)
        xs = [rng.randint(0, 99) for _ in range(n * rng.randint(0, 8))]
        if concat_list(split_list(n, xs)) != xs:
            ok = False
        k = rng.randint(0, 5)
        ys = [rng.randint(0, 99) for _ in range(rng.randint(0, 8))]
        if len(rep_list(k, ys)) != k * len(ys):
            ok = False
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        xss = [[rng.randint(0, 99) for _ in range(cols)] for _ in range(rows)]
        if transpose_list(transpose_list(xss)) != xss:
            ok = False
    report(4, "metafunction goldens and algebra", ok)


def test_criterion_5_progress_and_preservation(suite_500):
    start = time.monotonic()
    violations = []
    for i, (src, term, ty) in enumerate(suite_500):
        cur = term
        for _ in range(10_000):
            r = step(cur)
            if isinstance(r, AlreadyValue):
                if not is_value(cur):
                    violations.append((i, "claimed value is not a value"))
                break
            if isinstance(r, Stuck):
                if r.reason != "misapplied":
                    violations.append((i, f"internal stuck: {r.detail}"))
                break
            cur = r.term
            try:
                _, ty2 = elaborate(EMPTY_ENV, SIGNATURE, cur)
            except TypeCheckError as exc:
                violations.append((i, f"re-elaboration failed: {exc}"))
                break
            if not types_equal(ty, ty2):
                violations.append((i, "type not preserved"))
                break
    elapsed = time.monotonic() - start
    report(
        5,
        "progress and preservation (500 programs)",
        not violations and elapsed < 300.0,
        f"{elapsed:.1f}s" + (f", first: {violations[0]}" if violations else ""),
    )


def test_criterion_6_uniqueness_of_typing(suite_500):
    violations = 0
    for src, _, _ in suite_500:
        _, ty1 = elaborate(EMPTY_ENV, SIGNATURE, freshen(src))
        _, ty2 = elaborate(EMPTY_ENV, SIGNATURE, freshen(src, salt="b"))
        if not types_equal(ty1, ty2):
            violations += 1
    report(6, "uniqueness of typing (500 programs)", violations == 0)


def test_criterion_7_bisimulation(suite_500):
    start = time.monotonic()
    outcomes = {"both-value": 0, "both-stuck": 0, "diverged": 0, "mismatch": 0}
    first_bad = None
    corpus = []
    for path in sorted(PROGRAM_DIR.glob("*.remora")):
        t, _ = elaborate(EMPTY_ENV, SIGNATURE, parse_term(path.read_text(), str(path)))
        corpus.append((str(path), t))
    for name, term in [(f"gen-{i}", t) for i, (_, t, _) in enumerate(suite_500)] + corpus:
        rep = bisim_run(term, fuel=10_000)
        outcomes[rep.outcome] += 1
        if rep.outcome == "mismatch" and first_bad is None:
            first_bad = name
    elapsed = time.monotonic() - start
    ok = outcomes["mismatch"] == 0 and outcomes["both-stuck"] > 0 and elapsed < 300.0
    report(
        7,
        "bisimulation (500 programs + corpus)",
        ok,
        f"{elapsed:.1f}s, {outcomes}" + (f", first: {first_bad}" if first_bad else ""),
    )


def test_criterion_8_substitution_erasure_commutation():
    rng = random.Random(1003)
    programs = generate_programs(300, seed=77)
    env_n = EMPTY_ENV.with_sorts([("n", Sort.DIM)])
    from remora.check import Env
    from remora.erase import erase_type
    from remora.syntax import ArrayLit, Kind, num as mknum
    from remora.parser import parse_type

    env_t = EMPTY_ENV.with_kinds([("t", Kind.ATOM)])
    open_idx = [
        elaborate(env_n, SIGNATURE, parse_term(s))[0]
        for s in (
            "(array () (lam ((x (Arr Num (Shp n)))) x))",
            "(frame () (array () (lam ((x (Arr Num (++ (Shp n) (Shp 2))))) x)))",
        )
    ]
    open_ty = [
        elaborate(env_t, SIGNATURE, parse_term(s))[0]
        for s in (
            "(array () (lam ((x (Arr t (Shp)))) x))",
            "(array () (lam ((x (Arr t (Shp 2))) (y (Arr t (Shp)))) y))",
        )
    ]
    ok = True
    for i in range(300):
        t, _ = elaborate(EMPTY_ENV, SIGNATURE, programs[i])
        # term substitution
        fvs = sorted(free_vars(t, TM)) or ["zz"]
        x = rng.choice(fvs)
        v = ArrayLit((), (mknum(rng.randint(0, 9)),), annot=parse_type("(Arr Num (Shp))"))
        lhs = erase_term(subst_term(t, {x: v}))
        rhs = esubst_term(erase_term(t), {x: erase_term(v)})
        ok &= erased_alpha_equal(lhs, rhs)
        # index substitution on open terms
        o = open_idx[i % len(open_idx)]
        k = NatLit(rng.randint(0, 3))
        ok &= erased_alpha_equal(
            erase_term(subst_idx_in_term(o, {"n": k})),
            esubst_idx(erase_term(o), {"n": k}),
        )
        # type substitution on open terms
        o = open_ty[i % len(open_ty)]
        payload = rng.choice([NUM, parse_type("Bool"), parse_type("(-> ((Arr Num (Shp))) (Arr Num (Shp)))")])
        ok &= erased_alpha_equal(
            erase_term(subst_ty_in_term(o, {"t": payload})),
            esubst_idx(erase_term(o), {"t": erase_type(payload)}),
        )
        if not ok:
            break
    report(8, "substitution/erasure commutation (300 triples each)", ok)


def test_criterion_9_negative_typing_suite():
    ok = len(ILL_TYPED) >= 12
    for src, kind in ILL_TYPED:
        try:
            elaborate(EMPTY_ENV, SIGNATURE, parse_term(src))
        except TypeCheckError as exc:
            if exc.kind is not kind:
                ok = False
        else:
            ok = False
    kinds = {kind for _, kind in ILL_TYPED}
    ok &= {
        ErrorKind.FRAME_INCOMPATIBLE,
        ErrorKind.LENGTH_MISMATCH,
        ErrorKind.ESCAPING_INDEX_VAR,
        ErrorKind.ANNOTATION_MISMATCH,
        ErrorKind.KIND_MISMATCH,
    } <= kinds
    report(9, f"negative typing suite ({len(ILL_TYPED)} programs)", ok)
