"""The operator signature and metafunctions. Quantifier bodies in shipped
signatures are scalar-array-wrapped relative to the readable prose forms, so
the golden types here spell that wrapping out."""

import random

import pytest

from remora.check import EMPTY_ENV, elaborate, types_equal
from remora.eval import evaluate
from remora.indices import element_count
from remora.parser import parse_term, parse_type
from remora.printer import print_term, print_type
from remora.prims import (
    Misapplied,
    PRIMS,
    SIGNATURE,
    delta_apply,
    instantiate,
    signature_lookup,
)
from remora.syntax import ArrayLit, Box, NatLit, ShapeLit, num


def scalar(x):
    return ArrayLit((), (num(x),))


class TestSignature:
    def test_plus_type_matches_prose(self):
        assert print_type(signature_lookup("+")) == "(-> ((Arr Num (Shp)) (Arr Num (Shp))) (Arr Num (Shp)))"

    def test_append_type(self):
        want = parse_type(
            "(Pi ((c Shape) (m Dim) (n Dim))"
            " (Arr (Forall ((a Atom))"
            "  (Arr (-> ((Arr a (++ (Shp m) c)) (Arr a (++ (Shp n) c)))"
            "           (Arr a (++ (Shp (+ m n)) c)))"
            "   (Shp)))"
            "  (Shp)))"
        )
        assert types_equal(signature_lookup("append"), want)

    def test_head_type(self):
        want = parse_type(
            "(Pi ((d Dim) (s Shape))"
            " (Arr (Forall ((a Atom))"
            "  (Arr (-> ((Arr a (++ (Shp (+ 1 d)) s))) (Arr a s)) (Shp)))"
            "  (Shp)))"
        )
        assert types_equal(signature_lookup("head"), want)

    def test_unknown_operator(self):
        assert signature_lookup("rotate") is None

    @pytest.mark.parametrize("name", sorted(PRIMS))
    def test_each_lookup_returns_the_same_object(self, name):
        # The elaborator's `is` fast paths rely on one object per operator.
        assert SIGNATURE[name] is SIGNATURE[name]
        assert signature_lookup(name) is SIGNATURE[name]
        # parsed from text, but located nowhere, as a type built in code
        assert "SourceLocation" not in repr(SIGNATURE[name])

    def test_shipped_set(self):
        assert set(PRIMS) == {
            "+", "-", "*", "/", "<", "=",
            "head", "append", "reduce", "iota/v", "iota/s", "reshape", "ravel", "filter",
        }


class TestDelta:
    def test_plus(self):
        got = delta_apply("+", [], [], [scalar(2), scalar(3)])
        assert print_term(got) == "(array () 5)"

    def test_reshape_cycles(self):
        spec = ArrayLit((2,), (num(3), num(2)))
        data = ArrayLit((5,), tuple(num(i) for i in (1, 2, 3, 4, 5)))
        got = delta_apply(
            "reshape",
            [parse_type("Num")],
            [NatLit(2), ShapeLit((NatLit(5),))],
            [spec, data],
        )
        box = got.atoms[0]
        assert isinstance(box, Box)
        assert print_term(box.payload) == "(array (3 2) 1 2 3 4 5 1)"

    def test_iota_v(self):
        got = delta_apply("iota/v", [], [], [scalar(3)])
        box = got.atoms[0]
        assert box.indices == (NatLit(3),)
        assert print_term(box.payload) == "(array (3) 0 1 2)"

    def test_division_by_zero_misapplied(self):
        with pytest.raises(Misapplied):
            delta_apply("/", [], [], [scalar(1), scalar(0)])

    def test_reshape_empty_source_misapplied(self):
        spec = ArrayLit((1,), (num(2),))
        data = ArrayLit((0,), ())
        with pytest.raises(Misapplied):
            delta_apply("reshape", [parse_type("Num")], [NatLit(1), ShapeLit((NatLit(0),))], [spec, data])


def run(src: str):
    t, ty = elaborate(EMPTY_ENV, SIGNATURE, parse_term(src))
    r = evaluate(t)
    assert r.outcome == "value", r
    return r.term, ty


class TestBehaviour:
    def test_ravel_row_major(self):
        val, _ = run("((t-app (i-app (array () ravel) (Shp 2 3)) Num) (array (2 3) 1 2 3 4 5 6))")
        box = val.atoms[0]
        assert box.indices == (NatLit(6),)
        assert print_term(box.payload) == "(array (6) 1 2 3 4 5 6)"
        # random shapes: payload length equals the element count, atoms in order
        rng = random.Random(6)
        for _ in range(20):
            dims = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 3)))
            n = element_count(dims)
            atoms = " ".join(str(rng.randint(0, 9)) for _ in range(n))
            dim_txt = " ".join(map(str, dims))
            if n == 0:
                src = f"((t-app (i-app (array () ravel) (Shp {dim_txt})) Num) (empty-array Num ({dim_txt})))"
            else:
                src = f"((t-app (i-app (array () ravel) (Shp {dim_txt})) Num) (array ({dim_txt}) {atoms}))"
            val, _ = run(src)
            payload = val.atoms[0].payload
            assert payload.dims == (n,)
            assert " ".join(print_term(a) for a in payload.atoms) == atoms

    def test_filter_keeps_flagged_slices_in_order(self):
        val, _ = run(
            "((t-app (i-app (array () filter) 3 (Shp 2)) Num)"
            " (array (3) #t #f #t) (array (3 2) 1 2 3 4 5 6))"
        )
        box = val.atoms[0]
        assert box.indices == (NatLit(2),)
        assert print_term(box.payload) == "(array (2 2) 1 2 5 6)"

    def test_reduce_plus_with_unit_is_sum(self):
        rng = random.Random(7)
        for _ in range(20):
            xs = [rng.randint(-5, 9) for _ in range(rng.randint(0, 6))]
            n = len(xs)
            arr = (
                f"(array ({n}) {' '.join(map(str, xs))})" if n else "(empty-array Num (0))"
            )
            src = (
                f"((t-app (i-app (array () reduce) {n} (Shp)) Num)"
                f" (array () +)"
                f" ((t-app (i-app (array () append) (Shp) 1 {n}) Num) (array (1) 0) {arr}))"
            )
            val, _ = run(src)
            assert print_term(val) == f"(array () {sum(xs)})"

    def test_reduce_right_fold(self):
        # with subtraction the fold direction is observable: 1-(2-3) = 2
        val, _ = run(
            "((t-app (i-app (array () reduce) 2 (Shp)) Num)"
            " (array () -) (array (3) 1 2 3))"
        )
        assert print_term(val) == "(array () 2)"


class TestTypeFidelity:
    def test_delta_results_inhabit_output_types(self):
        # For each operator: random instantiations and arguments, evaluate a
        # full application, and re-elaborate the resulting term.
        from remora.gen import GenConfig, ProgramGen

        rng = random.Random(8)
        checked = 0
        for i in range(200):
            gen = ProgramGen(900 + i, GenConfig(max_depth=2))
            prog = gen.program()
            t, ty = elaborate(EMPTY_ENV, SIGNATURE, prog)
            r = evaluate(t, fuel=4000)
            if r.outcome != "value":
                continue
            _, ty2 = elaborate(EMPTY_ENV, SIGNATURE, r.term)
            assert types_equal(ty, ty2), print_term(prog)
            checked += 1
        assert checked >= 150

    def test_each_primitive_directed(self):
        # one fully applied random instantiation per round, for every
        # operator in the registry; the result term must re-elaborate to the
        # application's type
        rng = random.Random(9)

        def vec(n, lo=1, hi=9):
            if n == 0:
                return "(empty-array Num (0))"
            return f"(array ({n}) {' '.join(str(rng.randint(lo, hi)) for _ in range(n))})"

        def mat(d0, d1):
            n = d0 * d1
            if n == 0:
                return f"(empty-array Num ({d0} {d1}))"
            return f"(array ({d0} {d1}) {' '.join(str(rng.randint(0, 9)) for _ in range(n))})"

        def cases():
            for op in ("+", "-", "*", "<", "="):
                yield f"((array () {op}) (array () {rng.randint(0, 9)}) (array () {rng.randint(0, 9)}))"
            yield f"((array () /) (array () {rng.randint(0, 9)}) (array () {rng.randint(1, 9)}))"
            d, c = rng.randint(0, 2), rng.randint(1, 3)
            yield (
                f"((t-app (i-app (array () head) {d} (Shp {c})) Num) {mat(d + 1, c)})"
            )
            m, n, c2 = rng.randint(0, 2), rng.randint(0, 2), rng.randint(1, 2)
            yield (
                f"((t-app (i-app (array () append) (Shp {c2}) {m} {n}) Num)"
                f" {mat(m, c2)} {mat(n, c2)})"
            )
            d2 = rng.randint(0, 2)
            yield (
                f"((t-app (i-app (array () reduce) {d2} (Shp)) Num)"
                f" (array () +) {vec(d2 + 1)})"
            )
            yield f"((array () iota/v) (array () {rng.randint(0, 4)}))"
            yield f"((i-app (array () iota/s) (Shp {rng.randint(0, 3)} {rng.randint(1, 3)})))"
            k = rng.randint(1, 4)
            yield (
                f"((t-app (i-app (array () reshape) 2 (Shp {k})) Num)"
                f" (array (2) {rng.randint(0, 3)} {rng.randint(1, 3)}) {vec(k)})"
            )
            r0, r1 = rng.randint(0, 2), rng.randint(1, 3)
            yield f"((t-app (i-app (array () ravel) (Shp {r0} {r1})) Num) {mat(r0, r1)})"
            fd = rng.randint(0, 3)
            flags = " ".join(rng.choice(["#t", "#f"]) for _ in range(fd))
            flag_arr = f"(array ({fd}) {flags})" if fd else "(empty-array Bool (0))"
            yield (
                f"((t-app (i-app (array () filter) {fd} (Shp)) Num)"
                f" {flag_arr} {vec(fd)})"
            )

        total = 0
        for _ in range(15):
            for src in cases():
                t, ty = elaborate(EMPTY_ENV, SIGNATURE, parse_term(src))
                r = evaluate(t, fuel=4000)
                assert r.outcome == "value", src
                _, ty2 = elaborate(EMPTY_ENV, SIGNATURE, r.term)
                assert types_equal(ty, ty2), src
                total += 1
        assert total >= 200

    def test_instantiate_strips_quantifiers(self):
        fn = instantiate(
            signature_lookup("head"), [parse_type("Num")], [NatLit(2), ShapeLit((NatLit(2),))]
        )
        want = parse_type("(-> ((Arr Num (++ (Shp (+ 1 2)) (Shp 2)))) (Arr Num (Shp 2)))")
        assert types_equal(fn, want)
