"""Concrete grammar, printing, and canonical renaming."""

import copy
import gc
import pickle
import random
import sys
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import remora.check
import remora.eval
import remora.indices
import remora.parser
from remora import names, syntax
from remora.check import EMPTY_ENV, TypeCheckError, elaborate
from remora.eval import evaluate
from remora.gen import GenConfig, generate_programs
from remora.names import (
    IDX,
    TM,
    TY,
    alpha_equal,
    free_vars,
    freshen,
    subst_idx_in_term,
    subst_idx_in_type,
    subst_term,
    subst_ty_in_term,
    subst_ty_in_type,
)
from remora.parser import Lines, ParseError, _read, _tokenize, parse_index, parse_term, parse_type
from remora.printer import print_term, print_type
from remora.prims import PRIMS, SIGNATURE
from remora.syntax import App, ArrayLit, EmptyArray, Frame, IdxVar, Lam, NUM, Var, copier, num, replace, scalar_of

from .util import (
    ORACLE_GROUPS,
    PROGRAMS_DIR,
    TYPED_MUTATIONS,
    assert_locations_match_reference,
    check_src,
    node_locations,
    oracle_programs,
    reference_alpha_equal,
    reference_parse_index,
    reference_parse_term,
    reference_parse_type,
    reference_tokenize,
    rewrite_at,
    typed_sites,
)


class TestParse:
    def test_matrix_literal(self):
        t = parse_term("(array (2 2) 1 2 3 4)")
        assert isinstance(t, ArrayLit)
        assert t.dims == (2, 2)
        assert [a.value for a in t.atoms] == [1, 2, 3, 4]

    def test_vector_frame_of_vector_cells(self):
        t = parse_term("(frame (2) (array (2) 1 2) (array (2) 3 4))")
        assert isinstance(t, Frame)
        assert t.dims == (2,)
        assert len(t.cells) == 2
        assert all(isinstance(c, ArrayLit) for c in t.cells)

    def test_scalar_literal(self):
        t = parse_term("(array () 5)")
        assert t.dims == () and len(t.atoms) == 1

    def test_locations_attached(self):
        t = parse_term("(array (2)\n 1 2)", filename="f.remora")
        assert t.loc.file == "f.remora" and t.loc.line == 1

    def test_comments_ignored(self):
        t = parse_term("; a matrix\n(array () 1) ; trailing\n")
        assert isinstance(t, ArrayLit)

    @pytest.mark.parametrize(
        "bad",
        [
            "(array (2) 1 2",  # unbalanced
            "(arrray (2) 1 2)",  # unknown keyword
            "(lam (x) x)",  # malformed binder list
            "(array () 1) (array () 2)",  # two top-level expressions
            "5",  # bare atom in expression position
            "(unbox (b) b)",  # unbox binder list too short
            "(array (-1) 1)",  # negative dimension
            "(array () 1e999)",  # number literal that overflows to inf
            "(array () -1e999)",  # and to -inf
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_term(bad)

    @pytest.mark.parametrize("text, where", [("(: Num)", "f:1:1"), ("(frame ()\n  (: Num))", "f:2:3"),
                                             ("((: +) box (()) Dim)", "f:1:2")])
    def test_annotation_of_nothing(self, text, where):
        with pytest.raises(ParseError) as info:
            parse_term(text, "f")
        assert (info.value.message, str(info.value.loc)) == ("empty application", where)

    def test_char_and_bool_literals(self):
        t = parse_term("(array (3) #t #f #\\a)")
        assert [a.base for a in t.atoms] == ["Bool", "Bool", "Char"]

    def test_naturals_are_what_int_reads(self):
        # `²` is a digit to `str.isdigit` but not to `int`
        with pytest.raises(ParseError) as info:
            parse_term("(array (²) 1)", "f")
        assert (info.value.message, str(info.value.loc)) == ("dimensions must be natural number literals", "f:1:9")
        assert parse_index("²") == IdxVar("²")
        assert parse_term("(array (٣) 1 2 3)").dims == (3,)
        assert parse_index("(Shp ٣)") == parse_index("(Shp 3)")


def _tokens(text):
    lines = Lines(text, "f")
    return [(tok, loc.line, loc.column) for tok, at in _tokenize(text) for loc in [lines.locate(at)]]


class TestReader:
    @pytest.mark.parametrize(
        "text, tokens",
        [
            # the character of a `#\` literal may be a delimiter
            ("(#\\( #\\  #\\;)", [("(", 1, 1), ("#\\(", 1, 2), ("#\\ ", 1, 6), ("#\\;", 1, 10), (")", 1, 13)]),
            ("a #\\", [("a", 1, 1), ("#\\", 1, 3)]),  # `#\` at the end of the input
            ("a;b", [("a", 1, 1)]),
            ("\t(a\r\n\tb)", [("(", 1, 2), ("a", 1, 3), ("b", 2, 2), (")", 2, 3)]),
            ("; note\n  x", [("x", 2, 3)]),
            # a raw newline after `#\` starts the next line
            ("(x #\\\n y) z", [("(", 1, 1), ("x", 1, 2), ("#\\\n", 1, 4), ("y", 2, 2), (")", 2, 3), ("z", 2, 5)]),
        ],
    )
    def test_tokens_and_locations(self, text, tokens):
        assert _tokens(text) == tokens
        assert_locations_match_reference(text)

    @pytest.mark.parametrize(
        "text, message, where",
        [
            (")", "unexpected ')'", "f:1:1"),
            ("(a", "unbalanced parentheses", "f:1:1"),
            ("((a) (b", "unbalanced parentheses", "f:1:6"),  # the innermost open paren
            ("(a) b", "trailing content after expression", "f:1:5"),
            ("(a))", "trailing content after expression", "f:1:4"),
            ("(x #\\\n y) z", "trailing content after expression", "f:2:5"),
            ("", "empty input", None),
            ("; only a comment\n", "empty input", None),
        ],
    )
    def test_errors_and_locations(self, text, message, where):
        for parse in (parse_term, parse_type, parse_index):
            with pytest.raises(ParseError) as info:
                parse(text, "f")
            assert info.value.message == message
            assert (str(info.value.loc) if info.value.loc else None) == where

    def test_nesting_costs_no_python_frames(self):
        depth = 10**5
        s = _read("(" * depth + ")" * depth, "f")
        levels = 1
        while s.items:
            (s,) = s.items
            levels += 1
        assert levels == depth and s.loc.column == depth

    def test_locations_match_reference_on_the_corpus(self):
        paths = sorted(PROGRAMS_DIR.glob("*.remora"))
        assert paths
        for path in paths:
            assert_locations_match_reference(path.read_text(encoding="utf-8"), str(path))

    def test_locations_match_reference_on_the_batch(self):
        # the first 200 programs of the acceptance batch
        for prog in generate_programs(200, seed=2024, config=GenConfig(stuck_rate=0.05)):
            assert_locations_match_reference(print_term(prog))

    def test_each_parse_tokenizes_once(self, monkeypatch):
        """The benchmark's tracer wraps `parser._tokenize` by name and counts
        the entries of its result as tokens."""
        calls = []
        tokenize = remora.parser._tokenize

        def counting(*args):
            calls.append(tokenize(*args))
            return calls[-1]

        monkeypatch.setattr(remora.parser, "_tokenize", counting)
        for parse, text in [(parse_term, "; a vector\n(array (2) 1 2)"), (parse_type, "(Arr Num (Shp 2))"),
                            (parse_index, "(Shp 2 n) ; a shape")]:
            calls.clear()
            parse(text)
            assert len(calls) == 1
            assert [tok for tok, _ in calls[0]] == [tok for tok, _ in reference_tokenize(text, "f")]


def _outcome(parse, text):
    """The tree `parse` builds from `text` with the location of each of its
    nodes, or the message and location of the ParseError it raises."""
    try:
        t = parse(text, "f")
    except ParseError as err:
        return "error", err.message, err.loc
    return "tree", t, node_locations(t)


# What a mutation inserts, or puts in place of a token.
_MUTANTS = (*sorted(set(syntax.HEADS.values())), ":", "(", ")", "Atom", "Array", "Dim", "Shape", "Num", "0", "3",
            "2.5", "1e999", "x", "#t", "#\\a", "#\\bad")


def _mutate(rng, tokens) -> str:
    """`tokens` with one to three of them deleted, inserted or replaced. A
    deletion or a replacement leaves the parentheses alone (only an insertion
    can add one), so that most mutants still read and reach the grammar."""
    tokens = list(tokens)
    for _ in range(rng.randint(1, 3)):
        inner = [k for k, tok in enumerate(tokens) if tok not in "()"]
        op = rng.randrange(3) if inner else 0
        if op == 0:
            tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(_MUTANTS))
        elif op == 1:
            del tokens[rng.choice(inner)]
        else:
            tokens[rng.choice(inner)] = rng.choice(_MUTANTS)
    return " ".join(tokens)


class TestGrammar:
    PARSERS = ((parse_term, reference_parse_term), (parse_type, reference_parse_type),
               (parse_index, reference_parse_index))

    def test_matches_reference(self):
        """Each entry point gives the tree, node locations and ParseError of
        the ladders it replaced, on the corpus, the first 200 programs of the
        acceptance batch, every operator signature, and 4,000 mutants of
        their parenthesized forms."""
        sources = [path.read_text(encoding="utf-8") for path in sorted(PROGRAMS_DIR.glob("*.remora"))]
        sources += [print_term(p) for p in generate_programs(200, seed=2024, config=GenConfig(stuck_rate=0.05))]
        sources += [signature for signature, _ in PRIMS.values()]
        forms = set()
        for text in sources:
            tokens, opens = [tok for tok, _ in _tokenize(text)], []
            for k, tok in enumerate(tokens):
                if tok == "(":
                    opens.append(k)
                elif tok == ")":
                    forms.add(tuple(tokens[opens.pop() : k + 1]))
        forms = sorted(forms)
        rng = random.Random(20)
        mutants = [_mutate(rng, rng.choice(forms)) for _ in range(4000)]
        trees = 0
        for text in sources + mutants:
            for parse, reference in self.PARSERS:
                got = _outcome(parse, text)
                assert got == _outcome(reference, text), (parse.__name__, text)
                trees += got[0] == "tree"
        assert trees > 500  # each valid source, and some mutants

    @pytest.mark.parametrize("parse, open_, leaf", [(parse_term, "(frame () ", "(array () 1)"), (parse_index, "(+ ", "1")])
    def test_800_levels_at_the_default_recursion_limit(self, parse, open_, leaf):
        # One Python frame per level of nesting.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            parse(open_ * 799 + leaf + ")" * 799)
        finally:
            sys.setrecursionlimit(limit)


class TestRoundTrip:
    CASES = [
        "(array (2 2) 1 2 3 4)",
        "(array () 5)",
        "(frame (2) (array (2) 1 2) (array (2) 3 4))",
        "(array (2) #t #f)",
        "(array (6) #\\space #\\newline #\\tab #\\( #\\) #\\;)",
        "(array () (lam ((x (Arr Num (Shp)))) x))",
        "(array () (tlam ((t Atom)) (array () (lam ((x (Arr t (Shp)))) x))))",
        "(array () (ilam ((n Dim)) (array () (lam ((x (Arr Num (Shp n)))) x))))",
        "(array () (box 3 (array (3) 1 2 3) (Sigma ((n Dim)) (Arr Num (Shp n)))))",
        "(empty-array Num (0 3))",
        "(empty-frame (Arr Num (Shp 3)) (0))",
        "((t-app (i-app (array () head) 2 (Shp 2)) Num) (array (3 2) 0 1 2 3 4 5))",
        "(unbox (len v ((array () iota/v) (array () 3))) (array () 0))",
        "(array () 2.5)",
        "((array () +) (array () 1) (array () 2))",
    ]

    @pytest.mark.parametrize("src", CASES)
    def test_hand_cases(self, src):
        t = parse_term(src)
        assert parse_term(print_term(t)) == t

    def test_printer_matches_source_spelling(self):
        assert print_term(parse_term("(array (2 2) 1 2 3 4)")) == "(array (2 2) 1 2 3 4)"

    def test_generated_corpus(self):
        for prog in generate_programs(120, seed=5, config=GenConfig(stuck_rate=0.1)):
            assert parse_term(print_term(prog)) == prog

    def test_program_corpus(self):
        import pathlib

        corpus = sorted(
            (pathlib.Path(__file__).resolve().parent.parent / "programs").glob("*.remora")
        )
        assert corpus
        for path in corpus:
            t = parse_term(path.read_text(), str(path))
            assert parse_term(print_term(t)) == t

    def test_parse_and_print_leave_no_garbage(self):
        # Neither walks with a recursive closure: each would be a reference
        # cycle per call, for the collector to find.
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            for path in sorted(PROGRAMS_DIR.glob("*.remora")):
                t = parse_term(path.read_text(), str(path))
                print_term(t)
                print_term(t, annotations=True, canonical=True)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_empty_frame_prints_annotation(self):
        from remora.check import EMPTY_ENV, elaborate
        from remora.prims import SIGNATURE

        t, _ = elaborate(EMPTY_ENV, SIGNATURE, parse_term("(empty-frame (Arr Num (Shp 3)) (0))"))
        assert print_term(t) == "(frame (0) : (Arr Num (Shp 0 3)))"
        assert parse_term(print_term(t)) == t

    def test_type_round_trip(self):
        src = "(Pi ((n Dim)) (-> ((Arr Num (Shp n))) (Arr Num (Shp))))"
        assert print_type(parse_type(src)) == src


class TestFreshen:
    def test_single_binder(self):
        t = parse_term("(array () (lam ((x (Arr Num (Shp)))) x))")
        f = freshen(t)
        lam = f.atoms[0]
        name = lam.params[0][0]
        assert name == "x#1"
        assert lam.body == Var("x#1", annot=None)

    def test_shadowing_eliminated(self):
        t = parse_term(
            "(array () (ilam ((n Dim)) (frame () (array () (ilam ((n Dim)) "
            "(array () (lam ((x (Arr Num (Shp n)))) x)))))))"
        )
        f = freshen(t)
        outer = f.atoms[0]
        inner = outer.body.cells[0].atoms[0]
        assert outer.binders[0][0] != inner.binders[0][0]

    def test_free_vars_untouched(self):
        t = parse_term("(array () (lam ((x (Arr Num (Shp)))) y))")
        f = freshen(t)
        assert free_vars(f, TM) == {"y"}

    def test_idempotent(self):
        for src in TestRoundTrip.CASES:
            t = parse_term(src)
            once = freshen(t)
            assert freshen(once) == once

    def test_alpha_equivalent_to_input(self):
        for src in TestRoundTrip.CASES:
            t = parse_term(src)
            assert alpha_equal(freshen(t), t)

    def test_generated_corpus_alpha_stable(self):
        for prog in generate_programs(60, seed=9):
            assert alpha_equal(freshen(prog), prog)
            assert freshen(freshen(prog)) == freshen(prog)

    def test_no_capture_under_substitution(self):
        # (lam ((y T)) x)[x := y-free-var]: fresh binder must not capture
        t = Lam((("y", scalar_of(NUM)),), Var("x"))
        payload = Var("y")
        direct = subst_term(t, {"x": payload})
        assert isinstance(direct, Lam)
        assert direct.params[0][0] != "y"
        assert direct.body == Var("y")

    def test_substituting_after_freshen_matches_direct(self):
        rng = random.Random(11)
        for prog in generate_programs(40, seed=13):
            fvs = sorted(free_vars(prog, TM))
            target = rng.choice(fvs) if fvs else "zz"
            payload = ArrayLit((), (num(7),))
            a = subst_term(freshen(prog), {target: payload})
            b = subst_term(prog, {target: payload})
            assert alpha_equal(a, b)

    def test_numbering_follows_binder_order(self):
        # a lam parameter's type lies outside the lam's scope and is renamed
        # before the next parameter
        t = parse_term(
            "(array () (lam ((f (Arr (Forall ((a Atom)) (Arr a (Shp))) (Shp))) "
            "(g (Arr Num (Shp)))) f))"
        )
        lam = freshen(t).atoms[0]
        assert [x for x, _ in lam.params] == ["f#1", "g#3"]
        assert lam.params[0][1].elem.binders[0][0] == "a#2"

    def test_shares_what_it_does_not_rename(self):
        t = parse_term("((array () +) (frame (2) (array () 1) (array () 2)) y)")
        assert freshen(t) is t
        t = parse_term("(array () (lam ((x (Arr Num (Shp)))) ((array () +) x (frame (1) (array () 3)))))")
        body = freshen(t).atoms[0].body
        assert body.fn is t.atoms[0].body.fn and body.args[1] is t.atoms[0].body.args[1]
        assert body.args[0] == Var("x#1")


# ---------------------------------------------------------------------------
# Capture avoidance at every binder site, for every substitution namespace
# whose payload can be captured there. Each payload's free variable has the
# name of the binder, which must be renamed so that the variable stays free.

SUBST = {
    ("idx", "term"): subst_idx_in_term,
    ("idx", "type"): subst_idx_in_type,
    ("ty", "term"): subst_ty_in_term,
    ("ty", "type"): subst_ty_in_type,
    ("tm", "term"): subst_term,
}
NAMESPACE = {"idx": IDX, "ty": TY, "tm": TM}
PARSE = {"idx": parse_index, "ty": parse_type, "tm": parse_term, "term": parse_term, "type": parse_type}

# (site, substituted namespace, term or type, source, key, payload, expected,
# namespace of the binder and of the payload's free variable, its name)
CAPTURE = [
    ("lam", "tm", "term", "(array () (lam ((y (Arr Num (Shp)))) (x y)))", "x", "y",
     "(array () (lam ((z (Arr Num (Shp)))) (y z)))", "tm", "y"),
    ("tlam", "ty", "term", "(array () (tlam ((b Atom)) (t-app f a b)))", "a", "b",
     "(array () (tlam ((c Atom)) (t-app f b c)))", "ty", "b"),
    ("tlam", "tm", "term", "(array () (tlam ((b Atom)) (x (t-app g b))))", "x", "(t-app h b)",
     "(array () (tlam ((c Atom)) ((t-app h b) (t-app g c))))", "ty", "b"),
    ("ilam", "idx", "term", "(array () (ilam ((m Dim)) (i-app f n m)))", "n", "m",
     "(array () (ilam ((k Dim)) (i-app f m k)))", "idx", "m"),
    ("ilam", "ty", "term", "(array () (ilam ((m Dim)) (t-app f a (Arr Num (Shp m)))))", "a",
     "(Arr Num (Shp m))", "(array () (ilam ((k Dim)) (t-app f (Arr Num (Shp m)) (Arr Num (Shp k)))))",
     "idx", "m"),
    ("ilam", "tm", "term", "(array () (ilam ((m Dim)) (x (i-app g m))))", "x", "(i-app h m)",
     "(array () (ilam ((k Dim)) ((i-app h m) (i-app g k))))", "idx", "m"),
    ("forall", "ty", "type", "(Forall ((b Atom)) (-> ((Arr a (Shp))) (Arr b (Shp))))", "a", "b",
     "(Forall ((c Atom)) (-> ((Arr b (Shp))) (Arr c (Shp))))", "ty", "b"),
    ("pi", "idx", "type", "(Pi ((m Dim)) (Arr Num (Shp n m)))", "n", "m",
     "(Pi ((k Dim)) (Arr Num (Shp m k)))", "idx", "m"),
    ("pi", "ty", "type", "(Pi ((m Dim)) (Arr a (Shp m)))", "a", "(-> ((Arr Num (Shp m))) (Arr Num (Shp)))",
     "(Pi ((k Dim)) (Arr (-> ((Arr Num (Shp m))) (Arr Num (Shp))) (Shp k)))", "idx", "m"),
    ("sigma", "idx", "type", "(Sigma ((m Dim)) (Arr Num (Shp n m)))", "n", "m",
     "(Sigma ((k Dim)) (Arr Num (Shp m k)))", "idx", "m"),
    ("sigma", "ty", "type", "(Sigma ((m Dim)) (Arr a (Shp m)))", "a", "(-> ((Arr Num (Shp m))) (Arr Num (Shp)))",
     "(Sigma ((k Dim)) (Arr (-> ((Arr Num (Shp m))) (Arr Num (Shp))) (Shp k)))", "idx", "m"),
    ("unbox-index", "idx", "term", "(unbox (m v e) (i-app f n m))", "n", "m",
     "(unbox (k v e) (i-app f m k))", "idx", "m"),
    ("unbox-index", "ty", "term", "(unbox (m v e) (t-app f a (Arr Num (Shp m))))", "a", "(Arr Num (Shp m))",
     "(unbox (k v e) (t-app f (Arr Num (Shp m)) (Arr Num (Shp k))))", "idx", "m"),
    ("unbox-index", "tm", "term", "(unbox (m v e) (x (i-app g m)))", "x", "(i-app h m)",
     "(unbox (k v e) ((i-app h m) (i-app g k)))", "idx", "m"),
    ("unbox-value", "tm", "term", "(unbox (m v e) (x v))", "x", "v", "(unbox (m w e) (v w))", "tm", "v"),
]

# (site, namespace, term or type, source, the binder's own name, payload)
SHADOW = [
    ("lam", "tm", "term", "(array () (lam ((y (Arr Num (Shp)))) (x y)))", "y", "z"),
    ("tlam", "ty", "term", "(array () (tlam ((b Atom)) (t-app f a b)))", "b", "Num"),
    ("ilam", "idx", "term", "(array () (ilam ((m Dim)) (i-app f n m)))", "m", "3"),
    ("forall", "ty", "type", "(Forall ((b Atom)) (Arr b (Shp)))", "b", "Num"),
    ("pi", "idx", "type", "(Pi ((m Dim)) (Arr Num (Shp m)))", "m", "3"),
    ("sigma", "idx", "type", "(Sigma ((m Dim)) (Arr Num (Shp m)))", "m", "3"),
    ("unbox-index", "idx", "term", "(unbox (m v e) (i-app f n m))", "m", "3"),
    ("unbox-value", "tm", "term", "(unbox (m v e) (x v))", "v", "z"),
]


def _comparable(t, kind):
    # alpha_equal compares terms; a type is compared inside an empty array
    return EmptyArray(t, (0,)) if kind == "type" else t


def _lams(*args: str) -> str:
    """A lam of one `Num` parameter for each name in `args` but the last,
    nested in that order around the last, the body."""
    *params, body = args
    for x in reversed(params):
        body = f"(array () (lam (({x} Num)) {body}))"
    return body


class TestTypedAlpha:
    """`alpha_equal` on typed terms against `reference_alpha_equal`, the
    pairwise comparison it replaced, as `TestErasedAlpha` does on erased
    terms."""

    PAIRS = [
        # shadowing, then a third binder
        (_lams("x", "x", "y", "(x y)"), _lams("x", "x", "y", "(y y)"), False),
        (_lams("x", "x", "y", "(x y)"), _lams("a", "b", "c", "(b c)"), True),
        # binder order
        ("(array () (ilam ((a Dim) (b Dim)) (i-app f a b)))", "(array () (ilam ((c Dim) (d Dim)) (i-app f c d)))", True),
        ("(array () (ilam ((a Dim) (b Dim)) (i-app f a b)))", "(array () (ilam ((b Dim) (a Dim)) (i-app f a b)))", False),
        ("(unbox (a b v bx) (i-app f a b))", "(unbox (b a v bx) (i-app f a b))", False),
        ("(unbox (a b v bx) (i-app f a b))", "(unbox (p q w bx) (i-app f p q))", True),
        # a type variable and a term variable with the same name
        ("(array () (tlam ((x Atom)) (array () (lam ((x (Arr x (Shp)))) x))))",
         "(array () (tlam ((t Atom)) (array () (lam ((y (Arr t (Shp)))) y))))", True),
        ("(array () (tlam ((x Atom)) (array () (lam ((y (Arr x (Shp)))) x))))",
         "(array () (tlam ((x Atom)) (array () (lam ((y (Arr x (Shp)))) y))))", False),
        # a lam parameter's type refers to an outer binder
        ("(array () (ilam ((n Dim)) (array () (lam ((x (Arr Num (Shp n)))) x))))",
         "(array () (ilam ((m Dim)) (array () (lam ((x (Arr Num (Shp m)))) x))))", True),
        ("(array () (ilam ((n Dim)) (array () (lam ((x (Arr Num (Shp n)))) x))))",
         "(array () (ilam ((m Dim)) (array () (lam ((x (Arr Num (Shp n)))) x))))", False),
    ]

    @pytest.mark.parametrize("a, b, expected", PAIRS)
    def test_binders_by_position(self, a, b, expected):
        a, b = parse_term(a), parse_term(b)
        assert reference_alpha_equal(a, b) == expected
        assert alpha_equal(a, b) == expected

    def test_annotations_compared(self):
        t = check_src("((array () +) (array () 1) (array () 2))")[0]
        other = scalar_of(syntax.BOOL)
        for a, b in [(t, replace(t, annot=other)), (t, replace(t, annot=None)),
                     (t, replace(t, args=(replace(t.args[0], annot=other),) + t.args[1:]))]:
            assert not reference_alpha_equal(a, b) and not alpha_equal(a, b)
        assert alpha_equal(t, replace(t, annot=replace(t.annot)))

    @pytest.mark.parametrize("group", ORACLE_GROUPS)
    def test_agrees_with_reference_on_machine_states(self, group):
        rng = random.Random(17)
        verdicts = set()
        for term in oracle_programs(group):
            states = [term] + [s for _, s in evaluate(term, trace=True).trace]
            for s in states[:: max(1, len(states) // 3)]:
                fresh = freshen(s)
                assert alpha_equal(fresh, s) and reference_alpha_equal(fresh, s)
                for mutation in rng.sample(TYPED_MUTATIONS, len(TYPED_MUTATIONS)):
                    sites = [(path, m) for path, x in typed_sites(fresh) if (m := mutation(x)) is not None]
                    if sites:
                        other = rewrite_at(fresh, *rng.choice(sites))
                        verdicts.add(verdict := reference_alpha_equal(s, other))
                        assert alpha_equal(s, other) == verdict
                        break
        assert False in verdicts and (True in verdicts or group != "batch")

    def test_depth(self):
        def nest(atom):
            t = ArrayLit((), (atom,))
            for _ in range(10_000):
                t = Frame((), (t,))
            return t

        assert alpha_equal(nest(num(7)), nest(num(7)))
        assert not alpha_equal(nest(num(7)), nest(num(8)))


# Words a random s-expression is built from: every keyword, `:`, type, kind
# and sort names, numbers and names. A list ends in `: <s-expression>` half
# the time, as an annotated form does.
_WORDS = sorted(remora.parser.KEYWORDS) + [
    ":", "Num", "Bool", "Arr", "Shp", "->", "Forall", "Pi", "Sigma", "++", "+",
    "Atom", "Array", "Dim", "Shape", "0", "1", "2", "x", "head", "²", "٣",
]
_SEXPRS = st.recursive(
    st.sampled_from(_WORDS),
    lambda kids: st.tuples(st.lists(kids, max_size=5), st.one_of(st.none(), kids)).map(
        lambda p: "(" + " ".join(p[0] + ([] if p[1] is None else [":", p[1]])) + ")"
    ),
    max_leaves=25,
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_SEXPRS)
def test_reader_and_checker_reject_with_their_own_errors(src):
    """Any s-expression either elaborates or raises `ParseError` or
    `TypeCheckError`: never another exception."""
    try:
        elaborate(EMPTY_ENV, SIGNATURE, parse_term(src))
    except (ParseError, TypeCheckError):
        pass


# What may stand between two tokens: blanks that count one column each,
# newlines, a comment, and a `#\` literal whose character is a raw newline.
_GAPS = [" ", "\t", "\r", "\n", "\r\n", "  ; note\n", " #\\\n "]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_SEXPRS, st.randoms(use_true_random=False))
def test_reader_locations_match_reference(src, rng):
    """On the fuzz strings, and on each with its blanks replaced by other
    gaps, every location the reader gives is the reference reader's."""
    assert_locations_match_reference(src)
    assert_locations_match_reference("".join(rng.choice(_GAPS) if c == " " else c for c in src))


class TestCaptureAvoidance:
    @pytest.mark.parametrize(
        "site,ns,kind,src,key,payload,expected,binder_ns,name",
        CAPTURE,
        ids=[f"{c[0]}-{c[1]}" for c in CAPTURE],
    )
    def test_binder_renamed(self, site, ns, kind, src, key, payload, expected, binder_ns, name):
        t = PARSE[kind](src)
        got = SUBST[ns, kind](t, {key: PARSE[ns](payload)})
        assert name in free_vars(got, NAMESPACE[binder_ns])
        assert alpha_equal(_comparable(got, kind), _comparable(PARSE[kind](expected), kind))

    @pytest.mark.parametrize(
        "site,ns,kind,src,key,payload", SHADOW, ids=[f"{c[0]}-{c[1]}" for c in SHADOW]
    )
    def test_shadowed_key_leaves_scope(self, site, ns, kind, src, key, payload):
        t = PARSE[kind](src)
        assert SUBST[ns, kind](t, {key: PARSE[ns](payload)}) == t

    def test_renamed_occurrence_keeps_annotation_and_location(self):
        scalar = scalar_of(NUM)
        env = EMPTY_ENV.with_types([("x", scalar), ("y", scalar)])
        src = "(array () (lam ((y (Arr Num (Shp)))) ((array () +) x y)))"
        t, _ = elaborate(env, SIGNATURE, parse_term(src, "f.remora"))
        before = t.atoms[0].body.args[1]
        got = subst_term(t, {"x": Var("y", annot=scalar)})
        lam = got.atoms[0]
        after = lam.body.args[1]
        assert after.name == lam.params[0][0] != "y"
        assert after.annot == before.annot == scalar
        assert after.loc == before.loc is not None
        assert print_term(got, annotations=True).count(" : ") == print_term(t, annotations=True).count(" : ")


# ---------------------------------------------------------------------------
# The binding schema covers every syntax class and field, typed and erased,
# with the role each field's declared type implies, so that a class or field
# added later cannot fall out of substitution or alpha-equality.

SYNTAX_CLASSES = sorted(
    {c for u in (syntax.IndexExpr, syntax.TypeExpr, syntax.Term, syntax.ETerm) for c in typing.get_args(u)},
    key=lambda c: c.__name__,
)


def _implied_roles(cls, field: str, declared: str) -> list:
    n = names
    children = {
        "IndexExpr": (n.IDX, n.ONE),
        "tuple[IndexExpr, ...]": (n.IDX, n.MANY),
        "TypeExpr": (n.TY, n.ONE),
        "tuple[TypeExpr, ...]": (n.TY, n.MANY),
        "Optional[TypeExpr]": (n.TY, n.OPT),
        "ExprTerm": (n.TM, n.ONE),
        "tuple[ExprTerm, ...]": (n.TM, n.MANY),
        "tuple[AtomTerm, ...]": (n.TM, n.MANY),
        "EExpr": (n.TM, n.ONE),
        "tuple[EExpr, ...]": (n.TM, n.MANY),
        "tuple[EAtom, ...]": (n.TM, n.MANY),
    }
    tags = {"Tag": n.TAG, "tuple[Tag, ...]": n.TAGS}
    binders = {
        "tuple[tuple[str, Kind], ...]": n.Binder(n.TY, n.PAIRS),
        "tuple[tuple[str, Sort], ...]": n.Binder(n.IDX, n.PAIRS),
        "tuple[tuple[str, TypeExpr], ...]": n.Binder(n.TM, n.TYPED),
    }
    # bare names bound; their field types do not say in which namespace
    bare = {
        (syntax.Unbox, "idx_vars"): n.Binder(n.IDX, n.NAMES),
        (syntax.Unbox, "val_var"): n.Binder(n.TM, n.NAME),
        (syntax.EUnbox, "idx_vars"): n.Binder(n.IDX, n.NAMES),
        (syntax.EUnbox, "val_var"): n.Binder(n.TM, n.NAME),
        (syntax.ELam, "params"): n.Binder(n.TM, n.NAMES),
        (syntax.EILam, "params"): n.Binder(n.IDX, n.NAMES),
    }
    if (cls, field) in bare:
        return [bare[cls, field]]
    if declared in tags:
        return [tags[declared]]
    if declared in binders:
        return [binders[declared]]
    if declared in children:
        cat, shape = children[declared]
        return [n.Child(cat, shape)] + ([n.Scope(cat)] if shape == n.ONE else [])
    return [n.DATA]


class TestSchema:
    def test_every_syntax_class_has_an_entry(self):
        defined = {
            c
            for c in vars(syntax).values()
            if isinstance(c, type) and issubclass(c, syntax.Node) and c.__module__ == syntax.__name__
        }
        assert set(SYNTAX_CLASSES) == defined - {syntax.Node, syntax.SourceLocation}
        assert set(names.SCHEMA) == set(SYNTAX_CLASSES)

    @pytest.mark.parametrize("cls", SYNTAX_CLASSES, ids=lambda c: c.__name__)
    def test_every_field_classified_once_by_its_type(self, cls):
        roles = names.SCHEMA[cls]
        declared = cls.__annotations__  # as written in syntax.py
        assert set(roles) == set(declared) - {"loc"}
        for f, role in roles.items():
            implied = _implied_roles(cls, f, declared[f])
            assert (type(role), role) in [(type(r), r) for r in implied], (cls.__name__, f)
        scopes = [r for r in roles.values() if isinstance(r, names.Scope)]
        binders = [r for r in roles.values() if isinstance(r, names.Binder)]
        assert len(scopes) == (1 if binders else 0)


# ---------------------------------------------------------------------------
# The contract of every node class: immutable, slotted, equal and hashed as a
# frozen dataclass with `loc` left out of comparison, and copyable.

_KEYWORD = ("annot", "loc")


def _sample(cls, tag: str = "", **kw):
    """An instance of cls whose fields hold distinct plain values."""
    args = [(f, tag) for f in cls._fields if f not in _KEYWORD]
    if "annot" in cls._fields:
        kw.setdefault("annot", NUM)
    if "loc" in cls._fields:
        kw.setdefault("loc", syntax.SourceLocation("f.remora", 1, 2))
    return cls(*args, **kw)


def _key(node) -> tuple:
    return tuple(getattr(node, f) for f in node._fields if f != "loc")


@pytest.mark.parametrize("cls", list(names.SCHEMA), ids=lambda c: c.__name__)
class TestNodeContract:
    def test_assignment_and_deletion_raise(self, cls):
        node = _sample(cls)
        for f in node._fields + ("other",):
            with pytest.raises(AttributeError):
                setattr(node, f, 1)
            with pytest.raises(AttributeError):
                delattr(node, f)
        assert _key(node) == _key(_sample(cls))

    def test_no_instance_dict(self, cls):
        assert not hasattr(_sample(cls), "__dict__")

    def test_equality_and_hash_ignore_loc_only(self, cls):
        a, b = _sample(cls), _sample(cls)
        assert a == b and hash(a) == hash(b) and a is not b
        assert a != _sample(cls, "other")
        if "loc" in cls._fields:
            moved = _sample(cls, loc=syntax.SourceLocation("g.remora", 3, 4))
            assert moved == a and hash(moved) == hash(a)
        if "annot" in cls._fields:
            assert _sample(cls, annot=syntax.BOOL) != a

    def test_hash_is_that_of_the_compared_fields(self, cls):
        node = _sample(cls)
        assert hash(node) == hash(_key(node))

    def test_repr_in_dataclass_format(self, cls):
        node = _sample(cls)
        fields = ", ".join(f"{f}={getattr(node, f)!r}" for f in cls._fields)
        assert repr(node) == f"{cls.__name__}({fields})"

    def test_deepcopy_and_pickle_round_trip(self, cls):
        node = _sample(cls)
        for copied in (copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert type(copied) is cls and copied is not node
            assert [getattr(copied, f) for f in cls._fields] == [getattr(node, f) for f in cls._fields]

    def test_replace_changes_known_fields_and_rejects_others(self, cls):
        node = _sample(cls)
        first = cls._fields[0]
        changed = replace(node, **{first: "new"})
        assert getattr(changed, first) == "new"
        assert all(getattr(changed, f) is getattr(node, f) for f in cls._fields[1:])
        with pytest.raises(TypeError):
            replace(node, no_such_field=1)

    def test_constructor_checks_its_arguments(self, cls):
        positional = [f for f in cls._fields if f not in _KEYWORD]
        with pytest.raises(TypeError):
            cls(*positional, "extra")
        missing = [kw for kw in _KEYWORD if kw not in cls._fields]
        for kw in missing:
            with pytest.raises(TypeError):
                cls(*positional, **{kw: NUM})


# Every class whose metaclass is `node`, in every module that declares one.
NODE_CLASSES = sorted(syntax.Node.__subclasses__(), key=lambda c: (c.__module__, c.__name__))


def test_node_classes_include_those_outside_the_schema():
    named = {c.__name__ for c in NODE_CLASSES}
    assert {"Stuck", "SourceLocation", "SAtom", "SList", "Env", "CanonicalShape"} <= named
    assert set(names.SCHEMA) < set(NODE_CLASSES)


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: f"{c.__module__}.{c.__name__}")
def test_one_field_copy(cls):
    """`replace` of one field, which goes through `copier`: the same class,
    the new value in that field and every other field the same object; an
    unknown field raises; the copy still round-trips through copy and
    pickle."""
    node = _sample(cls)
    before = [getattr(node, f) for f in cls._fields]
    for f in cls._fields:
        new = ("new", f)
        changed = replace(node, **{f: new})
        assert type(changed) is cls and getattr(changed, f) is new
        assert all(getattr(changed, g) is getattr(node, g) for g in cls._fields if g != f)
        assert copier(cls, f) is copier(cls, f)
        values = [getattr(changed, g) for g in cls._fields]
        for copied in (copy.copy(changed), copy.deepcopy(changed), pickle.loads(pickle.dumps(changed))):
            assert type(copied) is cls and [getattr(copied, g) for g in cls._fields] == values
    assert all(a is getattr(node, f) for a, f in zip(before, cls._fields))
    with pytest.raises(TypeError):
        replace(node, no_such_field=1)
    with pytest.raises(TypeError):
        copier(cls, "no_such_field")


def test_repr_matches_the_former_dataclass_output():
    t = App(Var("f", loc=syntax.SourceLocation("a.remora", 1, 2)), (ArrayLit((), (num(1),)),), annot=NUM)
    assert repr(t) == (
        "App(fn=Var(name='f', annot=None, loc=SourceLocation(file='a.remora', line=1, column=2)),"
        " args=(ArrayLit(dims=(), atoms=(BaseVal(base='Num', value=1.0, annot=None, loc=None),),"
        " annot=None, loc=None),), annot=BaseType(name='Num', loc=None), loc=None)"
    )
