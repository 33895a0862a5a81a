"""The printer: byte for byte what the hand-written reference ladders
(`tests/util.py`) print, on the corpus and the criterion-5 batch, their types,
erasures and final states, the traced states of the oracle groups, and random
indices and types; annotated printing as a fixpoint of parse and elaborate;
terms of any depth."""

import functools
import random

import pytest

from remora.check import EMPTY_ENV, elaborate
from remora.erase import erase_term, erased_evaluate
from remora.eval import evaluate
from remora.gen import GenConfig, generate_programs
from remora.parser import parse_term
from remora.printer import print_erased, print_index, print_term, print_type
from remora.prims import SIGNATURE
from remora.syntax import SCALAR_SHAPE, ArrayLit, EArray, EBase, EFrame, Frame, num

from .util import (
    ORACLE_GROUPS,
    PROGRAMS_DIR,
    oracle_programs,
    random_dim,
    random_shape,
    random_type,
    reference_print_erased,
    reference_print_index,
    reference_print_term,
    reference_print_type,
)

FLAGS = [(a, c) for a in (False, True) for c in (False, True)]


@functools.lru_cache(maxsize=None)
def programs(group: str) -> tuple:
    """(parsed, elaborated, type) of every `programs/` file, or of criterion
    5's batch (500 programs, seed 2024)."""
    if group == "corpus":
        sources = [parse_term(p.read_text(encoding="utf-8"), str(p)) for p in sorted(PROGRAMS_DIR.glob("*.remora"))]
    else:
        sources = generate_programs(500, seed=2024, config=GenConfig(stuck_rate=0.05))
    return tuple((p, *elaborate(EMPTY_ENV, SIGNATURE, p)) for p in sources)


@pytest.mark.parametrize("group", ["corpus", "batch"])
class TestMatchesReference:
    def test_terms(self, group):
        for parsed, typed, _ in programs(group):
            for t in (parsed, typed):
                for a, c in FLAGS:
                    assert print_term(t, a, c) == reference_print_term(t, a, c)

    def test_types(self, group):
        for _, _, ty in programs(group):
            for c in (False, True):
                assert print_type(ty, c) == reference_print_type(ty, c)

    def test_erasures_and_final_states(self, group):
        for _, typed, _ in programs(group):
            e = erase_term(typed)
            assert print_erased(e) == reference_print_erased(e)
            final = erased_evaluate(e).term
            assert print_erased(final) == reference_print_erased(final)


@pytest.mark.parametrize("group", ORACLE_GROUPS)
def test_traced_states_match_reference(group):
    # Every typed state as `eval --trace` prints it; every eighth also with its
    # annotations, canonically (the reference takes 1.2 ms per batch state so),
    # and every fourth erased state.
    for t in oracle_programs(group):
        for k, (_, state) in enumerate(evaluate(t, trace=True).trace):
            assert print_term(state) == reference_print_term(state)
            if k % 8 == 0:
                assert print_term(state, True, True) == reference_print_term(state, True, True)
        for _, state in erased_evaluate(erase_term(t), trace=True).trace[::4]:
            assert print_erased(state) == reference_print_erased(state)


def test_random_indices_and_types_match_reference():
    # Among them `(+ )` and `(++ )`, which keep the space after their head word.
    rng = random.Random(18)
    for _ in range(300):
        for i in (random_dim(rng), random_shape(rng)):
            for c in (False, True):
                assert print_index(i, c) == reference_print_index(i, c)
        t = random_type(rng, idx_env={"dims": ("n",), "shapes": ()})
        for c in (False, True):
            assert print_type(t, c) == reference_print_type(t, c)


@pytest.mark.parametrize("group", ["corpus", "batch"])
def test_annotated_printing_is_a_fixpoint(group):
    """Printed with its annotations, an elaborated program parses and
    elaborates, every annotation checked, to the same type and text."""
    for _, typed, ty in programs(group)[:200]:
        text = print_term(typed, annotations=True)
        again, ty2 = elaborate(EMPTY_ENV, SIGNATURE, parse_term(text))
        assert print_type(ty2) == print_type(ty)
        assert print_term(again, annotations=True) == text


def test_prints_any_depth():
    n = 100_000
    t, e = ArrayLit((), (num(7),)), EArray((), (EBase("Num", 7.0),))
    for _ in range(n):
        t, e = Frame((), (t,)), EFrame(SCALAR_SHAPE, (e,))
    assert print_term(t) == "(frame () " * n + "(array () 7)" + ")" * n
    assert print_erased(e) == "(frame (Shp) " * n + "(array () 7)" + ")" * n
