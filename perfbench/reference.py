"""A fixed Python computation that measures how fast the machine is right now.

`run()` reduces a few let/+ terms to numbers by small steps, with
substitution, and prints every state: the kind of work remora does (frozen
dataclasses, isinstance dispatch, recursion, string building), in code that
shares nothing with remora. Its inputs are made once, at import, from fixed
seeds, so every call does the same work; how long a call takes depends only on
the machine. run.py times it around and during operations (see `Pacer` there).
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Num:
    v: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Add:
    a: object
    b: object


@dataclass(frozen=True)
class Let:
    name: str
    bound: object
    body: object


def build(rng: random.Random, depth: int, scope: tuple[str, ...]):
    r = rng.random()
    if depth == 0 or r < 0.2:
        if scope and rng.random() < 0.5:
            return Var(rng.choice(scope))
        return Num(rng.randrange(100))
    if r < 0.6:
        return Add(build(rng, depth - 1, scope), build(rng, depth - 1, scope))
    name = f"x{depth}"
    return Let(name, build(rng, depth - 1, scope), build(rng, depth - 1, scope + (name,)))


def subst(t, name: str, value):
    if isinstance(t, Var):
        return value if t.name == name else t
    if isinstance(t, Add):
        return Add(subst(t.a, name, value), subst(t.b, name, value))
    if isinstance(t, Let):
        body = t.body if t.name == name else subst(t.body, name, value)
        return Let(t.name, subst(t.bound, name, value), body)
    return t


def step(t):
    if isinstance(t, Add):
        if isinstance(t.a, Num) and isinstance(t.b, Num):
            return Num((t.a.v + t.b.v) % 1000)
        if not isinstance(t.a, Num):
            return Add(step(t.a), t.b)
        return Add(t.a, step(t.b))
    if isinstance(t, Let):
        if isinstance(t.bound, Num):
            return subst(t.body, t.name, t.bound)
        return Let(t.name, step(t.bound), t.body)
    raise ValueError(f"no step from {t!r}")


def show(t) -> str:
    if isinstance(t, Num):
        return str(t.v)
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Add):
        return f"(+ {show(t.a)} {show(t.b)})"
    return f"(let ({t.name} {show(t.bound)}) {show(t.body)})"


TERMS = tuple(build(random.Random(seed), 7, ()) for seed in range(4))


def run() -> int:
    """Reduce every term in TERMS to a number; return a checksum of the states."""
    check = 0
    for t in TERMS:
        while not isinstance(t, Num):
            t = step(t)
            check += len(show(t))
    return check
