"""One printer for indices, types, typed terms and erased terms, inverse to
the parser.

A form prints as `(head piece ...)`: its head word (`syntax.HEADS`), then its
fields in order, as the roles that `syntax.node` records in `_roles` say. A
child is one piece, and a tuple of children one piece each; dimensions and
binder lists are one parenthesized piece each. The `annot` of a typed form,
and the result shape that ends an erased form, print last as ` : type`.
Leaves (names, numbers, literals) are spelled alone and never annotated. What
the roles cannot say is written out in `_layout`: an application has no head
word; `->` parenthesizes its inputs; `unbox` groups its binders with the box;
an erased application prints each argument with its cell shape, as
`(arg : shape)`; and `(+ )` and `(++ )` keep the space after the head word.

A typed form prints its annotation when asked, and an empty `array` or
`frame` always (its element type cannot be read back otherwise). With
`canonical`, each index whose parent is not an index prints in the normal
form `normalize_index` gives it. print_term(parse_term(s)) round-trips
structurally for annotation-free terms. One loop over an explicit stack
prints every form, so a term of any depth prints.
"""

from __future__ import annotations

from operator import attrgetter
from typing import get_args

from . import syntax as S
from .indices import normalize_index
from .syntax import DATA, HEADS, IDX, PAIRS, TAG, TYPED, Child, Scope

_CHAR_SPELLINGS = {c: name for name, c in S.CHAR_NAMES.items()}


def _print_base(base: str, v) -> str:
    """A Num, Bool or Char literal, spelled as the reader reads it."""
    if base == "Num":
        if v != v:  # NaN
            return "nan"
        if v in (float("inf"), float("-inf")):
            return "inf" if v > 0 else "-inf"
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if base == "Bool":
        return "#t" if v else "#f"
    return "#\\" + _CHAR_SPELLINGS.get(v, v)


# What a layout step does with its field's value.
_ONE, _MANY, _TEXT, _TYPED, _UNBOX, _SHAPED = range(6)


def _spell_pairs(binders) -> str:
    return "(" + " ".join(f"({x} {b.value})" for x, b in binders) + ")"


def _spell_names(names) -> str:
    return "(" + " ".join(names) + ")"


def _spell_dims(dims) -> str:
    return "(" + " ".join(map(str, dims)) + ")"


def _leaf(cls):
    """How a leaf (a class with data fields only) is spelled, or None."""
    data = [f for f, role in cls._roles.items() if f != "annot"]
    if any(cls._roles[f] != DATA for f in data):
        return None
    if data == ["base", "value"]:
        return lambda n: _print_base(n.base, n.value)
    if data == ["value"]:
        return lambda n: str(n.value)
    return attrgetter("name")


def _layout(cls) -> tuple:
    """(opening text, steps, annot) of a form. Each step is (what, getter,
    text before it, arg): arg is, for children, whether they are index roots;
    for data, its spelling."""
    roles = [(f, r) for f, r in cls._roles.items() if f != "annot"]
    index = all(isinstance(r, Child) and r.cat == IDX for _, r in roles)
    text, lead, steps = "(" + HEADS.get(cls, ""), " " if cls in HEADS else "", []
    if cls in (S.Plus, S.IdxAppend):
        text, lead = text + " ", ""
    fields = iter(roles)
    for f, role in fields:
        get, after = attrgetter(f), " "
        if cls is S.FunType and f == "inputs":  # `(-> (in ...) out)`
            text, after = text + " (", ") "
            steps.append((_MANY, get, "", False))
        elif cls is S.EApp and f == "args":  # `(f (arg : shape) ... : out)`
            next(fields)
            steps.append((_SHAPED, attrgetter(f, "arg_shapes"), "", None))
        elif cls in (S.Unbox, S.EUnbox) and f == "idx_vars":  # `(unbox (i ... v box) body)`
            (g, _), (b, _) = next(fields), next(fields)
            steps.append((_UNBOX, attrgetter(f, g, b), lead, None))
        elif isinstance(role, (Child, Scope)):
            last = role == TAG and f == roles[-1][0]  # an erased form's result shape
            many = isinstance(role, Child) and role.shape == S.MANY
            steps.append((_MANY if many else _ONE, get, " : " if last else lead, role.cat == IDX and not index))
        elif role == DATA:
            steps.append((_TEXT, get, lead, _spell_dims))
        elif role.form == TYPED:
            steps.append((_TYPED, get, lead, None))
        else:
            steps.append((_TEXT, get, lead, _spell_pairs if role.form == PAIRS else _spell_names))
        lead = after
    # Whether the form has an annotation; for `array` and `frame`, the getter
    # of the children without which it is printed (the element type of an
    # empty literal cannot be read back otherwise).
    annot = "annot" in cls._roles and (cls not in (S.ArrayLit, S.Frame) or attrgetter(roles[-1][0]))
    return text, tuple(steps), annot


_CLASSES = [cls for u in (S.IndexExpr, S.TypeExpr, S.Term, S.ETerm) for cls in get_args(u)]
_LEAVES = {cls: spell for cls in _CLASSES if (spell := _leaf(cls)) is not None}
_LAYOUTS = {cls: _layout(cls) for cls in _CLASSES if cls not in _LEAVES}


def _print(t, annotations: bool = False, canonical: bool = False) -> str:
    leaves, layouts = _LEAVES, _LAYOUTS
    out = []
    todo = [t]  # strings and nodes still to print, the next one last
    while todo:
        x = todo.pop()
        cls = x.__class__
        if cls is str:
            out.append(x)
            continue
        spell = leaves.get(cls)
        if spell is not None:
            out.append(spell(x))
            continue
        text, steps, annot = layouts[cls]
        rest = []  # text, a node, the text after it, and so on
        for what, get, lead, arg in steps:
            v = get(x)
            if what <= _MANY:  # one child or a tuple of them; a leaf is spelled here
                for c in (v,) if what is _ONE else v:
                    spell = leaves.get(c.__class__)
                    if spell is not None:
                        text += lead + spell(c)
                    else:
                        rest += (text + lead, normalize_index(c) if arg and canonical else c)
                        text = ""
                    lead = " "
            elif what is _TEXT:
                text += lead + arg(v)
            elif what is _TYPED:
                text += lead + "("
                for i, (name, ty) in enumerate(v):
                    rest += (f"{text} ({name} " if i else f"{text}({name} ", ty)
                    text = ")"
                text += ")"
            elif what is _UNBOX:
                names, var, box = v
                rest += (f"{text}{lead}(" + " ".join((*names, var)) + " ", box)
                text = ")"
            else:  # _SHAPED
                for a, s in zip(*v):
                    rest += (text + " (", a, " : ", s)
                    text = ")"
        if annot:
            a = x.annot
            if a is not None and (annotations or (annot is not True and not annot(x))):
                rest += (text + " : ", a)
                text = ""
        if rest:
            rest.append(text + ")")
            out.append(rest[0])
            todo += rest[:0:-1]
        else:
            out.append(text + ")")
    return "".join(out)


def print_index(i: S.IndexExpr, canonical: bool = False) -> str:
    return _print(normalize_index(i) if canonical else i)


def print_type(t: S.TypeExpr, canonical: bool = False) -> str:
    return _print(t, canonical=canonical)


def print_term(t: S.Term, annotations: bool = False, canonical: bool = False) -> str:
    return _print(t, annotations, canonical)


def print_erased(t: S.ETerm) -> str:
    return _print(t)
