"""Bridge to short-circuit logic.

Short-circuit terms have their own connectives && and ||, which stop
evaluating as soon as the outcome is fixed.  Full evaluation is
expressible in them: the translation t below wraps each right operand so
that it is always reached, and the translated term evaluates to the same
tree (se(t(p)) = fe(p)).  se is semantics' full evaluator over this
module's classes, with the clauses of && and ||.
"""

from __future__ import annotations

from typing import NoReturn

from . import semantics, syntax
from .evaltree import EvalTree, FALSE, TRUE, subst
from .tables import fold


class SclExpr(syntax.Interned):
    """Base class of short-circuit expression nodes, hash-consed like Expr."""
    __slots__ = ()

    def __repr__(self):
        return f"<scl {print_scl(self)}>"


class Atom(SclExpr):
    __slots__ = ("name",)
    name: str


class ConstT(SclExpr):
    __slots__ = ()


class ConstF(SclExpr):
    __slots__ = ()


class Not(SclExpr):
    __slots__ = ("operand",)
    operand: SclExpr


class ScAnd(SclExpr):
    __slots__ = ("left", "right")
    left: SclExpr
    right: SclExpr


class ScOr(SclExpr):
    __slots__ = ("left", "right")
    left: SclExpr
    right: SclExpr


SC_TRUE = ConstT()
SC_FALSE = ConstF()

def sc_and(x: EvalTree, y: EvalTree) -> EvalTree:
    """Tree of a short-circuit conjunction: y replaces only the T leaves."""
    return subst(x, y, FALSE)


def sc_or(x: EvalTree, y: EvalTree) -> EvalTree:
    """Tree of a short-circuit disjunction: y replaces only the F leaves."""
    return subst(x, TRUE, y)


_se = semantics.evaluator("a short-circuit expression", Atom, ConstT, ConstF, Not,
                          sc_and=ScAnd, sc_or=ScOr)


def se(p: SclExpr) -> EvalTree:
    """Short-circuit evaluation tree; not perfect in general."""
    return semantics.tree_of(_se, p, {})


def _no_u(p: syntax.Expr) -> NoReturn:
    raise ValueError("short-circuit terms have no U")


# translate_t's clauses for tables.fold: each right operand is wrapped so
# that it is evaluated whatever the left one yields.
TRANSLATE_T = {
    syntax.ConstU: _no_u,
    syntax.ConstT: lambda p: SC_TRUE,
    syntax.ConstF: lambda p: SC_FALSE,
    syntax.Atom: lambda p: Atom(p.name),
    syntax.Not: lambda p, x: Not(x),
    syntax.FullAnd: lambda p, tl, tr: ScAnd(ScOr(tl, ScAnd(tr, SC_FALSE)), tr),
    syntax.FullOr: lambda p, tl, tr: ScOr(ScAnd(tl, ScOr(tr, SC_TRUE)), tr),
}


def translate_t(p: syntax.Expr) -> SclExpr:
    """Express a full-evaluation term with short-circuit connectives."""
    return fold(p, TRANSLATE_T, "a closed expression")


def bridge_check(p: syntax.Expr) -> bool:
    """Does the translated term evaluate to the same tree as p?"""
    return semantics.fe(p) == se(translate_t(p))


SPELLING = {
    Atom: None, ConstT: "T", ConstF: "F",
    Not: ("!", 3), ScAnd: (" && ", 2), ScOr: (" || ", 1),
}


def print_scl(e: SclExpr, fully_parenthesized: bool = False) -> str:
    """Print with && and || and minimal parentheses."""
    return syntax.print_term(e, SPELLING, "a short-circuit expression", fully_parenthesized)
