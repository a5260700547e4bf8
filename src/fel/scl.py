"""Bridge to short-circuit logic.

Short-circuit terms have their own connectives && and ||, which stop
evaluating as soon as the outcome is fixed.  Full evaluation is
expressible in them: the translation t below wraps each right operand so
that it is always reached, and the translated term evaluates to the same
tree (se(t(p)) = fe(p)).
"""

from __future__ import annotations

from . import semantics, syntax
from .evaltree import EvalTree, FALSE, TRUE, node, subst


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


def se(p: SclExpr) -> EvalTree:
    """Short-circuit evaluation tree; not perfect in general.

    A memo that lives for this call visits each distinct subterm once:
    translate_t's terms use each right operand twice.
    """
    return _se(p, {})


def _se(p: SclExpr, done: dict) -> EvalTree:
    t = done.get(p)
    if t is None:
        cls = type(p)
        if cls is ScAnd:
            t = sc_and(_se(p.left, done), _se(p.right, done))
        elif cls is ScOr:
            t = sc_or(_se(p.left, done), _se(p.right, done))
        elif cls is Not:
            t = semantics.tree_not(_se(p.operand, done))
        elif cls is Atom:
            t = node(p.name, TRUE, FALSE)
        elif cls is ConstT:
            t = TRUE
        elif cls is ConstF:
            t = FALSE
        else:
            raise TypeError(f"not a short-circuit expression: {p!r}")
        done[p] = t
    return t


def translate_t(p: syntax.Expr) -> SclExpr:
    """Express a full-evaluation term with short-circuit connectives."""
    try:
        return _translate_t(p)
    except RecursionError:
        raise ValueError("input nested too deeply") from None


def _translate_t(p: syntax.Expr) -> SclExpr:
    if isinstance(p, syntax.ConstU):
        raise ValueError("short-circuit terms have no U")
    if isinstance(p, syntax.ConstT):
        return SC_TRUE
    if isinstance(p, syntax.ConstF):
        return SC_FALSE
    if isinstance(p, syntax.Atom):
        return Atom(p.name)
    if isinstance(p, syntax.Not):
        return Not(_translate_t(p.operand))
    if isinstance(p, syntax.FullAnd):
        tl, tr = _translate_t(p.left), _translate_t(p.right)
        return ScAnd(ScOr(tl, ScAnd(tr, SC_FALSE)), tr)
    if isinstance(p, syntax.FullOr):
        tl, tr = _translate_t(p.left), _translate_t(p.right)
        return ScOr(ScAnd(tl, ScOr(tr, SC_TRUE)), tr)
    raise TypeError(f"not a closed expression: {p!r}")


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
