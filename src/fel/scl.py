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
    """Short-circuit evaluation tree; not perfect in general."""
    if isinstance(p, ConstT):
        return TRUE
    if isinstance(p, ConstF):
        return FALSE
    if isinstance(p, Atom):
        return node(p.name, TRUE, FALSE)
    if isinstance(p, Not):
        return semantics.tree_not(se(p.operand))
    if isinstance(p, ScAnd):
        return sc_and(se(p.left), se(p.right))
    if isinstance(p, ScOr):
        return sc_or(se(p.left), se(p.right))
    raise TypeError(f"not a short-circuit expression: {p!r}")


def translate_t(p: syntax.Expr) -> SclExpr:
    """Express a full-evaluation term with short-circuit connectives."""
    if isinstance(p, syntax.ConstU):
        raise ValueError("short-circuit terms have no U")
    if isinstance(p, syntax.ConstT):
        return SC_TRUE
    if isinstance(p, syntax.ConstF):
        return SC_FALSE
    if isinstance(p, syntax.Atom):
        return Atom(p.name)
    if isinstance(p, syntax.Not):
        return Not(translate_t(p.operand))
    if isinstance(p, syntax.FullAnd):
        tl, tr = translate_t(p.left), translate_t(p.right)
        return ScAnd(ScOr(tl, ScAnd(tr, SC_FALSE)), tr)
    if isinstance(p, syntax.FullOr):
        tl, tr = translate_t(p.left), translate_t(p.right)
        return ScOr(ScAnd(tl, ScOr(tr, SC_TRUE)), tr)
    raise TypeError(f"not a closed expression: {p!r}")


def bridge_check(p: syntax.Expr) -> bool:
    """Does the translated term evaluate to the same tree as p?"""
    return semantics.fe(p) == se(translate_t(p))


_PREC_OR, _PREC_AND, _PREC_NOT = 1, 2, 3


def print_scl(e: SclExpr, fully_parenthesized: bool = False) -> str:
    """Print with && and || and minimal parentheses."""

    def go(e: SclExpr, need: int) -> str:
        if isinstance(e, Atom):
            return e.name
        if isinstance(e, ConstT):
            return "T"
        if isinstance(e, ConstF):
            return "F"
        if isinstance(e, Not):
            s, p = "!" + go(e.operand, _PREC_NOT), _PREC_NOT
        elif isinstance(e, ScAnd):
            s = go(e.left, _PREC_AND) + " && " + go(e.right, _PREC_NOT)
            p = _PREC_AND
        elif isinstance(e, ScOr):
            s = go(e.left, _PREC_OR) + " || " + go(e.right, _PREC_AND)
            p = _PREC_OR
        else:
            raise TypeError(f"not a short-circuit expression: {e!r}")
        if p < need or (fully_parenthesized and not isinstance(e, Not)):
            return "(" + s + ")"
        return s

    return go(e, 0)
