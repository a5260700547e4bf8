"""Decomposing evaluation trees and inverting them back to normal forms.

A tree in the image of the full-evaluation map of a normal-form term can
be taken apart again: a conjunction leaves a "conjunction decomposition"
(the right operand's tree as core, the left operand's tree with T/F
leaves replaced by the placeholders D1/D2 as context), a disjunction the
dual, and the top-level T-term split leaves a single-placeholder
decomposition.  The function g below uses these to reconstruct, for any
tree in the image, the unique normal-form term mapping to it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import semantics, syntax
from .evaltree import (
    EvalTree,
    FALSE,
    HOLE,
    HOLE1,
    HOLE2,
    Leaf,
    Node,
    TRUE,
    depth,
    iter_subtrees,
    leaf_kinds,
    node,
    replace_leaves,
    subst,
)

_TF = frozenset(("T", "F"))
_ONLY_T = frozenset(("T",))
_ONLY_F = frozenset(("F",))


class NoDecomposition(ValueError):
    """The tree admits no decomposition of the requested shape."""


class NotInImage(ValueError):
    """The tree is not the evaluation of any normal-form term."""


@dataclass(frozen=True)
class Decomposition:
    context: EvalTree
    core: EvalTree


def _check_tf(x: EvalTree) -> None:
    if not leaf_kinds(x) <= _TF:
        raise ValueError("tree must have only T and F leaves")


def _context(x: EvalTree, first: EvalTree, d1: Leaf, second: EvalTree, d2: Leaf) -> EvalTree:
    """Replace occurrences of first/second by placeholders, outermost first."""
    memo: dict[EvalTree, EvalTree] = {}

    def go(t: EvalTree) -> EvalTree:
        r = memo.get(t)
        if r is None:
            if t == first:
                r = d1
            elif t == second:
                r = d2
            elif isinstance(t, Leaf):
                r = t
            else:
                r = node(t.atom, go(t.left), go(t.right))
            memo[t] = r
        return r

    return go(x)


def find_ccd(x: EvalTree) -> list[Decomposition]:
    """All candidate conjunction decompositions of x, by candidate core."""
    _check_tf(x)
    out = []
    for z in iter_subtrees(x):
        if leaf_kinds(z) != _TF:
            continue
        z2 = subst(z, FALSE, FALSE)
        y = _context(x, z, HOLE1, z2, HOLE2)
        if leaf_kinds(y) != frozenset(("D1", "D2")):
            continue
        if replace_leaves(y, {"D1": z, "D2": z2}) == x:
            out.append(Decomposition(y, z))
    return out


def find_cdd(x: EvalTree) -> list[Decomposition]:
    """All candidate disjunction decompositions of x, by candidate core."""
    _check_tf(x)
    out = []
    for z in iter_subtrees(x):
        if leaf_kinds(z) != _TF:
            continue
        z2 = subst(z, TRUE, TRUE)
        y = _context(x, z2, HOLE1, z, HOLE2)
        if leaf_kinds(y) != frozenset(("D1", "D2")):
            continue
        if replace_leaves(y, {"D1": z2, "D2": z}) == x:
            out.append(Decomposition(y, z))
    return out


def _pick_minimal(cands: list[Decomposition], what: str) -> Decomposition:
    if not cands:
        raise NoDecomposition(f"tree has no {what}")
    best = min(depth(c.core) for c in cands)
    minimal = [c for c in cands if depth(c.core) == best]
    if len(minimal) > 1:
        raise NotInImage(f"ambiguous {what}: {len(minimal)} minimal cores")
    return minimal[0]


def cd(x: EvalTree) -> Decomposition:
    """The conjunction decomposition: the candidate with the smallest core."""
    return _pick_minimal(find_ccd(x), "conjunction decomposition")


def dd(x: EvalTree) -> Decomposition:
    """The disjunction decomposition: the candidate with the smallest core."""
    return _pick_minimal(find_cdd(x), "disjunction decomposition")


def _splittable(z: EvalTree) -> bool:
    """Does z split as C[D -> W] with an all-D context C != D?"""
    for w in iter_subtrees(z):
        if w == z or leaf_kinds(w) != _TF:
            continue
        y = _context(z, w, HOLE, None, None)
        if leaf_kinds(y) == frozenset(("D",)) and replace_leaves(y, {"D": w}) == z:
            return True
    return False


def tsd(x: EvalTree) -> Decomposition:
    """The T-*-decomposition: all-placeholder context, unsplittable core."""
    _check_tf(x)
    if leaf_kinds(x) != _TF:
        raise NoDecomposition("tree needs both a T and an F leaf")
    cands = []
    for z in iter_subtrees(x):
        if leaf_kinds(z) != _TF:
            continue
        y = _context(x, z, HOLE, None, None)
        if leaf_kinds(y) != frozenset(("D",)):
            continue
        if replace_leaves(y, {"D": z}) != x:
            continue
        if _splittable(z):
            continue
        cands.append(Decomposition(y, z))
    if not cands:
        raise NoDecomposition("no T-*-decomposition")
    if len(cands) > 1:
        raise NotInImage(f"ambiguous T-*-decomposition: {len(cands)} candidates")
    return cands[0]


def g_t(x: EvalTree) -> syntax.Expr:
    """Invert an all-T tree to a T-term, descending the left branch."""
    if isinstance(x, Leaf):
        return syntax.TRUE
    if x.left != x.right:
        raise NotInImage("all-T tree with unequal branches")
    return syntax.mk_or(syntax.mk_atom(x.atom), g_t(x.left))


def g_f(x: EvalTree) -> syntax.Expr:
    """Invert an all-F tree to an F-term, descending the right branch."""
    if isinstance(x, Leaf):
        return syntax.FALSE
    if x.left != x.right:
        raise NotInImage("all-F tree with unequal branches")
    return syntax.mk_and(syntax.mk_atom(x.atom), g_f(x.right))


def g_ell(x: EvalTree) -> syntax.Expr:
    """Invert the tree of a single literal block a & P or !a & P."""
    if isinstance(x, Node):
        if leaf_kinds(x.left) == _ONLY_T and subst(x.left, FALSE, FALSE) == x.right:
            return syntax.mk_and(syntax.mk_atom(x.atom), g_t(x.left))
        if leaf_kinds(x.right) == _ONLY_T and subst(x.right, FALSE, FALSE) == x.left:
            return syntax.mk_and(syntax.mk_not(syntax.mk_atom(x.atom)), g_t(x.right))
    raise NotInImage("not the tree of a literal block")


def g_star(x: EvalTree) -> syntax.Expr:
    """Invert the tree of a *-term, dispatching on which decomposition exists."""
    ccds = find_ccd(x)
    cdds = find_cdd(x)
    if ccds and cdds:
        raise NotInImage("tree has both conjunction and disjunction decompositions")
    if ccds:
        d = _pick_minimal(ccds, "conjunction decomposition")
        left = replace_leaves(d.context, {"D1": TRUE, "D2": FALSE})
        return syntax.mk_and(g_star(left), g_star(d.core))
    if cdds:
        d = _pick_minimal(cdds, "disjunction decomposition")
        left = replace_leaves(d.context, {"D1": TRUE, "D2": FALSE})
        return syntax.mk_or(g_star(left), g_star(d.core))
    return g_ell(x)


def g(x: EvalTree) -> syntax.Expr:
    """The normal-form term whose evaluation tree is x, if one exists."""
    kinds = leaf_kinds(x)
    if not kinds <= _TF:
        raise NotInImage("tree has leaves other than T and F")
    try:
        if kinds == _ONLY_T:
            e = g_t(x)
        elif kinds == _ONLY_F:
            e = g_f(x)
        else:
            d = tsd(x)
            t_part = g_t(replace_leaves(d.context, {"D": TRUE}))
            e = syntax.mk_and(t_part, g_star(d.core))
    except NoDecomposition as err:
        raise NotInImage(str(err)) from None
    if semantics.fe(e) != x:
        raise NotInImage("reconstructed term does not evaluate back to the tree")
    return e
