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
from typing import Iterator

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


def _context(t: EvalTree, memo: dict) -> EvalTree:
    """t with every outermost subtree that memo maps replaced by its image.

    memo starts as those replacements and caches the walk, so each call
    needs a fresh one.
    """
    r = memo.get(t)
    if r is None:
        if type(t) is Leaf:
            r = t
        else:
            r = node(t.atom, _context(t.left, memo), _context(t.right, memo))
        memo[t] = r
    return r


def _conj_fills(z: EvalTree) -> tuple[EvalTree, EvalTree]:
    return z, subst(z, FALSE, FALSE)


def _disj_fills(z: EvalTree) -> tuple[EvalTree, EvalTree]:
    return subst(z, TRUE, TRUE), z


def _alone(z: EvalTree) -> tuple[EvalTree, None]:
    # One fill, for the single placeholder D; d2 is None too.
    return z, None


def _scan(x: EvalTree, fills, d1: Leaf, d2: Leaf | None) -> Iterator[Decomposition]:
    """Each decomposition of x whose core is a T/F subtree z, children first.

    The context replaces the subtrees fills(z) by d1/d2 and is kept when
    its leaves are exactly the placeholders.  Refilling them gives x back
    by construction, since each replaced subtree equals its fill.
    """
    kinds = frozenset(d.kind for d in (d1, d2) if d is not None)
    for z in iter_subtrees(x):
        if leaf_kinds(z) == _TF:
            first, second = fills(z)
            y = _context(x, {first: d1, second: d2})
            if leaf_kinds(y) == kinds:
                yield Decomposition(y, z)


def find_ccd(x: EvalTree) -> list[Decomposition]:
    """All candidate conjunction decompositions of x, by candidate core."""
    _check_tf(x)
    return list(_scan(x, _conj_fills, HOLE1, HOLE2))


def find_cdd(x: EvalTree) -> list[Decomposition]:
    """All candidate disjunction decompositions of x, by candidate core."""
    _check_tf(x)
    return list(_scan(x, _disj_fills, HOLE1, HOLE2))


def _pick_minimal(cands: list[Decomposition], what: str) -> Decomposition:
    if not cands:
        raise NoDecomposition(f"tree has no {what}")
    depths = [depth(c.core) for c in cands]
    best = min(depths)
    minimal = [c for c, d in zip(cands, depths) if d == best]
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
    return any(d.core is not z for d in _scan(z, _alone, HOLE, None))


def tsd(x: EvalTree) -> Decomposition:
    """The T-*-decomposition: all-placeholder context, unsplittable core."""
    _check_tf(x)
    if leaf_kinds(x) != _TF:
        raise NoDecomposition("tree needs both a T and an F leaf")
    cands = [d for d in _scan(x, _alone, HOLE, None) if not _splittable(d.core)]
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
        first, second = _conj_fills(d.core)
        left = _context(x, {first: TRUE, second: FALSE})
        return syntax.mk_and(g_star(left), g_star(d.core))
    if cdds:
        d = _pick_minimal(cdds, "disjunction decomposition")
        first, second = _disj_fills(d.core)
        left = _context(x, {first: TRUE, second: FALSE})
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
            t_part = g_t(_context(x, {d.core: TRUE}))
            e = syntax.mk_and(t_part, g_star(d.core))
    except NoDecomposition as err:
        raise NotInImage(str(err)) from None
    if semantics.fe(e) != x:
        raise NotInImage("reconstructed term does not evaluate back to the tree")
    return e
