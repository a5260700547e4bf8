"""Normal forms for the free full-evaluation logic.

A term is in normal form when it is a T-term (T, or a disjunction of an
atom with a T-term), an F-term (F, or a conjunction of an atom with an
F-term), or a T-*-term: a T-term conjoined with a *-term built from
literal blocks ("l-terms", a possibly negated atom conjoined with a
T-term) by conjunction and disjunction in a restricted shape.

The normalizer below follows a fixed recursive equation system exactly;
it is deliberately not shortcut through the tree semantics, so the tests
can use the semantics as an independent oracle.
"""

from __future__ import annotations

from enum import Enum
from typing import NoReturn

from . import semantics, syntax, tables
from .evaltree import spine
from .syntax import FALSE, TRUE, UNDEF, Atom, FullAnd, FullOr, Not, mk_and, mk_not, mk_or
from .tables import fold


class FnfCategory(Enum):
    T_TERM = "TTerm"
    F_TERM = "FTerm"
    L_TERM = "LTerm"
    STAR_CONJ = "StarConj"
    STAR_DISJ = "StarDisj"
    T_STAR_TERM = "TStarTerm"
    NOT_FNF = "NotFnf"


_STAR = (FnfCategory.L_TERM, FnfCategory.STAR_CONJ, FnfCategory.STAR_DISJ)
_TOP = (FnfCategory.T_TERM, FnfCategory.F_TERM, FnfCategory.T_STAR_TERM)

_CATEGORY_CACHE: dict[syntax.Expr, FnfCategory] = tables.computed()


def _is_literal(e: syntax.Expr) -> bool:
    return isinstance(e, Atom) or (isinstance(e, Not) and isinstance(e.operand, Atom))


def _or_category(e: FullOr, cl: FnfCategory, cr: FnfCategory) -> FnfCategory:
    if isinstance(e.left, Atom) and cr is FnfCategory.T_TERM:
        return FnfCategory.T_TERM
    if cl in _STAR and cr in (FnfCategory.L_TERM, FnfCategory.STAR_CONJ):
        return FnfCategory.STAR_DISJ
    return FnfCategory.NOT_FNF


def _and_category(e: FullAnd, cl: FnfCategory, cr: FnfCategory) -> FnfCategory:
    if _is_literal(e.left) and cr is FnfCategory.T_TERM:
        return FnfCategory.L_TERM
    if isinstance(e.left, Atom) and cr is FnfCategory.F_TERM:
        return FnfCategory.F_TERM
    if cl in _STAR and cr in (FnfCategory.L_TERM, FnfCategory.STAR_DISJ):
        return FnfCategory.STAR_CONJ
    if cl is FnfCategory.T_TERM and cr in _STAR:
        return FnfCategory.T_STAR_TERM
    return FnfCategory.NOT_FNF


def _not_fnf(e: syntax.Expr, *parts) -> FnfCategory:
    return FnfCategory.NOT_FNF


# classify's clauses for tables.fold: the category of a term from its
# operands'.  Atoms, negations and U are no category of their own.
CATEGORY = {
    syntax.ConstT: lambda e: FnfCategory.T_TERM,
    syntax.ConstF: lambda e: FnfCategory.F_TERM,
    FullOr: _or_category,
    FullAnd: _and_category,
    Atom: _not_fnf, Not: _not_fnf, syntax.ConstU: _not_fnf, syntax.Var: _not_fnf,
}


def classify(e: syntax.Expr) -> FnfCategory:
    """The unique grammatical category of e, or NOT_FNF."""
    c = _CATEGORY_CACHE.get(e)
    if c is None:
        c = fold(e, CATEGORY, "an expression", _CATEGORY_CACHE)
    return c


def _require(e: syntax.Expr, cats) -> FnfCategory:
    c = classify(e)
    if c not in cats:
        raise ValueError(f"not a normal-form term of the required shape: {syntax.print_expr(e)}")
    return c


_NEG_CACHE: dict[syntax.Expr, syntax.Expr] = tables.computed()
_NEG1_CACHE: dict[syntax.Expr, syntax.Expr] = tables.computed()
_AND_CACHE: dict[tuple, syntax.Expr] = tables.computed()
_AND1_CACHE: dict[tuple, syntax.Expr] = tables.computed()
_AND2_CACHE: dict[tuple, syntax.Expr] = tables.computed()
_AND3_CACHE: dict[tuple, syntax.Expr] = tables.computed()


def fnf_negate(e: syntax.Expr) -> syntax.Expr:
    """Normal form of the negation of a normal-form term."""
    r = _NEG_CACHE.get(e)
    if r is None:
        c = _require(e, _TOP)
        if c is FnfCategory.T_TERM:
            if isinstance(e, syntax.ConstT):
                r = FALSE
            else:
                r = mk_and(e.left, fnf_negate(e.right))
        elif c is FnfCategory.F_TERM:
            if isinstance(e, syntax.ConstF):
                r = TRUE
            else:
                r = mk_or(e.left, fnf_negate(e.right))
        else:
            r = mk_and(e.left, _negate_star(e.right))
        _NEG_CACHE[e] = r
    return r


def _negate_star(e: syntax.Expr) -> syntax.Expr:
    r = _NEG1_CACHE.get(e)
    if r is None:
        c = _require(e, _STAR)
        if c is FnfCategory.L_TERM:
            if isinstance(e.left, Atom):
                r = mk_and(mk_not(e.left), e.right)
            else:
                r = mk_and(e.left.operand, e.right)
        elif c is FnfCategory.STAR_CONJ:
            r = mk_or(_negate_star(e.left), _negate_star(e.right))
        else:
            r = mk_and(_negate_star(e.left), _negate_star(e.right))
        _NEG1_CACHE[e] = r
    return r


def fnf_and(p: syntax.Expr, q: syntax.Expr) -> syntax.Expr:
    """Normal form of the conjunction of two normal-form terms."""
    key = (p, q)
    r = _AND_CACHE.get(key)
    if r is not None:
        return r
    cp = _require(p, _TOP)
    cq = _require(q, _TOP)
    if cp is FnfCategory.T_TERM:
        if isinstance(p, syntax.ConstT):
            r = q
        elif cq is FnfCategory.T_TERM:
            r = mk_or(p.left, fnf_and(p.right, q))
        elif cq is FnfCategory.F_TERM:
            r = mk_and(p.left, fnf_and(p.right, q))
        else:
            r = mk_and(fnf_and(p, q.left), q.right)
    elif cp is FnfCategory.F_TERM:
        if isinstance(p, syntax.ConstF):
            if cq is FnfCategory.T_TERM:
                r = fnf_negate(q)
            elif cq is FnfCategory.F_TERM:
                r = q
            else:
                r = fnf_and(q, FALSE)
        else:
            r = mk_and(p.left, fnf_and(p.right, q))
    else:
        if cq is FnfCategory.T_TERM:
            r = mk_and(p.left, _push_t(p.right, q))
        elif cq is FnfCategory.F_TERM:
            r = fnf_and(p.left, _to_f(p.right, q))
        else:
            r = mk_and(p.left, _merge_t_star(p.right, q))
    _AND_CACHE[key] = r
    return r


def _push_t(star: syntax.Expr, t_term: syntax.Expr) -> syntax.Expr:
    """Push a trailing T-term into the rightmost literal block of a *-term."""
    key = (star, t_term)
    r = _AND1_CACHE.get(key)
    if r is None:
        c = _require(star, _STAR)
        if c is FnfCategory.L_TERM:
            r = mk_and(star.left, fnf_and(star.right, t_term))
        elif c is FnfCategory.STAR_CONJ:
            r = mk_and(star.left, _push_t(star.right, t_term))
        else:
            r = mk_or(star.left, _push_t(star.right, t_term))
        _AND1_CACHE[key] = r
    return r


def _to_f(star: syntax.Expr, f_term: syntax.Expr) -> syntax.Expr:
    """Convert a *-term followed by an F-term into an F-term."""
    key = (star, f_term)
    r = _AND2_CACHE.get(key)
    if r is None:
        c = _require(star, _STAR)
        if c is FnfCategory.L_TERM:
            a = star.left if isinstance(star.left, Atom) else star.left.operand
            r = mk_and(a, fnf_and(star.right, f_term))
        else:
            r = _to_f(star.left, _to_f(star.right, f_term))
        _AND2_CACHE[key] = r
    return r


def _merge_t_star(star: syntax.Expr, t_star: syntax.Expr) -> syntax.Expr:
    """Conjoin a *-term with a T-*-term so the result stays a *-term."""
    key = (star, t_star)
    r = _AND3_CACHE.get(key)
    if r is None:
        _require(star, _STAR)
        _require(t_star, (FnfCategory.T_STAR_TERM,))
        inner = t_star.right
        ci = classify(inner)
        if ci is FnfCategory.STAR_CONJ:
            r = mk_and(_merge_t_star(star, mk_and(t_star.left, inner.left)), inner.right)
        else:
            r = mk_and(_push_t(star, t_star.left), inner)
        _AND3_CACHE[key] = r
    return r


def _no_u(p: syntax.Expr) -> NoReturn:
    raise ValueError("normalize_ffel rejects U; use normalize_ffelu")


# normalize_ffel's clauses for tables.fold: each connective's normal form
# from its operands' by the algebra above.
NORMALIZE_FFEL = {
    Atom: lambda p: mk_and(TRUE, mk_and(p, TRUE)),
    syntax.ConstT: lambda p: p,
    syntax.ConstF: lambda p: p,
    syntax.ConstU: _no_u,
    Not: lambda p, x: fnf_negate(x),
    FullAnd: lambda p, l, r: fnf_and(l, r),
    FullOr: lambda p, l, r: fnf_negate(fnf_and(fnf_negate(l), fnf_negate(r))),
}


def normalize_ffel(p: syntax.Expr) -> syntax.Expr:
    """The normal form of an arbitrary U-free expression."""
    try:
        return fold(p, NORMALIZE_FFEL, "a closed expression")
    except RecursionError:  # the algebra recurses along the normal forms
        raise ValueError("input nested too deeply") from None


def u_sigma(sigma) -> syntax.Expr:
    """The canonical undefined term a1 & (a2 & ... & U) over sigma."""
    e: syntax.Expr = UNDEF
    for a in reversed(tuple(sigma)):
        e = mk_and(syntax.mk_atom(a), e)
    return e


def normalize_ffelu(p: syntax.Expr) -> syntax.Expr:
    """Normal form over three truth values.

    An expression containing U always evaluates to an all-U chain, every
    node's two children one tree, so its normal form is the canonical
    undefined term over that chain's labels; U-free expressions normalize
    as usual.
    """
    if not syntax.contains_u(p):
        return normalize_ffel(p)
    return u_sigma(spine(semantics.evaluate(semantics.FFELU, p))[0])
