"""Normal forms for the memorising and commutative logics.

Under memorisation every expression is equivalent to a nest of the
ternary operator h(a, P1, P2) = (a & P1) | (!a & P2) over its atom
string: the evaluation tree is perfect, and the nest is its literal
read-back.  The commutative logics additionally fix the atom order, and
the logics with U collapse every U-containing expression to the single
form a1 & (a2 & ... & U) (or plain U when the order is forgotten too).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import semantics, syntax, tables
from .evaltree import UNDEF, EvalTree, Leaf, Node, spine
from .fnf import normalize_ffel, normalize_ffelu, u_sigma
from .syntax import Expr, FALSE, TRUE, mk_and, mk_atom, mk_not, mk_or
from .tables import fold


@dataclass(frozen=True)
class SigmaNormalForm:
    sigma: tuple[str, ...]
    body: Expr

    def __str__(self):
        return syntax.print_expr(self.body)


def h(x: Expr, y: Expr, z: Expr) -> Expr:
    """The definable ternary operator (x & y) | (!x & z)."""
    return mk_or(mk_and(x, y), mk_and(mk_not(x), z))


def _h_parts(e: Expr) -> tuple[str, Expr, Expr]:
    if (
        isinstance(e, syntax.FullOr)
        and isinstance(e.left, syntax.FullAnd)
        and isinstance(e.right, syntax.FullAnd)
        and isinstance(e.left.left, syntax.Atom)
        and isinstance(e.right.left, syntax.Not)
        and e.right.left.operand == e.left.left
    ):
        return e.left.left.name, e.left.right, e.right.right
    raise ValueError(f"not an h-nest: {syntax.print_expr(e)}")


def t_sigma(sigma) -> Expr:
    """The canonical always-true form over sigma."""
    e: Expr = TRUE
    for a in reversed(tuple(sigma)):
        e = h(mk_atom(a), e, e)
    return e


def f_sigma(sigma) -> Expr:
    """The canonical always-false form over sigma."""
    e: Expr = FALSE
    for a in reversed(tuple(sigma)):
        e = h(mk_atom(a), e, e)
    return e


def f_tilde_sigma(sigma) -> Expr:
    """The short always-false prefix term a & (b & ... & F) over sigma."""
    e: Expr = FALSE
    for a in reversed(tuple(sigma)):
        e = mk_and(mk_atom(a), e)
    return e


_READ_BACK: dict = tables.computed()


def _leaf_back(x: Leaf) -> Expr:
    if x.kind == "T":
        return TRUE
    if x.kind == "F":
        return FALSE
    raise ValueError(f"cannot read back a {x.kind} leaf")


# The h-nest read-back of a perfect tree, as clauses for tables.fold.
READ_BACK = {Leaf: _leaf_back, Node: lambda x, l, r: h(mk_atom(x.atom), l, r)}


def normalize_mfel(p: Expr) -> SigmaNormalForm:
    """The unique memorising normal form over sigma = atoms_of(p)."""
    return _sigma_nf(semantics.mfe_u(p), "normalize_mfel rejects U; use normalize_mfelu")


def normalize_mfelu(p: Expr) -> SigmaNormalForm:
    """Memorising normal form over three truth values.

    A U term's tree is the all-U chain over the atoms before its leftmost
    U, so its form is the undefined term over those atoms.
    """
    return _sigma_nf(semantics.mfe_u(p), None)


def normalize_clfel2(p: Expr) -> SigmaNormalForm:
    """Commutative normal form: sigma is the sorted alphabet of p."""
    return _sigma_nf(semantics.clfe_u(p), "normalize_clfel2 rejects U; use normalize_clfelu")


def normalize_clfelu(p: Expr) -> SigmaNormalForm:
    """Commutative normal form with U: every U-expression collapses to U."""
    return _sigma_nf(semantics.clfe_u(p), None)


def _sigma_nf(tree: EvalTree, u_error: str | None) -> SigmaNormalForm:
    """The normal form of a memorised tree, or ValueError(u_error) for U.

    A perfect tree reads its whole atom order down every path, and the tree
    of a U term is all U: sigma is the atoms down the left spine.
    """
    sigma, end = spine(tree)
    if end is UNDEF and u_error is not None:
        raise ValueError(u_error)
    body = u_sigma(sigma) if end is UNDEF else fold(tree, READ_BACK, "an evaluation tree", _READ_BACK)
    return SigmaNormalForm(sigma, body)


# The normal form of each logic that has one; sfel has none.
NORMAL_FORMS = {
    semantics.FFEL: normalize_ffel,
    semantics.FFELU: normalize_ffelu,
    semantics.MFEL: lambda p: normalize_mfel(p).body,
    semantics.MFELU: lambda p: normalize_mfelu(p).body,
    semantics.CLFEL2: lambda p: normalize_clfel2(p).body,
    semantics.CLFEL: lambda p: normalize_clfelu(p).body,
}


def permute_sigma_nf(nf: SigmaNormalForm, sigma_prime) -> SigmaNormalForm:
    """Reorder an h-nest to a permutation of its atom string by h-swaps."""
    if syntax.contains_u(nf.body):
        raise ValueError("cannot permute an undefined form")
    target = tuple(sigma_prime)
    source = []
    e = nf.body
    while not isinstance(e, (syntax.ConstT, syntax.ConstF)):
        a, e, _ = _h_parts(e)
        source.append(a)
    if sorted(target) != sorted(source) or len(set(target)) != len(target):
        raise ValueError(f"{sigma_prime!r} is not a permutation of {nf.sigma!r}")
    return SigmaNormalForm(target, _permute(nf.body, target))


def _permute(body: Expr, want: tuple[str, ...]) -> Expr:
    """The h-nest body reordered to the atom string want."""
    if not want:
        return body
    a, rest = want[0], want[1:]
    head, p1, p2 = _h_parts(body)
    if head == a:
        return h(mk_atom(a), _permute(p1, rest), _permute(p2, rest))
    # Float a to the head of both children, then swap it past head:
    # h(b, h(a,z,u), h(a,v,w)) = h(a, h(b,z,v), h(b,u,w)).
    sub = (a,) + tuple(x for x in want if x != a and x != head)
    _, z, u = _h_parts(_permute(p1, sub))
    _, v, w = _h_parts(_permute(p2, sub))
    b = mk_atom(head)
    return h(mk_atom(a), _permute(h(b, z, v), rest), _permute(h(b, u, w), rest))


_ENUM_BOUND = 4


def enumerate_sigma_nf(sigma) -> Iterator[SigmaNormalForm]:
    """All 2^(2^|sigma|) normal forms over sigma, without duplicates."""
    atoms = tuple(sigma)
    if len(set(atoms)) != len(atoms):
        raise ValueError(f"alphabet {sigma!r} repeats an atom")
    if len(atoms) > _ENUM_BOUND:
        raise ValueError(f"alphabet longer than the bound of {_ENUM_BOUND}")
    for body in _bodies(atoms):
        yield SigmaNormalForm(atoms, body)


def _bodies(atoms: tuple[str, ...]) -> list[Expr]:
    """Every h-nest over the atom string atoms."""
    if not atoms:
        return [TRUE, FALSE]
    sub = _bodies(atoms[1:])
    a = mk_atom(atoms[0])
    return [h(a, p1, p2) for p1 in sub for p2 in sub]
