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
from .evaltree import Leaf
from .fnf import normalize_ffel, normalize_ffelu, u_sigma
from .syntax import Expr, FALSE, TRUE, mk_and, mk_atom, mk_not, mk_or


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


def _read_back(tree) -> Expr:
    e = _READ_BACK.get(tree)
    if e is None:
        if isinstance(tree, Leaf):
            if tree.kind == "T":
                e = TRUE
            elif tree.kind == "F":
                e = FALSE
            else:
                raise ValueError(f"cannot read back a {tree.kind} leaf")
        else:
            e = h(mk_atom(tree.atom), _read_back(tree.left), _read_back(tree.right))
        _READ_BACK[tree] = e
    return e


def normalize_mfel(p: Expr) -> SigmaNormalForm:
    """The unique memorising normal form over sigma = atoms_of(p)."""
    if syntax.contains_u(p):
        raise ValueError("normalize_mfel rejects U; use normalize_mfelu")
    return SigmaNormalForm(syntax.atoms_of(p), _read_back(semantics.mfe(p)))


def normalize_mfelu(p: Expr) -> SigmaNormalForm:
    """Memorising normal form over three truth values.

    A U term's tree is the all-U chain over the atoms before its leftmost
    U, so its form is the undefined term over those atoms.
    """
    if not syntax.contains_u(p):
        return normalize_mfel(p)
    labels = syntax.atoms_before_u(p)
    return SigmaNormalForm(labels, u_sigma(labels))


def normalize_clfel2(p: Expr) -> SigmaNormalForm:
    """Commutative normal form: sigma is the sorted alphabet of p."""
    if syntax.contains_u(p):
        raise ValueError("normalize_clfel2 rejects U; use normalize_clfelu")
    return SigmaNormalForm(tuple(sorted(syntax.alphabet(p))), _read_back(semantics.clfe(p)))


def normalize_clfelu(p: Expr) -> SigmaNormalForm:
    """Commutative normal form with U: every U-expression collapses to U."""
    if syntax.contains_u(p):
        return SigmaNormalForm((), syntax.UNDEF)
    return normalize_clfel2(p)


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

    def go(body: Expr, want: tuple[str, ...]) -> Expr:
        if not want:
            return body
        a, rest = want[0], want[1:]
        head, p1, p2 = _h_parts(body)
        if head == a:
            return h(mk_atom(a), go(p1, rest), go(p2, rest))
        # Float a to the head of both children, then swap it past head:
        # h(b, h(a,z,u), h(a,v,w)) = h(a, h(b,z,v), h(b,u,w)).
        sub = (a,) + tuple(x for x in want if x != a and x != head)
        p1 = go(p1, sub)
        p2 = go(p2, sub)
        _, z, u = _h_parts(p1)
        _, v, w = _h_parts(p2)
        b = mk_atom(head)
        return h(mk_atom(a), go(h(b, z, v), rest), go(h(b, u, w), rest))

    return SigmaNormalForm(target, go(nf.body, target))


_ENUM_BOUND = 4


def enumerate_sigma_nf(sigma) -> Iterator[SigmaNormalForm]:
    """All 2^(2^|sigma|) normal forms over sigma, without duplicates."""
    atoms = tuple(sigma)
    if len(set(atoms)) != len(atoms):
        raise ValueError(f"alphabet {sigma!r} repeats an atom")
    if len(atoms) > _ENUM_BOUND:
        raise ValueError(f"alphabet longer than the bound of {_ENUM_BOUND}")

    def bodies(rest: tuple[str, ...]) -> list[Expr]:
        if not rest:
            return [TRUE, FALSE]
        sub = bodies(rest[1:])
        a = mk_atom(rest[0])
        return [h(a, p1, p2) for p1 in sub for p2 in sub]

    for body in bodies(atoms):
        yield SigmaNormalForm(atoms, body)
