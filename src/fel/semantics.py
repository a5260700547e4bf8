"""Evaluation maps and the per-logic equivalence decision.

Seven logics are supported, from the side-effect-sensitive free logic up to
static (propositional) logic, each defined by structural equality of its
evaluation trees:

  ffel    full evaluation, every atom occurrence evaluated
  ffelu   ffel over three truth values (U aborts evaluation)
  mfel    memorising: repeated atoms keep their first value
  mfelu   mfel with U
  clfel2  memorising and commutative (two-valued)
  clfel   clfel2 with U (U is fully absorptive)
  sfel    static: propositional logic over a fixed alphabet beta

Each is one row of the table LOGICS, which evaluate, from_full, the axiom
checker and the CLI all read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import syntax, tables
from .evaltree import (
    EvalTree,
    FALSE,
    Leaf,
    Node,
    REBUILD,
    TRUE,
    UNDEF,
    node,
    spine,
    subst,
)
from .tables import fold

def tree_not(x: EvalTree) -> EvalTree:
    return subst(x, FALSE, TRUE)


def tree_and(x: EvalTree, y: EvalTree) -> EvalTree:
    return subst(x, y, subst(y, FALSE, FALSE))


def tree_or(x: EvalTree, y: EvalTree) -> EvalTree:
    return subst(x, subst(y, TRUE, TRUE), y)


def evaluator(what, atom, const_t, const_f, negation, full_and=None, full_or=None,
              sc_and=None, sc_or=None, const_u=None, var=None):
    """The full evaluation map of the term language with these classes.

    _fe(p, kt, kf, done) is p's tree with kt at its T leaves and kf at its
    F leaves, built in continuation-passing style with no substitution:
    p & q is p under (q under (kt, kf), q under (kf, kf)), p | q is p under
    (q under (kt, kt), q under (kt, kf)), p && q is p under (q under (kt,
    kf), kf), p || q is p under (kt, q under (kt, kf)), !p is p under (kf,
    kt), and a variable is its tree in done under (kt, kf).  A left operand
    and the operand of ! are tail positions, where every (term, kt, kf)
    has the same tree: _fe loops down them, recurses only into right
    operands, and keeps the tree in done under the first connective's key
    only.  Other classes raise TypeError.
    """

    def _fe(p, kt, kf, done):
        key = None
        while True:
            cls = type(p)
            if cls is const_t:
                r = kt
                break
            if cls is atom:
                r = node(p.name, kt, kf)
                break
            if cls is const_f:
                r = kf
                break
            if cls is negation:
                p, kt, kf = p.operand, kf, kt
                continue
            if key is None:
                key = (p, kt, kf)
                r = done.get(key)
                if r is not None:
                    return r
            if cls is full_and:
                kt, kf = _fe(p.right, kt, kf, done), _fe(p.right, kf, kf, done)
            elif cls is full_or:
                kt, kf = _fe(p.right, kt, kt, done), _fe(p.right, kt, kf, done)
            elif cls is sc_and:
                kt = _fe(p.right, kt, kf, done)
            elif cls is sc_or:
                kf = _fe(p.right, kt, kf, done)
            elif cls is const_u:
                r = UNDEF
                break
            elif cls is var and p in done:
                r = subst(done[p], kt, kf)
                break
            else:
                raise TypeError(f"not {what}: {p!r}")
            p = p.left
        if key is not None:
            done[key] = r
        return r

    return _fe


_fe = evaluator("a closed expression", syntax.Atom, syntax.ConstT, syntax.ConstF, syntax.Not,
                syntax.FullAnd, syntax.FullOr, const_u=syntax.ConstU, var=syntax.Var)


def tree_of(fe, p, done: dict) -> EvalTree:
    """fe(p, T, F, done), refusing a p nested too deeply to the right."""
    try:
        return fe(p, TRUE, FALSE, done)
    except RecursionError:
        raise ValueError("input nested too deeply") from None


def fe_open(t: syntax.Expr, env: dict[str, EvalTree]) -> EvalTree:
    """The full evaluation tree of t, each variable's tree read from env."""
    return tree_of(_fe, t, {syntax.Var(n): x for n, x in env.items()})


def fe_u(p: syntax.Expr) -> EvalTree:
    """Full evaluation tree over three truth values."""
    return tree_of(_fe, p, {})


# _prune's computed table: for each (atom, side), the fold clauses of that
# restriction and its table.
_PRUNE_CACHE: dict[tuple, tuple[dict, dict]] = tables.computed()
_MEMO_CACHE: dict[EvalTree, EvalTree] = tables.computed()


def _prune(atom: str, x: EvalTree, side: int) -> EvalTree:
    """x with every node labelled atom replaced by its child on side, 0 or 1."""
    walk = _PRUNE_CACHE.get((atom, side))
    if walk is None:

        def restrict(t, l, r):
            return (l, r)[side] if t.atom == atom else node(t.atom, l, r)

        walk = _PRUNE_CACHE[atom, side] = ({**REBUILD, Node: restrict}, {})
    clauses, done = walk
    r = done.get(x)
    if r is None:
        r = fold(x, clauses, "an evaluation tree", done)
    return r


def la(atom: str, x: EvalTree) -> EvalTree:
    """Prune every node labelled atom to its left child."""
    return _prune(atom, x, 0)


def ra(atom: str, x: EvalTree) -> EvalTree:
    """Prune every node labelled atom to its right child."""
    return _prune(atom, x, 1)


def _memo_leaf(x: Leaf) -> Leaf:
    if x.kind in ("D", "D1", "D2"):
        raise ValueError("tree contains placeholder leaves")
    return x


# memo's clauses for tables.fold.  The paper memorises top-down, node(a,
# memo(la(a, l)), memo(ra(a, r))); restriction commutes with memorisation,
# so restricting the memorised children gives the same tree bottom-up.  A
# placeholder leaf D, D1 or D2 is refused, so none is ever memorised.
MEMORISE = {Leaf: _memo_leaf, Node: lambda x, l, r: node(x.atom, la(x.atom, l), ra(x.atom, r))}


def memo(x: EvalTree) -> EvalTree:
    """Memorisation: drop re-evaluations of an atom along each path."""
    r = _MEMO_CACHE.get(x)
    if r is None:
        r = fold(x, MEMORISE, "an evaluation tree", _MEMO_CACHE)
    return r


def perfect_tree(order, p: syntax.Expr) -> EvalTree:
    """The perfect tree over the atom sequence order of a U-free p.

    Every path reads each atom of order once, in that order, and ends in
    the value of p under the values read: the Shannon expansion of p, a
    quasi-reduced ordered decision diagram (Bryant, IEEE TC 1986).  Under
    memorisation every path of fe(p) reads the same atoms, so mfe, clfe
    and sfe are this tree over str_of(p), the sorted alphabet and beta.

    It is built bottom-up over p: an atom is a literal tree, & and | are
    applied level by level over the node() table, and ! is tree_not, since
    a perfect tree's negation is its leaf swap.  The computed tables of &
    and | live for one call; a tree's root determines its level, so the
    trees alone are the keys.
    """
    atoms = tuple(order)
    if len(set(atoms)) != len(atoms):
        raise ValueError(f"alphabet {order!r} repeats an atom")
    n = len(atoms)
    # top[i] / bot[i]: the perfect tree over atoms[i:] with every leaf T / F.
    top, bot = [TRUE] * (n + 1), [FALSE] * (n + 1)
    for i in reversed(range(n)):
        top[i] = node(atoms[i], top[i + 1], top[i + 1])
        bot[i] = node(atoms[i], bot[i + 1], bot[i + 1])
    level = {a: i for i, a in enumerate(atoms)}
    # The call's state, passed down the walk: no closure holds its tables.
    return _walk(p, (atoms, top, bot, level, p, {}, {}, {}))


# _apply(x, y, i, atoms, zero, one, table) is & with zero=bot, one=top and
# | with zero=top, one=bot: zero absorbs, one is the unit.  At level n every
# tree is a leaf, T or F, so a shortcut always applies.
def _apply(x: EvalTree, y: EvalTree, i: int, atoms, zero, one, table) -> EvalTree:
    if x is y or x is zero[i] or y is one[i]:
        return x
    if y is zero[i] or x is one[i]:
        return y
    r = table.get((x, y))
    if r is None:
        j = i + 1
        r = table[x, y] = node(
            atoms[i],
            _apply(x.left, y.left, j, atoms, zero, one, table),
            _apply(x.right, y.right, j, atoms, zero, one, table),
        )
    return r


def _walk(e: syntax.Expr, call: tuple) -> EvalTree:
    """The perfect tree of e, a subterm of the call's term p; it recurses
    once per operator on a path of e."""
    atoms, top, bot, level, p, ands, ors, done = call
    t = done.get(e)
    if t is None:
        cls = type(e)
        if cls is syntax.FullAnd:
            t = _apply(_walk(e.left, call), _walk(e.right, call), 0, atoms, bot, top, ands)
        elif cls is syntax.FullOr:
            t = _apply(_walk(e.left, call), _walk(e.right, call), 0, atoms, top, bot, ors)
        elif cls is syntax.Not:
            t = tree_not(_walk(e.operand, call))
        elif cls is syntax.Atom:
            k = level.get(e.name)
            if k is None:
                missing = sorted(syntax.alphabet(p) - level.keys())
                raise ValueError(f"atoms outside the alphabet: {', '.join(missing)}")
            t = node(e.name, top[k + 1], bot[k + 1])
            for i in reversed(range(k)):
                t = node(atoms[i], t, t)
        elif cls is syntax.ConstT:
            t = top[0]
        elif cls is syntax.ConstF:
            t = bot[0]
        elif cls is syntax.ConstU:
            raise ValueError("perfect_tree rejects U")
        else:
            raise TypeError(f"not a closed expression: {e!r}")
        done[e] = t
    return t


_F_TILDE_CACHE: dict[tuple, EvalTree] = tables.computed()


def f_tilde_tree(beta) -> EvalTree:
    """fe of the all-false prefix term over beta: a & (b & ... & F)."""
    beta = tuple(beta)
    t = _F_TILDE_CACHE.get(beta)
    if t is None:
        t = FALSE
        for a in reversed(beta):
            t = node(a, t, t)
        _F_TILDE_CACHE[beta] = t
    return t


def sfe_tree(beta, x: EvalTree) -> EvalTree:
    """The static tree over beta of a full evaluation tree x."""
    return memo(subst(f_tilde_tree(beta), TRUE, x))


_ATOMS_CACHE: dict[EvalTree, frozenset] = tables.computed()


# tree_atoms' clauses for tables.fold.
TREE_ATOMS = {Leaf: lambda x: frozenset(), Node: lambda x, l, r: l | r | {x.atom}}


def tree_atoms(x: EvalTree) -> frozenset:
    """The atoms labelling x; for x = fe_u(p), the alphabet of p."""
    r = _ATOMS_CACHE.get(x)
    if r is None:
        r = fold(x, TREE_ATOMS, "an evaluation tree", _ATOMS_CACHE)
    return r


# The logics, one row each: which tree a logic keeps of the full evaluation
# tree fe_u(p), and whether it admits U.
FREE = "free"  # fe_u(p) itself
MEMO = "memo"  # memo(fe_u(p)), the perfect tree over str_of(p)
SORTED = "sorted"  # the perfect tree over the sorted alphabet of p
SHARED = "shared"  # over beta, else the sorted alphabet both sides share
# A SORTED or SHARED tree of a term with U is the leaf U: U absorbs all.
LOGICS: dict[str, tuple[str, bool]] = {
    "ffel": (FREE, False),
    "ffelu": (FREE, True),
    "mfel": (MEMO, False),
    "mfelu": (MEMO, True),
    "clfel2": (SORTED, False),
    "clfel": (SORTED, True),
    "sfel": (SHARED, False),
}


@dataclass(frozen=True)
class Logic:
    """A row of LOGICS, with sfel's atom order beta if one is fixed."""

    name: str
    beta: tuple[str, ...] | None = None
    # The row's two columns, read from LOGICS once.
    tree: str = field(init=False, compare=False, repr=False)
    allows_u: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.name not in LOGICS:
            raise ValueError(f"unknown logic {self.name!r} (expected one of {', '.join(LOGICS)})")
        object.__setattr__(self, "tree", LOGICS[self.name][0])
        object.__setattr__(self, "allows_u", LOGICS[self.name][1])
        if self.beta is not None:
            if self.tree is not SHARED:
                raise ValueError(f"logic {self.name} does not take an alphabet")
            beta = tuple(syntax.Atom(a).name for a in self.beta)
            object.__setattr__(self, "beta", beta)

    def __str__(self):
        if self.beta is not None:
            return f"{self.name}({','.join(self.beta)})"
        return self.name


FFEL = Logic("ffel")
FFELU = Logic("ffelu")
MFEL = Logic("mfel")
MFELU = Logic("mfelu")
CLFEL2 = Logic("clfel2")
CLFEL = Logic("clfel")


def logic_by_name(name: str, beta=None) -> Logic:
    return Logic(name, beta)


def SFEL(beta=None) -> Logic:
    return Logic("sfel", beta)


def _static_order(logic: Logic, beta, atoms) -> tuple[str, ...]:
    if logic.tree is SHARED:
        if beta is None:
            beta = logic.beta
        if beta is not None:
            return beta
    return tuple(sorted(atoms))


def evaluate(logic: Logic, p: syntax.Expr, beta=None) -> EvalTree:
    """The evaluation tree of p in the given logic.

    The free logics build fe_u(p) and read whether p has U off its leftmost
    leaf: U aborts, so the tree of a term with U has only U leaves.  The
    others read p's atom order and the U test in one walk of p.  A U-free
    p then takes the perfect tree over the logic's atom order; with U, the
    memorised tree is the all-U chain over the atoms before the leftmost U
    and the static tree is U, both without building fe_u(p), which may be
    exponential.  perfect_tree recurses once per operator on a path of p:
    past the recursion limit it raises ValueError, as parse does.
    """
    if beta is not None:
        logic = Logic(logic.name, beta)  # ValueError unless the logic is sfel
    kind = logic.tree
    if kind is FREE:
        t = fe_u(p)
        if not logic.allows_u and spine(t)[1] is UNDEF:
            raise ValueError(f"logic {logic} accepts only U-free expressions")
        return t
    atoms, has_u = syntax.atoms_until_u(p)
    if has_u:
        if not logic.allows_u:
            raise ValueError(f"logic {logic} accepts only U-free expressions")
        t = UNDEF
        if kind is MEMO:
            for a in reversed(atoms):
                t = node(a, t, t)
        return t
    if kind is not MEMO:
        atoms = _static_order(logic, beta, atoms)
    try:
        return perfect_tree(atoms, p)
    except RecursionError:
        raise ValueError("input nested too deeply") from None


def from_full(logic: Logic, x: EvalTree, beta=None) -> EvalTree:
    """The logic's tree of a term whose full evaluation tree is x.

    This is the paper's definition: x itself, memo(x), or the static tree
    sfe_tree over the logic's atom order.  x has a U leaf exactly when its
    term has U, and then every leaf is U, so the leftmost leaf tells.
    """
    kind = logic.tree
    if kind is FREE:
        return x
    if kind is MEMO:
        return memo(x)
    if spine(x)[1] is UNDEF:
        return UNDEF
    return sfe_tree(_static_order(logic, beta, tree_atoms(x)), x)


def fe(p: syntax.Expr) -> EvalTree:
    """Full evaluation tree of a U-free expression."""
    return evaluate(FFEL, p)


def mfe(p: syntax.Expr) -> EvalTree:
    """Memorising evaluation: memo(fe(p)), the perfect tree over str_of(p)."""
    return evaluate(MFEL, p)


def mfe_u(p: syntax.Expr) -> EvalTree:
    return evaluate(MFELU, p)


def clfe(p: syntax.Expr) -> EvalTree:
    """Commutative memorising evaluation over the sorted alphabet of p."""
    return evaluate(CLFEL2, p)


def clfe_u(p: syntax.Expr) -> EvalTree:
    return evaluate(CLFEL, p)


def sfe(beta, p: syntax.Expr) -> EvalTree:
    """Static evaluation: perfect tree over beta, alphabet(p) within beta."""
    return evaluate(SFEL(beta), p)


@dataclass(frozen=True)
class EquivResult:
    equal: bool
    left_tree: EvalTree
    right_tree: EvalTree

    def __bool__(self):
        return self.equal


def both_sides(logic: Logic, left, right, one, atoms) -> tuple[EvalTree, EvalTree]:
    """one(logic, side, beta) of both sides of an equation, atoms(side) their atoms.

    An sfel without a fixed beta evaluates both sides over the sorted
    alphabet they share.
    """
    beta = None
    if logic.tree is SHARED and logic.beta is None:
        beta = tuple(sorted(atoms(left) | atoms(right)))
    return one(logic, left, beta), one(logic, right, beta)


def equiv(logic: Logic, p: syntax.Expr, q: syntax.Expr) -> EquivResult:
    """Decide the logic's congruence by comparing evaluation trees."""
    tp, tq = both_sides(logic, p, q, evaluate, syntax.alphabet)
    return EquivResult(tp == tq, tp, tq)
