"""Axiom tables and semantic validity checking by instance enumeration.

Equations are open terms over the metavariables x, y, z, u, v, w.  An
equation is checked in a logic by substituting closed expressions for
its variables and comparing the two evaluation trees; this replaces
proof search, which is out of scope.  Verdicts therefore never claim
derivability: they are "valid-on-sample" or a concrete counterexample.

The exhaustive strategy enumerates all closed terms up to a syntactic
height bound, deduplicated by the checking logic's own evaluation tree
(sound because the logic's equivalence is a congruence), and caps the
assignment product at a deterministic instance bound.
"""

from __future__ import annotations

import itertools
import random as _random_mod
from dataclasses import dataclass, field

from . import semantics, syntax, tables
from .evaltree import FALSE, TRUE, UNDEF, EvalTree, node, subst
from .semantics import FREE, Logic, both_sides, from_full, memo, tree_atoms
from .syntax import Expr, Var
from .tables import fold

_VAR_NAMES = ("x", "y", "z", "u", "v", "w")

WITH_U = "with-U"
WITHOUT_U = "without-U"
SHORT_CIRCUIT = "short-circuit"


@dataclass(frozen=True)
class Equation:
    name: str
    lhs: Expr
    rhs: Expr
    signature: str = WITHOUT_U

    def __str__(self):
        return f"{self.name}: {syntax.print_expr(self.lhs)} = {syntax.print_expr(self.rhs)}"


@dataclass(frozen=True)
class AxiomSet:
    name: str
    equations: tuple[Equation, ...]

    def __iter__(self):
        return iter(self.equations)

    def __getitem__(self, name: str) -> Equation:
        for eq in self.equations:
            if eq.name == name:
                return eq
        raise KeyError(name)

    def without(self, name: str) -> "AxiomSet":
        rest = tuple(eq for eq in self.equations if eq.name != name)
        if len(rest) == len(self.equations):
            raise KeyError(name)
        return AxiomSet(f"{self.name}-{name}", rest)


# variables_of's clauses for tables.fold.
VARIABLES = {
    **dict.fromkeys((syntax.Atom, syntax.ConstT, syntax.ConstF, syntax.ConstU),
                    lambda t: frozenset()),
    Var: lambda t: frozenset((t.name,)),
    syntax.Not: lambda t, x: x,
    syntax.FullAnd: lambda t, l, r: l | r,
    syntax.FullOr: lambda t, l, r: l | r,
}


def variables_of(t: Expr) -> frozenset[str]:
    return fold(t, VARIABLES, "an open term")


def _to_open(e: Expr) -> Expr:
    """Reread the reserved atom names x,y,z,u,v,w as metavariables."""
    return fold(e, syntax.REBUILD, "an expression", {syntax.Atom(n): Var(n) for n in _VAR_NAMES})


def _eq(name: str, lhs: str, rhs: str, signature: str = WITHOUT_U) -> Equation:
    return Equation(name, _to_open(syntax.parse(lhs)), _to_open(syntax.parse(rhs)), signature)


def instantiate(eq: Equation, assignment: dict[str, Expr]) -> tuple[Expr, Expr]:
    """Substitute closed expressions for the variables of both sides."""
    missing = (variables_of(eq.lhs) | variables_of(eq.rhs)) - set(assignment)
    if missing:
        raise ValueError(f"assignment misses variables: {', '.join(sorted(missing))}")

    done = {Var(n): e for n, e in assignment.items()}
    lhs = fold(eq.lhs, syntax.REBUILD, "an open term", done)
    return lhs, fold(eq.rhs, syntax.REBUILD, "an open term", done)


# --- the axiom tables ---

_FE = (
    _eq("FFEL1", "F", "!T"),
    _eq("FFEL2", "x | y", "!(!x & !y)"),
    _eq("FFEL3", "!!x", "x"),
    _eq("FFEL4", "(x & y) & z", "x & (y & z)"),
    _eq("FFEL5", "T & x", "x"),
    _eq("FFEL6", "x & T", "x"),
    _eq("FFEL7", "x & F", "F & x"),
    _eq("FFEL8", "!x & F", "x & F"),
    _eq("FFEL9", "(x & F) | y", "(x | T) & y"),
    _eq("FFEL10", "x | (y & F)", "x & (y | T)"),
)

_U1 = _eq("U1", "!U", "U", WITH_U)
_U2 = _eq("U2", "U & x", "U", WITH_U)

_M1 = _eq("M1", "(x | y) & z", "(!x & (y & z)) | (x & z)")
_COMM = _eq("Comm", "x & y", "y & x")
_ANDF = _eq("AndF", "x & F", "F")

EQFFEL = AxiomSet("eqffel", _FE)
EQFFELU = AxiomSet("eqffelu", _FE + (_U1, _U2))
EQMFEL = AxiomSet("eqmfel", _FE + (_M1,))
EQMFELU = AxiomSet("eqmfelu", _FE + (_M1, _U1, _U2))
EQCLFEL2 = AxiomSet("eqclfel2", _FE + (_M1, _COMM))
EQCLFELU = AxiomSet("eqclfelu", _FE + (_M1, _U1, _U2, _COMM))
EQSFEL = AxiomSet("eqsfel", _FE + (_M1, _COMM, _ANDF))

_MF_CORE = (
    _eq("MF1", "x | y", "!(!x & !y)"),
    _eq("MF2", "!!x", "x"),
    _eq("MF3", "T & x", "x"),
    _eq("MF4", "(x | y) & z", "(!x & (y & z)) | (x & z)"),
    _eq("MF5", "(x & y) | x", "x | (y & F)"),
)
MF = AxiomSet("mf", _MF_CORE + (_eq("MF6", "x & (y | z)", "(x & y) | (x & z)"),))
CF = AxiomSet("cf", (_eq("Comm", "x & y", "y & x"),) + _MF_CORE)
SF = AxiomSet("sf", (_eq("AndF", "x & F", "F"),) + _MF_CORE)

EQSSCL = AxiomSet(
    "eqsscl",
    (
        _eq("Mem1", "F", "!T", SHORT_CIRCUIT),
        _eq("Mem2", "x | y", "!(!x & !y)", SHORT_CIRCUIT),
        _eq("Mem3", "T & x", "x", SHORT_CIRCUIT),
        _eq("Mem4", "x & (x | y)", "x", SHORT_CIRCUIT),
        _eq("Mem5", "(x | y) & z", "(!x & (y & z)) | (x & z)", SHORT_CIRCUIT),
        _eq("Comm", "x & y", "y & x", SHORT_CIRCUIT),
    ),
)

BOCHVAR = AxiomSet(
    "bochvar",
    (
        _eq("S1", "!T", "F"),
        _eq("S2", "!U", "U", WITH_U),
        _eq("S3", "!!x", "x"),
        _eq("S4", "!(x & y)", "!x | !y"),
        _eq("S6", "(x & y) & z", "x & (y & z)"),
        _eq("S7", "T & x", "x"),
        _eq("S8", "x | (!x & y)", "x | y"),
        _eq("S9", "x & y", "y & x"),
        _eq("S10", "x & (y | z)", "(x & y) | (x & z)"),
        _eq("S11", "U & x", "U", WITH_U),
    ),
)

LEMMA26 = AxiomSet(
    "lemma26",
    (
        _eq("L26.1", "x & (y & F)", "!x & (y & F)"),
        _eq("L26.2", "(x | T) & y", "!(x | T) | y"),
        _eq("L26.3", "x | (y & (z | T))", "(x | y) & (z | T)"),
    ),
)

C1C4 = AxiomSet(
    "c1c4",
    (
        _eq("C1", "x & (y & x)", "x & y"),
        _eq("C2", "(x & y) | x", "x & (y | x)"),
        _eq("C3", "(x & y) | (!x & z)", "(!x | y) & (x | z)"),
        _eq("C4", "x & (y | z)", "(x & y) | (x & z)"),
    ),
)

CRUX = AxiomSet(
    "crux",
    (
        _eq(
            "HAnd",
            "((x & y) | (!x & z)) & w",
            "(x & ((y | (z & F)) & w)) | (!x & (z & w))",
        ),
        _eq(
            "HOr",
            "((x & y) | (!x & z)) | w",
            "(x & ((y & (z | T)) | w)) | (!x & (z | w))",
        ),
    ),
)

CRUXSWAP = AxiomSet(
    "cruxswap",
    (
        _eq(
            "HSwap",
            "(x & ((y & z) | (!y & u))) | (!x & ((y & v) | (!y & w)))",
            "(y & ((x & z) | (!x & v))) | (!y & ((x & u) | (!x & w)))",
        ),
    ),
)

AUX0 = AxiomSet(
    "aux0",
    (
        _eq("A1", "x | (y & U)", "(x | y) & U", WITH_U),
        _eq("A2", "x | (y & U)", "x & (y & U)", WITH_U),
        _eq("A3", "!x & (y & U)", "x & (y & U)", WITH_U),
    ),
)

LEMMAB = AxiomSet("lemmaB", (_eq("B", "(x & F) | (x & y)", "(x & F) | (y & x)"),))

BUILTIN_SETS: dict[str, AxiomSet] = {
    s.name: s
    for s in (
        EQFFEL, EQFFELU, EQMFEL, EQMFELU, EQCLFEL2, EQCLFELU, EQSFEL,
        MF, CF, SF, EQSSCL, BOCHVAR,
        LEMMA26, C1C4, CRUX, CRUXSWAP, AUX0, LEMMAB,
    )
}

# The logic each built-in set axiomatizes or is a consequence list of.
OWN_LOGIC: dict[str, Logic] = {
    "eqffel": semantics.FFEL,
    "eqffelu": semantics.FFELU,
    "eqmfel": semantics.MFEL,
    "eqmfelu": semantics.MFELU,
    "eqclfel2": semantics.CLFEL2,
    "eqclfelu": semantics.CLFEL,
    "eqsfel": semantics.SFEL(),
    "mf": semantics.MFEL,
    "cf": semantics.CLFEL2,
    "sf": semantics.SFEL(),
    "eqsscl": semantics.SFEL(),
    "bochvar": semantics.CLFEL,
    "lemma26": semantics.FFEL,
    "c1c4": semantics.MFEL,
    "crux": semantics.MFEL,
    "cruxswap": semantics.CLFEL2,
    "aux0": semantics.FFELU,
    "lemmaB": semantics.MFEL,
}


# --- strategies ---

@dataclass(frozen=True)
class Exhaustive:
    atoms: tuple[str, ...] = ("a", "b")
    depth: int = 3
    max_instances: int = 2_000_000

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"depth must be at least 1, got {self.depth}")
        if self.max_instances < 1:
            raise ValueError(f"max_instances must be at least 1, got {self.max_instances}")


@dataclass(frozen=True)
class Random:
    count: int = 100
    seed: int = 0
    atoms: tuple[str, ...] = ("a", "b")
    height: int = 4

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be at least 1, got {self.count}")


# --- instance evaluation at the tree level ---

class _Plan:
    """An equation's two sides as one list of leaf substitutions.

    Slot k < len(names) holds the tree of the k-th variable; every other
    slot is a constant leaf or a step subst(v[a], v[b], v[c]), so that
    tree_not, tree_and and tree_or are one, two and two steps, and a step
    shared by both sides is made once.  A step runs at the level of the
    last variable it reads (-1 for none): in the product loop, with the
    first variable outermost, x | y in (x | y) & z is built once per
    (x, y).  In a logic that memorises, each connective's tree is
    memorised, which is exact: memo(x[T:=y, F:=z]) is
    memo(memo(x)[T:=memo(y), F:=memo(z)]), and from_full(logic, memo(x))
    is from_full(logic, x).
    """

    __slots__ = ("logic", "init", "levels", "lhs", "rhs")

    def __init__(self, logic: Logic, eq: Equation, names: list[str]):
        self.logic = logic
        self.init: list = [None] * len(names)
        self.levels: list[list] = [[] for _ in range(len(names) + 1)]
        # (slot, level) of each variable, leaf tree, subterm and step.
        index: dict = {Var(n): (k, k) for k, n in enumerate(names)}
        memorise = logic.tree is not FREE

        def leaf(t: EvalTree) -> tuple[int, int]:
            r = index.get(t)
            if r is None:
                r = index[t] = (len(self.init), -1)
                self.init.append(t)
            return r

        def step(a, b, c, memorise: bool = memorise) -> tuple[int, int]:
            key = (a[0], b[0], c[0], memorise)
            r = index.get(key)
            if r is None:
                level = max(a[1], b[1], c[1])
                r = index[key] = (len(self.init), level)
                self.init.append(None)
                self.levels[level + 1].append((r[0], a[0], b[0], c[0], memorise))
            return r

        # A side's (slot, level), with the steps it needs added.
        clauses = {
            syntax.Not: lambda t, x: step(x, leaf(FALSE), leaf(TRUE)),
            syntax.FullAnd: lambda t, x, y: step(x, y, step(y, leaf(FALSE), leaf(FALSE), False)),
            syntax.FullOr: lambda t, x, y: step(x, step(y, leaf(TRUE), leaf(TRUE), False), y),
            syntax.Atom: lambda t: leaf(node(t.name, TRUE, FALSE)),
            syntax.ConstT: lambda t: leaf(TRUE),
            syntax.ConstF: lambda t: leaf(FALSE),
            syntax.ConstU: lambda t: leaf(UNDEF),
        }
        self.lhs = fold(eq.lhs, clauses, "an open term", index)[0]
        self.rhs = fold(eq.rhs, clauses, "an open term", index)[0]

    def run(self, v: list, level: int) -> None:
        """Run the steps of a level, its variables set in v."""
        for out, a, b, c, memorise in self.levels[level + 1]:
            r = subst(v[a], v[b], v[c])
            v[out] = memo(r) if memorise else r

    def load(self, trees: list[EvalTree]) -> list:
        """The slots, the variables' trees given in order and every level run."""
        v = list(self.init)
        v[: len(trees)] = trees
        for level in range(-1, len(trees)):
            self.run(v, level)
        return v

    def refute(self, v: list) -> tuple[EvalTree, EvalTree] | None:
        """The logic's trees of both sides if they differ, else None.

        Sides that are one tree are not mapped into the logic: from_full
        is a function of the tree, and both_sides reads sfel's alphabet
        off the two trees, so their logic trees are one tree too.
        """
        lt, rt = v[self.lhs], v[self.rhs]
        if lt is rt:
            return None
        lt, rt = both_sides(self.logic, lt, rt, from_full, tree_atoms)
        return None if lt is rt else (lt, rt)


# --- closed-term universes and their per-logic quotients ---

_UNIVERSE_CACHE: dict[tuple, list[Expr]] = tables.computed()
_TREES_CACHE: dict[tuple, list] = tables.computed()
_CLASS_CACHE: dict[tuple, list] = tables.computed()


def _leaves(atoms: tuple[str, ...], allow_u: bool) -> list[Expr]:
    """The terms of height 1: the atoms, T, F, and U if allowed."""
    return [syntax.mk_atom(a) for a in atoms] + [syntax.TRUE, syntax.FALSE] + (
        [syntax.UNDEF] if allow_u else [])


def _universe(atoms: tuple[str, ...], depth: int, allow_u: bool) -> list[Expr]:
    key = (atoms, depth, allow_u)
    terms = _UNIVERSE_CACHE.get(key)
    if terms is not None:
        return terms
    exact = [_leaves(atoms, allow_u)]  # exact[k] = terms of height k+1
    for h in range(2, depth + 1):
        upto_prev = [t for lvl in exact for t in lvl]
        prev = exact[-1]
        below = [t for lvl in exact[:-1] for t in lvl]
        level: list[Expr] = [syntax.mk_not(t) for t in prev]
        for l, r in itertools.chain(
            itertools.product(prev, upto_prev), itertools.product(below, prev)
        ):
            level.append(syntax.mk_and(l, r))
            level.append(syntax.mk_or(l, r))
        exact.append(level)
    terms = [t for lvl in exact for t in lvl]
    _UNIVERSE_CACHE[key] = terms
    return terms


def _trees(atoms: tuple[str, ...], depth: int, allow_u: bool) -> list[tuple[Expr, EvalTree]]:
    """(term, fe_u(term)) for the first term of the universe with each full tree.

    Every logic's tree is a function of the full tree, so the logics that
    quotient one universe share this list, and it is built once.
    """
    key = (atoms, depth, allow_u)
    pairs = _TREES_CACHE.get(key)
    if pairs is None:
        first: dict[EvalTree, Expr] = {}
        for t in _universe(atoms, depth, allow_u):
            first.setdefault(semantics.fe_u(t), t)
        pairs = _TREES_CACHE[key] = [(t, tree) for tree, t in first.items()]
    return pairs


def _classes(logic: Logic, atoms: tuple[str, ...], depth: int, allow_u: bool):
    """One smallest representative per logic-equivalence class of the universe."""
    key = (logic, atoms, depth, allow_u)
    reps = _CLASS_CACHE.get(key)
    if reps is not None:
        return reps
    seen = {}
    for t, tree in _trees(atoms, depth, allow_u):
        k = from_full(logic, tree)
        if k not in seen:
            seen[k] = (t, tree if logic.tree is FREE else memo(tree))
    reps = list(seen.values())
    _CLASS_CACHE[key] = reps
    return reps


def _random_term(rng, pool: list[Expr], height: int) -> Expr:
    """A random term of height at most height over the leaves in pool."""
    if height <= 1 or rng.random() < 0.3:
        return rng.choice(pool)
    k = rng.randrange(3)
    if k == 0:
        return syntax.mk_not(_random_term(rng, pool, height - 1))
    l = _random_term(rng, pool, height - 1)
    r = _random_term(rng, pool, height - 1)
    return syntax.mk_and(l, r) if k == 1 else syntax.mk_or(l, r)


# --- verdicts ---

@dataclass
class Verdict:
    status: str  # "valid-on-sample" | "counterexample"
    equation: Equation
    instances: int
    assignment: dict[str, Expr] | None = None
    left_tree: EvalTree | None = None
    right_tree: EvalTree | None = None
    note: str = ""

    def __bool__(self):
        return self.status == "valid-on-sample"


@dataclass
class Report:
    set_name: str
    logic: Logic
    verdicts: list[Verdict] = field(default_factory=list)

    @property
    def all_valid(self) -> bool:
        return all(self.verdicts)

    def __iter__(self):
        return iter(self.verdicts)


def _product(plan: _Plan, v: list, trees: list, k: int, idx: list[int]):
    """Run the instances whose variables before k are set in v, in the order
    of itertools.product(trees, repeat=len(idx)), the k-th variable's trees
    read from trees[idx[k]]: (instances run, the first counterexample's
    trees or None)."""
    if k == len(idx):
        return 1, plan.refute(v)
    checked = 0
    for i, t in enumerate(trees):
        idx[k], v[k] = i, t
        plan.run(v, k)
        n, bad = _product(plan, v, trees, k + 1, idx)
        checked += n
        if bad is not None:
            return checked, bad
    return checked, None


def check_validity(logic: Logic, eq: Equation, strategy) -> Verdict:
    """Check one equation on closed instances; never claims derivability."""
    if eq.signature == WITH_U and not logic.allows_u:
        raise ValueError(f"equation {eq.name} needs U, which {logic} lacks")
    names = sorted(variables_of(eq.lhs) | variables_of(eq.rhs))
    allow_u = logic.allows_u

    plan = _Plan(logic, eq, names)
    if isinstance(strategy, Exhaustive):
        atoms = tuple(strategy.atoms)
        reps = _classes(logic, atoms, strategy.depth, allow_u) if names else []
        note = ""
        if names and len(reps) ** len(names) > strategy.max_instances:
            cap = len(reps) - 1  # the most classes whose product fits
            while cap ** len(names) > strategy.max_instances:
                cap -= 1
            reps = reps[:cap]
            note = f"truncated to {cap} classes per variable"
        v = list(plan.init)
        plan.run(v, -1)
        idx = [0] * len(names)
        checked, bad = _product(plan, v, [c[1] for c in reps], 0, idx)
        if bad is not None:
            assignment = {n: reps[i][0] for n, i in zip(names, idx)}
            return Verdict("counterexample", eq, checked, assignment, *bad, note)
        return Verdict("valid-on-sample", eq, checked, note=note)

    if isinstance(strategy, Random):
        rng = _random_mod.Random(strategy.seed)
        pool = _leaves(tuple(strategy.atoms), allow_u)
        free = logic.tree is FREE
        for i in range(strategy.count):
            assignment = {n: _random_term(rng, pool, strategy.height) for n in names}
            trees = [semantics.fe_u(assignment[n]) for n in names]
            bad = plan.refute(plan.load(trees if free else [memo(t) for t in trees]))
            if bad is not None:
                return Verdict("counterexample", eq, i + 1, assignment, *bad)
        return Verdict("valid-on-sample", eq, strategy.count)

    raise TypeError(f"unknown strategy {strategy!r}")


def check_set(logic: Logic, axset: AxiomSet, strategy) -> Report:
    """Check every equation of a set; first counterexample per equation."""
    report = Report(axset.name, logic)
    for eq in axset:
        report.verdicts.append(check_validity(logic, eq, strategy))
    return report
