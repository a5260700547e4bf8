"""tables.fold and the walks built on it.

Every syntactic map over terms and trees is a fold, the hot substitution
and memorisation too (subst, memo, la, ra), the leaf walk under atoms_of
and contains_u, and the compiler of the finite models' cell reads; save
the full evaluator under fe_u, fe_open and se, the perfect tree's apply
and the fnf algebra: one explicit-stack loop over the distinct subterms.
So it answers at any depth, where a recursive walk raised RecursionError,
and it names what it expected when given a foreign class.  The functions of fel that still
call themselves are pinned below, as are the RecursionError handlers.
"""

import ast
import pathlib

import pytest

import fel
from fel import axioms, evaltree, fnf, models, normalforms, scl, semantics, syntax
from fel.evaltree import FALSE, HOLE1, TRUE, node
from fel.fnf import FnfCategory
from fel.tables import fold

A = syntax.mk_atom("a")


def _balanced(n):
    """The balanced conjunction of n a's: 11 levels deep for 2,048."""
    level = [A] * n
    while len(level) > 1:
        level = [syntax.mk_and(level[i], level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


def _spine(n, bottom=TRUE):
    """The tree a(a(...(bottom, F)..., F), F), n nodes down its left spine."""
    t = bottom
    for _ in range(n):
        t = node("a", t, FALSE)
    return t


def _left_depth(d):
    n = 0
    while "left" in d:
        d, n = d["left"], n + 1
    return n


TERMS = {
    "chain": lambda: syntax.parse(" & ".join(["a"] * 1200)),
    "balanced": lambda: _balanced(2048),
}

# Each entry's call on a term and a check of its answer.
ON_TERMS = {
    "nnf": lambda e: syntax.nnf(syntax.mk_not(syntax.mk_not(e))) is e,
    "dual": lambda e: syntax.dual(e) is not e and syntax.dual(syntax.dual(e)) is e,
    "translate_t": lambda e: scl.translate_t(e).right is scl.translate_t(e.right),
    "memo, fe_open": lambda e: semantics.memo(semantics.fe_open(e, {})) is node("a", TRUE, FALSE),
    "classify": lambda e: fnf.classify(e) is FnfCategory.NOT_FNF,
    "variables_of": lambda e: axioms.variables_of(e) == set(),
    "axioms._to_open": lambda e: axioms._to_open(e) is e,
    "instantiate": lambda e: axioms.instantiate(axioms.Equation("E", e, e), {}) == (e, e),
    "se, fe_open": lambda e: scl.se(scl.translate_t(e)) is semantics.fe_open(e, {}),
    "atoms_of": lambda e: syntax.atoms_of(e) == ("a",),
    "atoms_until_u": lambda e: syntax.atoms_until_u(e) == (("a",), False),
    "contains_u": lambda e: not syntax.contains_u(e),
    "str_of": lambda e: syntax.str_of(e) == "a",
}
# The finite models compile an open term by a fold; asked on the chain with
# x for a.
ON_OPEN_TERMS = {
    "eval_open_term": lambda t: models.eval_open_term(models.BOOLEAN_MODEL, t, {"x": 0}) == 0,
    "check_equation_in_model": lambda t: models.check_equation_in_model(
        models.BOOLEAN_MODEL, axioms.Equation("E", t, syntax.Var("x"))),
}
# normalize_ffel's fold calls the fnf algebra, which stays recursive and
# recurses down the normal forms it builds: for the balanced term those are
# 2,048 levels deep, so the chain alone is asked.
ON_THE_CHAIN = {
    "normalize_ffel": lambda e: fnf.classify(fnf.normalize_ffel(e)) is FnfCategory.T_STAR_TERM,
}
ON_TREES = {
    "depth": lambda x: evaltree.depth(x) == 1200,
    "tree_to_json": lambda x: _left_depth(evaltree.tree_to_json(x)) == 1200,
    "tree_atoms": lambda x: semantics.tree_atoms(x) == {"a"},
    "leaf_kinds": lambda x: evaltree.leaf_kinds(x) == {"T", "F"},
    "iter_subtrees": lambda x: len(list(evaltree.iter_subtrees(x))) == 1202,
    "invert's contexts": lambda x: fold(x, evaltree.REBUILD, "a tree", {TRUE: HOLE1}) is _spine(1200, HOLE1),
    "read-back": lambda x: normalforms._sigma_nf(x, None).sigma == ("a",) * 1200,
    "render dot": lambda x: evaltree.render(x, "dot").count("->") == 2400,
    "memo": lambda x: semantics.memo(x) is node("a", TRUE, FALSE),
    "from_full(MFEL)": lambda x: semantics.from_full(semantics.MFEL, x) is node("a", TRUE, FALSE),
    "sfe_tree": lambda x: semantics.sfe_tree(("a",), x) is node("a", TRUE, FALSE),
    "tree_not": lambda x: semantics.tree_not(semantics.tree_not(x)) is x,
    "la": lambda x: semantics.la("a", x) is TRUE,
    "ra": lambda x: semantics.ra("a", x) is FALSE,
}

CASES = (
    [(name, t) for name in ON_TERMS for t in TERMS]
    + [(name, "chain") for name in ON_THE_CHAIN]
    + [(name, "open chain") for name in ON_OPEN_TERMS]
    + [(name, "spine") for name in ON_TREES]
)
DATA = {
    **TERMS,
    "open chain": lambda: axioms._to_open(syntax.parse(" & ".join(["x"] * 1200))),
    "spine": lambda: _spine(1200),
}


@pytest.mark.parametrize("entry, data", CASES)
def test_folded_walks_answer_at_any_depth(entry, data):
    check = {**ON_TERMS, **ON_THE_CHAIN, **ON_OPEN_TERMS, **ON_TREES}[entry]
    assert check(DATA[data]())


FOREIGN = {
    "nnf": syntax.nnf,
    "dual": syntax.dual,
    "translate_t": scl.translate_t,
    "fe_open": lambda e: semantics.fe_open(e, {}),
    "classify": fnf.classify,
    "normalize_ffel": fnf.normalize_ffel,
    "variables_of": axioms.variables_of,
    "leaf_kinds": evaltree.leaf_kinds,
    "iter_subtrees": evaltree.iter_subtrees,
    "subst": lambda e: evaltree.subst(e, TRUE, FALSE),
    "la": lambda e: semantics.la("a", e),
    "contains_u": syntax.contains_u,
    "atoms_of": syntax.atoms_of,
}


@pytest.mark.parametrize("entry", FOREIGN)
def test_a_foreign_class_raises_type_error(entry):
    # A short-circuit atom is no expression.
    with pytest.raises(TypeError, match="^not an? "):
        FOREIGN[entry](syntax.mk_and(A, scl.Atom("a")))


def test_a_foreign_class_in_a_tree_or_short_circuit_term_raises_type_error():
    with pytest.raises(TypeError, match="^not a short-circuit expression"):
        scl.se(scl.ScAnd(scl.Atom("a"), TRUE))
    with pytest.raises(TypeError, match="^not an evaluation tree"):
        evaltree.depth(node("a", TRUE, A))


def test_fold_values_each_distinct_subterm_once_children_first():
    seen = []
    count = {
        syntax.Atom: lambda e: seen.append(e) or 1,
        syntax.FullAnd: lambda e, l, r: seen.append(e) or l + r,
    }
    e = _balanced(2048)
    assert fold(e, count, "a conjunction") == 2048
    assert len(seen) == 12 and seen[0] is A and seen[-1] is e
    # A seeded subterm is not entered, and every value computed is recorded.
    done = {e.left: 1}
    assert fold(e, count, "a conjunction", done) == 2
    assert seen[12:] == [e] and done == {e.left: 1, e: 2}
    seen.clear()
    b_and_a = syntax.mk_and(syntax.mk_atom("b"), A)
    assert fold(b_and_a, count, "a conjunction") == 2
    assert seen == [b_and_a.left, A, b_and_a]  # left before right
    with pytest.raises(TypeError, match="^not a conjunction: <expr !a>"):
        fold(syntax.mk_and(A, syntax.mk_not(A)), count, "a conjunction")


def _recursion_error_sites():
    """(module, function) of each `except RecursionError` in fel's sources."""
    sites = []
    for path in sorted(pathlib.Path(fel.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for h in ast.walk(fn):
                    if isinstance(h, ast.ExceptHandler) and ast.unparse(h.type) == "RecursionError":
                        sites.append((path.stem, fn.name))
    return sorted(sites)


def test_recursion_error_is_caught_only_where_a_walk_still_recurses():
    # The CLI boundary; tree_from_json and render, around json's recursion
    # (and tree_from_json's walk); normalize_ffel, around the fnf algebra;
    # evaluate, around perfect_tree; tree_of, around the full evaluator.
    assert _recursion_error_sites() == [
        ("cli", "invoke"),
        ("evaltree", "render"),
        ("evaltree", "tree_from_json"),
        ("fnf", "normalize_ffel"),
        ("semantics", "evaluate"),
        ("semantics", "tree_of"),
    ]


def _self_calling_functions():
    """(module, function) of each function in fel's sources that calls itself
    by name, or a method that calls itself through self."""
    sites = []
    for path in sorted(pathlib.Path(fel.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(fn):
                    f = getattr(call, "func", None)
                    if (isinstance(f, ast.Name) and f.id == fn.name) or (
                        isinstance(f, ast.Attribute) and f.attr == fn.name
                        and isinstance(f.value, ast.Name) and f.value.id == "self"
                    ):
                        sites.append((path.stem, fn.name))
                        break
    return sorted(sites)


def test_the_recursive_functions_are_the_ones_readme_names():
    # README's "stay recursive" list: each walk below recurses on purpose,
    # or over a size bounded apart from the input's depth.
    assert _self_calling_functions() == [
        ("axioms", "_product"),
        ("axioms", "_random_term"),
        ("evaltree", "_from_json"),
        ("fnf", "_merge_t_star"),
        ("fnf", "_negate_star"),
        ("fnf", "_push_t"),
        ("fnf", "_to_f"),
        ("fnf", "fnf_and"),
        ("fnf", "fnf_negate"),
        ("invert", "g_star"),
        ("models", "search"),
        ("normalforms", "_bodies"),
        ("normalforms", "_permute"),
        ("semantics", "_apply"),
        ("semantics", "_fe"),
        ("semantics", "_walk"),
    ]
