import itertools
import random

import pytest

from fel import axioms, semantics, syntax
from fel.axioms import (
    BUILTIN_SETS,
    OWN_LOGIC,
    Equation,
    Exhaustive,
    Random,
    check_set,
    check_validity,
    instantiate,
    variables_of,
)

P = syntax.parse


def test_builtin_set_shapes():
    assert len(BUILTIN_SETS["eqffel"].equations) == 10
    assert len(BUILTIN_SETS["eqffelu"].equations) == 12
    assert len(BUILTIN_SETS["eqmfel"].equations) == 11
    assert len(BUILTIN_SETS["eqclfel2"].equations) == 12
    assert len(BUILTIN_SETS["eqsfel"].equations) == 13
    assert len(BUILTIN_SETS["mf"].equations) == 6
    assert len(BUILTIN_SETS["cf"].equations) == 6
    assert len(BUILTIN_SETS["sf"].equations) == 6
    assert len(BUILTIN_SETS["eqsscl"].equations) == 6
    assert len(BUILTIN_SETS["bochvar"].equations) == 10
    assert set(BUILTIN_SETS) == set(OWN_LOGIC)
    # cf and sf drop the distributivity axiom of mf
    assert all(eq.name != "MF6" for eq in BUILTIN_SETS["cf"])
    assert all(eq.name != "MF6" for eq in BUILTIN_SETS["sf"])


def test_equation_terms_are_open():
    eq = BUILTIN_SETS["eqffel"]["FFEL8"]
    assert variables_of(eq.lhs) == {"x"}
    assert syntax.print_expr(eq.lhs) == "!x & F"


def test_instantiate():
    eq = BUILTIN_SETS["eqffel"]["FFEL7"]
    l, r = instantiate(eq, {"x": P("a")})
    assert (l, r) == (P("a & F"), P("F & a"))

    m1 = BUILTIN_SETS["eqmfel"]["M1"]
    l, r = instantiate(m1, {"x": P("a"), "y": P("b"), "z": P("c")})
    assert l == P("(a | b) & c")
    assert r == P("(!a & (b & c)) | (a & c)")

    u1 = BUILTIN_SETS["eqffelu"]["U1"]
    assert instantiate(u1, {}) == (P("!U"), P("U"))

    with pytest.raises(ValueError):
        instantiate(m1, {"x": P("a")})


def test_check_validity_examples():
    v = check_validity(semantics.FFEL, BUILTIN_SETS["eqffel"]["FFEL8"], Exhaustive(depth=2))
    assert v.status == "valid-on-sample"

    idem = axioms._eq("Idem", "x & x", "x")
    v = check_validity(semantics.FFEL, idem, Random(100, 3))
    assert v.status == "counterexample"
    l, r = instantiate(idem, v.assignment)
    assert semantics.fe(l) != semantics.fe(r)

    v = check_validity(semantics.MFEL, idem, Exhaustive(depth=2))
    assert v.status == "valid-on-sample"

    v = check_validity(semantics.CLFEL, BUILTIN_SETS["bochvar"]["S8"], Random(200, 5))
    assert v.status == "valid-on-sample"


def test_check_validity_rejects_u_equation_in_two_valued_logic():
    with pytest.raises(ValueError):
        check_validity(semantics.FFEL, BUILTIN_SETS["eqffelu"]["U2"], Random(10, 0))


def test_separating_counterexamples():
    idem = axioms._eq("Idem", "x & x", "x")
    comm = axioms._eq("Comm", "x & y", "y & x")
    andf = axioms._eq("AndF", "x & F", "F")
    assert check_validity(semantics.FFEL, idem, Random(100, 0)).status == "counterexample"
    assert check_validity(semantics.MFEL, comm, Random(100, 0)).status == "counterexample"
    assert check_validity(semantics.CLFEL2, andf, Random(100, 0)).status == "counterexample"
    # and each is valid one level up the hierarchy
    assert check_validity(semantics.MFEL, idem, Random(100, 0)).status == "valid-on-sample"
    assert check_validity(semantics.CLFEL2, comm, Random(100, 0)).status == "valid-on-sample"
    assert check_validity(semantics.SFEL(), andf, Random(100, 0)).status == "valid-on-sample"


def test_check_set_report():
    rep = check_set(semantics.FFEL, BUILTIN_SETS["eqffel"], Exhaustive(atoms=("a",), depth=2))
    assert rep.all_valid
    assert len(rep.verdicts) == 10
    assert all(v.status == "valid-on-sample" for v in rep)


def test_every_builtin_set_valid_in_own_logic_small():
    strat = Exhaustive(depth=2, max_instances=10000)
    for name, axset in BUILTIN_SETS.items():
        rep = check_set(OWN_LOGIC[name], axset, strat)
        assert rep.all_valid, f"{name}: {[v.equation.name for v in rep if not v]}"


def test_duality_of_eqffel():
    strat = Exhaustive(depth=2, max_instances=5000)
    for eq in BUILTIN_SETS["eqffel"]:
        dual_eq = Equation(eq.name + "-dual", syntax.dual(eq.lhs), syntax.dual(eq.rhs))
        v = check_validity(semantics.FFEL, dual_eq, strat)
        assert v.status == "valid-on-sample", eq.name


def test_truncation_is_reported():
    strat = Exhaustive(depth=3, max_instances=100)
    v = check_validity(semantics.FFEL, BUILTIN_SETS["eqffel"]["FFEL4"], strat)
    assert v.status == "valid-on-sample"
    assert "truncated" in v.note


def test_exhaustive_deterministic():
    strat = Random(50, 9)
    idem = axioms._eq("Idem", "x & x", "x")
    v1 = check_validity(semantics.FFEL, idem, strat)
    v2 = check_validity(semantics.FFEL, idem, strat)
    assert v1.assignment == v2.assignment


def test_unbounded_sigma_lemmas_at_small_sigma():
    # prefix laws for the undefined form, checked at atom strings up to length 3
    from fel.fnf import u_sigma

    for sigma in ("", "a", "ab", "abc"):
        us = u_sigma(sigma)
        assert semantics.equiv(semantics.FFELU, syntax.mk_not(us), us)
        # evaluation aborts at U, so a right operand is never reached
        assert semantics.equiv(semantics.FFELU, syntax.mk_and(us, P("d")), us)
        assert semantics.equiv(semantics.FFELU, syntax.mk_or(us, P("d")), us)


LOGICS = [semantics.logic_by_name(name) for name in semantics.LOGICS] + [semantics.SFEL(("b", "a"))]


@pytest.mark.parametrize("logic", LOGICS, ids=str)
def test_instance_trees_are_the_logic_trees(logic):
    # Every logic but a free one composes memorised trees; each side must
    # still get the tree that its instance has by definition.
    rng = random.Random(4)
    eqs = [*BUILTIN_SETS["mf"], *BUILTIN_SETS["crux"], *BUILTIN_SETS["eqffelu"]]
    for eq in eqs:
        if eq.signature == axioms.WITH_U and not logic.allows_u:
            continue
        names = sorted(variables_of(eq.lhs) | variables_of(eq.rhs))
        plan = axioms._Plan(logic, eq, names)
        for _ in range(15):
            atoms = logic.beta or ("a", "b", "c")
            terms = {n: axioms._random_term(rng, atoms, logic.allows_u, 3) for n in names}
            trees = [semantics.fe_u(terms[n]) for n in names]
            l, r = instantiate(eq, terms)
            want = semantics.both_sides(logic, l, r, semantics.evaluate, syntax.alphabet)
            assert plan.instance(trees) == want, (eq.name, terms)
    comm = axioms._eq("Comm", "x & y", "y & x")
    v = check_validity(logic, comm, Exhaustive(depth=2))
    if v.status == "counterexample":
        l, r = instantiate(comm, v.assignment)
        want = semantics.both_sides(logic, l, r, semantics.evaluate, syntax.alphabet)
        assert (v.left_tree, v.right_tree) == want


def _per_instance(logic, eq, strategy):
    """check_validity's Exhaustive verdict, one instance at a time."""
    names = sorted(variables_of(eq.lhs) | variables_of(eq.rhs))
    reps = axioms._classes(logic, strategy.atoms, strategy.depth, logic.allows_u)
    walk = semantics.fe_open if logic.tree is semantics.FREE else semantics.memo_open
    checked = 0
    for combo in itertools.product(reps, repeat=len(names)):
        trees = {n: c[1] for n, c in zip(names, combo)}
        lt, rt = semantics.both_sides(
            logic, walk(eq.lhs, trees), walk(eq.rhs, trees), semantics.from_full, semantics.tree_atoms
        )
        checked += 1
        if lt is not rt:
            assignment = {n: c[0] for n, c in zip(names, combo)}
            return ("counterexample", checked, assignment, lt, rt)
    return ("valid-on-sample", checked, None, None, None)


def _hoisted_cases():
    for name in ("eqffel", "eqffelu", "eqmfel", "eqmfelu", "eqclfel2", "eqclfelu", "eqsfel"):
        yield OWN_LOGIC[name], name
    for name in ("mf", "c1c4", "bochvar", "aux0"):
        for logic in LOGICS[:-1]:
            yield logic, name


@pytest.mark.parametrize("logic, name", list(_hoisted_cases()), ids=lambda x: str(x))
def test_hoisted_checker_matches_the_per_instance_loop(logic, name):
    strategy = Exhaustive(depth=2)
    for eq in BUILTIN_SETS[name]:
        if eq.signature == axioms.WITH_U and not logic.allows_u:
            continue
        v = check_validity(logic, eq, strategy)
        got = (v.status, v.instances, v.assignment, v.left_tree, v.right_tree)
        assert got == _per_instance(logic, eq, strategy), eq.name
