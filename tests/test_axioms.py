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
    # The sample stream of seed 0 is pinned, so `fel axioms --random seed=0`
    # keeps its counterexamples.
    v = check_validity(semantics.FFEL, idem, Random(100, 0))
    assert (v.status, v.instances) == ("counterexample", 1)
    assert v.assignment == {"x": P("F & (b & b & a)")}
    v = check_validity(semantics.MFEL, comm, Random(100, 0))
    assert (v.status, v.instances) == ("counterexample", 2)
    assert v.assignment == {"x": P("a | F"), "y": P("b & T | !b | !b")}
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


def test_truncation_keeps_the_most_classes_the_cap_allows():
    # FFEL4 has 3 variables and 18 classes at depth 2: a cap that is a
    # cube is met exactly, and one just under it takes a class less.
    ffel4 = BUILTIN_SETS["eqffel"]["FFEL4"]
    for cap, classes in ((64, 4), (63, 3), (5832, 18)):
        v = check_validity(semantics.FFEL, ffel4, Exhaustive(depth=2, max_instances=cap))
        assert v.instances == classes**3
        assert v.note == ("" if classes == 18 else f"truncated to {classes} classes per variable")


def test_an_equation_without_variables_builds_no_universe(monkeypatch):
    monkeypatch.setattr(axioms, "_classes", lambda *args: pytest.fail("a universe was built"))
    v = check_validity(semantics.FFELU, BUILTIN_SETS["eqffelu"]["U1"], Exhaustive(depth=3))
    assert (v.status, v.instances, v.note) == ("valid-on-sample", 1, "")


@pytest.mark.parametrize("cap", [0, -1])
def test_exhaustive_refuses_a_cap_below_one(cap):
    with pytest.raises(ValueError, match="max_instances must be at least 1"):
        Exhaustive(max_instances=cap)


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
        pool = axioms._leaves(logic.beta or ("a", "b", "c"), logic.allows_u)
        for _ in range(15):
            terms = {n: axioms._random_term(rng, pool, 3) for n in names}
            v = plan.load([semantics.fe_u(terms[n]) for n in names])
            got = semantics.both_sides(logic, v[plan.lhs], v[plan.rhs], semantics.from_full, semantics.tree_atoms)
            l, r = instantiate(eq, terms)
            want = semantics.both_sides(logic, l, r, semantics.evaluate, syntax.alphabet)
            assert got == want, (eq.name, terms)
            assert plan.refute(v) == (None if want[0] is want[1] else want), (eq.name, terms)
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


def _draw(rng, atoms, allow_u, height):
    """A term drawn as Random draws one, each leaf picked by its name."""
    if height <= 1 or rng.random() < 0.3:
        return P(rng.choice(list(atoms) + ["T", "F"] + (["U"] if allow_u else [])))
    k = rng.randrange(3)
    if k == 0:
        return syntax.mk_not(_draw(rng, atoms, allow_u, height - 1))
    l = _draw(rng, atoms, allow_u, height - 1)
    r = _draw(rng, atoms, allow_u, height - 1)
    return syntax.mk_and(l, r) if k == 1 else syntax.mk_or(l, r)


def _per_sample(logic, eq, strategy):
    """check_validity's Random verdict, each instance evaluated from its terms."""
    names = sorted(variables_of(eq.lhs) | variables_of(eq.rhs))
    rng = random.Random(strategy.seed)
    for i in range(strategy.count):
        assignment = {n: _draw(rng, strategy.atoms, logic.allows_u, strategy.height) for n in names}
        l, r = instantiate(eq, assignment)
        lt, rt = semantics.both_sides(logic, l, r, semantics.evaluate, syntax.alphabet)
        if lt is not rt:
            return ("counterexample", i + 1, assignment, lt, rt)
    return ("valid-on-sample", strategy.count, None, None, None)


@pytest.mark.parametrize("logic, name", list(_hoisted_cases()), ids=lambda x: str(x))
def test_random_checker_matches_the_per_instance_loop(logic, name):
    for strategy in (Random(100, 0), Random(60, 7, ("a", "b", "c"), 3)):
        for eq in BUILTIN_SETS[name]:
            if eq.signature == axioms.WITH_U and not logic.allows_u:
                continue
            v = check_validity(logic, eq, strategy)
            got = (v.status, v.instances, v.assignment, v.left_tree, v.right_tree)
            assert got == _per_sample(logic, eq, strategy), (eq.name, strategy)
