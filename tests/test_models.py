import itertools

import pytest

from fel import axioms, models
from fel.models import (
    BOOLEAN_MODEL,
    FiniteModel,
    check_equation_in_model,
    eval_open_term,
    find_model,
    independence_report,
)


def test_model_validation():
    with pytest.raises(ValueError):
        FiniteModel(5, (), (), (), 0, 0)
    good = dict(size=2, and_table=((0, 0), (0, 1)), or_table=((0, 1), (1, 1)),
                neg_table=(1, 0), t_elem=1, f_elem=0)
    assert FiniteModel(**good) == BOOLEAN_MODEL
    for bad in (dict(and_table=((0, 0), (0, 5))), dict(or_table=((0, 1), (1,))),
                dict(or_table=((0, 1),)), dict(neg_table=(1,)), dict(neg_table=(1, 2)),
                dict(t_elem=2), dict(f_elem=-1), dict(u_elem=7)):
        with pytest.raises(ValueError):
            FiniteModel(**{**good, **bad})
    with pytest.raises(ValueError, match="needs the key 'and'"):
        FiniteModel.from_json('{"size": 2}')
    with pytest.raises(ValueError):
        FiniteModel.from_json('{"size": 2, "and": 0, "or": 0, "neg": 0, "T": 1, "F": 0}')
    with pytest.raises(ValueError):
        FiniteModel.from_json("[2]")


def test_json_roundtrip():
    m = BOOLEAN_MODEL
    assert FiniteModel.from_json(m.to_json()) == m
    withu = FiniteModel(3, ((0,) * 3,) * 3, ((0,) * 3,) * 3, (0, 1, 2), 1, 0, 2)
    assert FiniteModel.from_json(withu.to_json()) == withu


def test_eval_open_term():
    eq = axioms._eq("t", "x & F", "F")
    assert eval_open_term(BOOLEAN_MODEL, eq.lhs, {"x": BOOLEAN_MODEL.t_elem}) == BOOLEAN_MODEL.f_elem
    neg = axioms._to_open(axioms.syntax.parse("!x"))
    assert eval_open_term(BOOLEAN_MODEL, neg, {"x": 0}) == 1
    var = axioms._to_open(axioms.syntax.parse("x"))
    for d in range(2):
        assert eval_open_term(BOOLEAN_MODEL, var, {"x": d}) == d
    u = axioms.syntax.parse("U")
    with pytest.raises(ValueError):
        eval_open_term(BOOLEAN_MODEL, u, {})
    with pytest.raises(ValueError, match="0..1"):
        eval_open_term(BOOLEAN_MODEL, neg, {"x": 2})
    with pytest.raises(TypeError):
        eval_open_term(BOOLEAN_MODEL, axioms.syntax.parse("a"), {})


def test_boolean_model_satisfies_eqsfel():
    for eq in axioms.EQSFEL:
        assert check_equation_in_model(BOOLEAN_MODEL, eq)


def test_constant_and_table_separates():
    m = FiniteModel(2, ((1, 1), (1, 1)), BOOLEAN_MODEL.or_table, (1, 0), 1, 0)
    ffel7 = axioms.EQFFEL["FFEL7"]  # x&F = F&x, symmetric: still true
    ffel6 = axioms.EQFFEL["FFEL6"]  # x&T = x: broken by constant table
    assert check_equation_in_model(m, ffel7)
    assert not check_equation_in_model(m, ffel6)


def test_find_boolean_model():
    res = find_model(axioms.EQSFEL, None, 2, budget=10)
    assert res.status == "model"
    m = res.model
    for eq in axioms.EQSFEL:
        assert check_equation_in_model(m, eq)


def test_find_model_contradiction_exhausted():
    eq = axioms.EQFFEL["FFEL1"]
    res = find_model([eq], eq, 2, budget=10)
    assert res.status == "exhausted"


def test_find_model_rejects_oversize():
    with pytest.raises(ValueError):
        find_model([], None, 7)
    for size in (1, 0):
        with pytest.raises(ValueError, match="max_size"):
            find_model(axioms.EQSFEL, None, size)
    for budget in (float("nan"), float("inf"), 0, -1.0):
        with pytest.raises(ValueError, match="budget"):
            find_model(axioms.EQSFEL, None, 2, budget)


def test_exhausted_agrees_with_brute_force_at_size_2():
    # dropping MF3 from {MF2, MF3} has a witness; violating MF2 among {MF2} does not
    mf2 = axioms.MF["MF2"]
    mf3 = axioms.MF["MF3"]
    res = find_model([mf2], mf3, 2, budget=30)

    def brute(satisfy, violate):
        for and_t in itertools.product(range(2), repeat=4):
            for or_t in itertools.product(range(2), repeat=4):
                for neg_t in itertools.product(range(2), repeat=2):
                    for t_e in range(2):
                        for f_e in range(2):
                            m = FiniteModel(
                                2,
                                (tuple(and_t[:2]), tuple(and_t[2:])),
                                (tuple(or_t[:2]), tuple(or_t[2:])),
                                neg_t, t_e, f_e,
                            )
                            if all(check_equation_in_model(m, e) for e in satisfy) and not check_equation_in_model(m, violate):
                                return m
        return None

    expect = brute([mf2], mf3)
    assert (res.status == "model") == (expect is not None)
    if res.status == "model":
        assert check_equation_in_model(res.model, mf2)
        assert not check_equation_in_model(res.model, mf3)

    res2 = find_model([mf2], mf2, 2, budget=30)
    assert res2.status == "exhausted"
    assert brute([mf2], mf2) is None


def test_first_model_deterministic():
    r1 = find_model(axioms.EQSFEL, None, 2, budget=10)
    r2 = find_model(axioms.EQSFEL, None, 2, budget=10)
    assert r1.model == r2.model


def test_singleton_independence():
    single = axioms.AxiomSet("s", (axioms.EQFFEL["FFEL3"],))
    rep = independence_report(single, max_size=2, budget=20)
    assert rep["FFEL3"]["status"] == "independent"
    m = rep["FFEL3"]["model"]
    assert not check_equation_in_model(m, axioms.EQFFEL["FFEL3"])
    # witness: negation is not an involution
    assert any(m.neg_table[m.neg_table[i]] != i for i in range(m.size))


def test_empty_report():
    assert independence_report(axioms.AxiomSet("empty", ()), 2, 5) == {}


def test_u_element_searched_when_needed():
    res = find_model(
        [axioms.EQFFELU["U1"], axioms.EQFFELU["U2"]], None, 2, budget=10
    )
    assert res.status == "model"
    assert res.model.u_elem is not None


# --- the plain search, the oracle for find_model ---
#
# It assigns the cells in a fixed order, (and, i, j), (or, i, j), (neg, i),
# T, F and U, and after each assignment evaluates every ground instance
# again; it is complete up to the size and needs no budget.

def _oracle_value(t, env, cells):
    """t's element under a partial cell assignment; None when undetermined."""
    if isinstance(t, axioms.syntax.Var):
        return env[t.name]
    if isinstance(t, axioms.syntax.ConstT):
        return cells.get(("T",))
    if isinstance(t, axioms.syntax.ConstF):
        return cells.get(("F",))
    if isinstance(t, axioms.syntax.ConstU):
        return cells.get(("U",))
    if isinstance(t, axioms.syntax.Not):
        v = _oracle_value(t.operand, env, cells)
        return None if v is None else cells.get(("neg", v))
    l = _oracle_value(t.left, env, cells)
    r = _oracle_value(t.right, env, cells)
    if l is None or r is None:
        return None
    op = "and" if isinstance(t, axioms.syntax.FullAnd) else "or"
    return cells.get((op, l, r))


def _oracle_instances(eqs, size):
    out = []
    for eq in eqs:
        names = sorted(axioms.variables_of(eq.lhs) | axioms.variables_of(eq.rhs))
        for values in itertools.product(range(size), repeat=len(names)):
            out.append((eq.lhs, eq.rhs, dict(zip(names, values))))
    return out


def _oracle_broken(instances, cells):
    for lhs, rhs, env in instances:
        l, r = _oracle_value(lhs, env, cells), _oracle_value(rhs, env, cells)
        if l is not None and r is not None and l != r:
            return True
    return False


def _oracle_search(k, order, size, cells, must, wanted):
    if k == len(order):
        return wanted is None or _oracle_broken(wanted, cells)
    for v in range(size):
        cells[order[k]] = v
        if not _oracle_broken(must, cells) and _oracle_search(k + 1, order, size, cells, must, wanted):
            return True
    del cells[order[k]]
    return False


def _oracle_status(satisfy, violate, max_size):
    with_u = models._needs_u(list(satisfy) + ([violate] if violate else []))
    for size in range(2, max_size + 1):
        order = (
            [("and", i, j) for i in range(size) for j in range(size)]
            + [("or", i, j) for i in range(size) for j in range(size)]
            + [("neg", i) for i in range(size)]
            + [("T",), ("F",)]
            + ([("U",)] if with_u else [])
        )
        must = _oracle_instances(satisfy, size)
        wanted = _oracle_instances([violate], size) if violate else None
        if _oracle_search(0, order, size, {}, must, wanted):
            return "model"
    return "exhausted"


def _oracle_holds(m, eq):
    """Whether eq holds in m, by the oracle's evaluation."""
    cells = {("T",): m.t_elem, ("F",): m.f_elem}
    if m.u_elem is not None:
        cells["U",] = m.u_elem
    for i in range(m.size):
        cells["neg", i] = m.neg_table[i]
        for j in range(m.size):
            cells["and", i, j] = m.and_table[i][j]
            cells["or", i, j] = m.or_table[i][j]
    return not _oracle_broken(_oracle_instances([eq], m.size), cells)


def _assert_witness(res, satisfy, violate):
    m = res.model
    for eq in satisfy:
        assert check_equation_in_model(m, eq) and _oracle_holds(m, eq), eq.name
    if violate is not None:
        assert not check_equation_in_model(m, violate)
        assert not _oracle_holds(m, violate)


INDEPENDENCE_SETS = ["mf", "cf", "sf", "eqffel", "eqffelu", "eqmfel", "eqmfelu",
                     "eqclfel2", "eqclfelu", "eqsfel"]


@pytest.mark.parametrize("name", INDEPENDENCE_SETS)
def test_find_model_agrees_with_the_plain_search_at_size_2(name):
    axset = axioms.BUILTIN_SETS[name]
    for eq in axset:
        rest = list(axset.without(eq.name))
        res = find_model(rest, eq, 2, budget=30)
        assert res.status == _oracle_status(rest, eq, 2), eq.name
        if res.status == "model":
            _assert_witness(res, rest, eq)


def test_find_model_agrees_with_the_plain_search_on_mf_at_size_3():
    for name in ("MF1", "MF2", "MF3", "MF4", "MF5"):
        rest = list(axioms.MF.without(name))
        res = find_model(rest, axioms.MF[name], 3, budget=30)
        assert res.status == _oracle_status(rest, axioms.MF[name], 3) == "model", name
        _assert_witness(res, rest, axioms.MF[name])


def test_mf6_is_exhausted_at_size_3_and_separated_at_size_4():
    rest = list(axioms.MF.without("MF6"))
    res = find_model(rest, axioms.MF["MF6"], 3, budget=30)
    assert res.status == "exhausted" and res.stats.sizes_done == [2, 3]
    res = find_model(rest, axioms.MF["MF6"], 4, budget=30)
    assert res.status == "model" and res.model.size == 4
    _assert_witness(res, rest, axioms.MF["MF6"])


def test_one_evaluator_agrees_with_the_oracle():
    # check_equation_in_model runs the search's compiled instances over a
    # full cell table; the oracle evaluates the terms.
    found = [BOOLEAN_MODEL]
    for name in ("MF1", "MF2", "MF4", "MF5"):
        found.append(find_model(axioms.MF.without(name), axioms.MF[name], 3).model)
    found.append(find_model([axioms.EQFFELU["U1"]], axioms.EQFFELU["U2"], 3).model)
    for m in found:
        for axset in axioms.BUILTIN_SETS.values():
            for eq in axset:
                if m.u_elem is None and models._needs_u([eq]):
                    with pytest.raises(ValueError, match="no U element"):
                        check_equation_in_model(m, eq)
                else:
                    assert check_equation_in_model(m, eq) == _oracle_holds(m, eq)


def test_sizes_5_and_6_are_searched_and_time_out_honestly():
    m = FiniteModel(6, ((0,) * 6,) * 6, ((5,) * 6,) * 6, (1, 0, 3, 2, 5, 4), 5, 0)
    assert FiniteModel.from_json(m.to_json()) == m
    assert check_equation_in_model(m, axioms.EQFFEL["FFEL3"])
    res = find_model([axioms.EQFFEL["FFEL3"]], axioms.EQFFEL["FFEL3"], 6, budget=10)
    assert res.status == "exhausted" and res.stats.sizes_done == [2, 3, 4, 5, 6]
    hard = axioms.EQFFELU
    res = find_model(hard.without("FFEL9"), hard["FFEL9"], 6, budget=0.2)
    assert res.status == "timeout"
