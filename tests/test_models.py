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
        find_model([], None, 5)
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
