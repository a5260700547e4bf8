import pytest
from hypothesis import given

from fel import fnf, semantics, syntax
from fel.evaltree import UNDEF, node
from fel.fnf import FnfCategory, classify, fnf_and, fnf_negate, normalize_ffel, normalize_ffelu, u_sigma

from test_syntax import exprs

P = syntax.parse

TOP = (FnfCategory.T_TERM, FnfCategory.F_TERM, FnfCategory.T_STAR_TERM)


def test_classify_base():
    assert classify(P("T")) is FnfCategory.T_TERM
    assert classify(P("F")) is FnfCategory.F_TERM
    assert classify(P("a | T")) is FnfCategory.T_TERM
    assert classify(P("a & F")) is FnfCategory.F_TERM
    assert classify(P("a & T")) is FnfCategory.L_TERM
    assert classify(P("!a & T")) is FnfCategory.L_TERM
    assert classify(P("a & T & (b & T)")) is FnfCategory.STAR_CONJ
    assert classify(P("a & T | b & T")) is FnfCategory.STAR_DISJ
    assert classify(P("T & (a & T)")) is FnfCategory.T_STAR_TERM
    assert classify(P("a")) is FnfCategory.NOT_FNF
    assert classify(P("!!a")) is FnfCategory.NOT_FNF
    assert classify(P("U")) is FnfCategory.NOT_FNF
    assert classify(P("T & T")) is FnfCategory.NOT_FNF


def test_literal_block_beats_star_conjunction():
    # a & (b | T) is a literal block, not a *-conjunction
    assert classify(P("a & (b | T)")) is FnfCategory.L_TERM


def test_fnf_negate_base():
    assert fnf_negate(P("T")) == P("F")
    assert fnf_negate(P("F")) == P("T")
    assert fnf_negate(P("a | T")) == P("a & F")
    assert fnf_negate(P("a & F")) == P("a | T")
    assert fnf_negate(P("T & (a & T)")) == P("T & (!a & T)")
    with pytest.raises(ValueError):
        fnf_negate(P("a"))


def test_fnf_and_base():
    assert fnf_and(P("T"), P("F")) == P("F")
    assert fnf_and(P("a | T"), P("b | T")) == P("a | (b | T)")
    assert fnf_and(P("a | T"), P("F")) == P("a & F")
    assert fnf_and(P("F"), P("a | T")) == P("a & F")
    assert fnf_and(P("F"), P("b & F")) == P("b & F")
    with pytest.raises(ValueError):
        fnf_and(P("a"), P("T"))


def test_normalize_ffel_examples():
    assert normalize_ffel(P("a")) == P("T & (a & T)")
    assert normalize_ffel(P("T")) == P("T")
    assert normalize_ffel(P("a & F")) == P("a & F")
    assert normalize_ffel(P("!a")) == P("T & (!a & T)")
    assert normalize_ffel(P("a & b")) == P("T & (a & T & (b & T))")
    with pytest.raises(ValueError):
        normalize_ffel(P("U"))


@given(exprs(allow_u=False))
def test_normalize_ffel_sound_and_in_grammar(e):
    n = normalize_ffel(e)
    assert classify(n) in TOP
    assert semantics.fe(n) == semantics.fe(e)


@given(exprs(allow_u=False, atoms=("a", "b")), exprs(allow_u=False, atoms=("a", "b")))
def test_normalize_ffel_complete(e1, e2):
    same_tree = semantics.fe(e1) == semantics.fe(e2)
    assert same_tree == (normalize_ffel(e1) == normalize_ffel(e2))


def test_u_sigma():
    assert u_sigma("") == P("U")
    assert u_sigma("ab") == P("a & (b & U)")


def test_normalize_ffelu_examples():
    assert normalize_ffelu(P("a | U")) == P("a & U")
    assert normalize_ffelu(P("U & a")) == P("U")
    assert normalize_ffelu(P("a & b")) == normalize_ffel(P("a & b"))


@given(exprs(atoms=("a", "b")))
def test_normalize_ffelu_sound(e):
    n = normalize_ffelu(e)
    assert semantics.fe_u(n) == semantics.fe_u(e)
    if syntax.contains_u(e):
        # the result is the canonical undefined prefix term
        sigma = []
        cur = n
        while isinstance(cur, syntax.FullAnd):
            sigma.append(cur.left.name)
            cur = cur.right
        assert cur is syntax.UNDEF
        assert n == u_sigma("".join(sigma))


def test_normalizer_restates_idempotently():
    for s in ("a & b | !c", "!(a | b) & (b | !a)", "a | (b & F)"):
        n = normalize_ffel(P(s))
        assert normalize_ffel(n) == n


def test_normalizers_and_classify_answer_on_deep_input():
    # classify and normalize_ffel are folds over the term (tables.fold),
    # and each step of the fnf algebra meets its operands' forms already
    # built, so a chain past the recursion limit answers.  fe_u loops down
    # the chain, so normalize_ffelu of the chain with U answers too.
    chain = P(" & ".join(["deep_a"] * 1200))
    with_u = syntax.mk_and(chain, syntax.UNDEF)
    assert classify(chain) is FnfCategory.NOT_FNF
    nf = P("T & (deep_a & T" + " & (deep_a & T)" * 1199 + ")")
    assert normalize_ffel(chain) is nf
    assert normalize_ffelu(chain) is nf
    assert normalize_ffelu(with_u) is u_sigma(("deep_a",) * 1200)
