import random

import pytest
from hypothesis import given

from fel import axioms, fnf, invert, semantics, syntax
from fel.evaltree import (
    FALSE, HOLE, HOLE1, HOLE2, TRUE, Leaf, iter_subtrees, leaf_kinds, node, subst,
)
from fel.invert import NoDecomposition, NotInImage, cd, dd, find_ccd, find_cdd, g, tsd

from test_evaltree import replace_leaves
from test_syntax import exprs

P = syntax.parse


def test_find_ccd_of_conjunction():
    x = semantics.fe(P("a & b"))
    decs = find_ccd(x)
    assert invert.Decomposition(node("a", HOLE1, HOLE2), node("b", TRUE, FALSE)) in decs
    for d in decs:
        core2 = replace_leaves(d.core, {"T": FALSE})
        assert replace_leaves(d.context, {"D1": d.core, "D2": core2}) == x


def test_conjunction_has_no_cdd():
    assert find_cdd(semantics.fe(P("a & b"))) == []


def test_leaf_has_no_candidates():
    assert find_ccd(TRUE) == []
    assert find_cdd(FALSE) == []


def test_cd_dd_on_star_terms():
    conj = semantics.fe(P("(a & T) & (b & T)"))
    d = cd(conj)
    assert d.context == node("a", HOLE1, HOLE2)
    assert d.core == node("b", TRUE, FALSE)
    with pytest.raises(NoDecomposition):
        dd(conj)

    disj = semantics.fe(P("(a & T) | (b & T)"))
    d = dd(disj)
    assert d.context == node("a", HOLE1, HOLE2)
    assert d.core == node("b", TRUE, FALSE)
    with pytest.raises(NoDecomposition):
        cd(disj)


def test_literal_block_has_no_cd():
    with pytest.raises(NoDecomposition):
        cd(node("a", TRUE, FALSE))


def test_tsd_examples():
    d = tsd(semantics.fe(P("T & (a & T)")))
    assert d.context is HOLE
    assert d.core == node("a", TRUE, FALSE)

    d = tsd(semantics.fe(P("(c | T) & (a & T)")))
    assert d.context == node("c", HOLE, HOLE)
    assert d.core == node("a", TRUE, FALSE)

    with pytest.raises(NoDecomposition):
        tsd(node("a", TRUE, TRUE))


def test_g_examples():
    assert g(node("a", TRUE, TRUE)) == P("a | T")
    for s in ("T & (a & T)", "T & (a & T & (b & T))"):
        e = P(s)
        assert g(semantics.fe(e)) == e


def test_g_rejects_non_images():
    with pytest.raises(NotInImage):
        g(node("a", TRUE, node("b", TRUE, FALSE)))
    with pytest.raises(NotInImage):
        g(node("a", node("b", TRUE, FALSE), FALSE))


def test_g_rejects_placeholders_and_u():
    from fel.evaltree import UNDEF

    with pytest.raises(NotInImage):
        g(node("a", UNDEF, UNDEF))
    with pytest.raises(NotInImage):
        g(node("a", HOLE, HOLE))


def test_g_of_a_deep_chain_raises_a_typed_error():
    # g_t reads the chain by a loop; g's final fe check recurses along the term.
    x = TRUE
    for _ in range(1200):
        x = node("a", x, x)
    with pytest.raises(ValueError, match="^input nested too deeply$"):
        g(x)


# Reference scans that keep a candidate only when refilling its context's
# placeholders gives the tree back; invert's scan leaves that check out,
# because its contexts meet it by construction.

def _holes(x, mapping):
    """x with each outermost subtree that mapping names replaced by its hole."""
    if x in mapping:
        return mapping[x]
    if isinstance(x, Leaf):
        return x
    return node(x.atom, _holes(x.left, mapping), _holes(x.right, mapping))


def _refilled_scan(x, fills, holes):
    out = []
    for z in iter_subtrees(x):
        if leaf_kinds(z) != frozenset("TF"):
            continue
        parts = fills(z)
        y = _holes(x, dict(zip(parts, holes)))
        if leaf_kinds(y) != {h.kind for h in holes}:
            continue
        if replace_leaves(y, {h.kind: p for h, p in zip(holes, parts)}) == x:
            out.append(invert.Decomposition(y, z))
    return out


def _refilled_ccd(x):
    return _refilled_scan(x, lambda z: (z, subst(z, FALSE, FALSE)), (HOLE1, HOLE2))


def _refilled_cdd(x):
    return _refilled_scan(x, lambda z: (subst(z, TRUE, TRUE), z), (HOLE1, HOLE2))


def _refilled_tsd(x):
    if leaf_kinds(x) != frozenset("TF"):
        raise NoDecomposition("tree needs both a T and an F leaf")
    cands = []
    for d in _refilled_scan(x, lambda z: (z,), (HOLE,)):
        if all(w.core == d.core for w in _refilled_scan(d.core, lambda z: (z,), (HOLE,))):
            cands.append(d)
    if not cands:
        raise NoDecomposition("no T-*-decomposition")
    if len(cands) > 1:
        raise NotInImage(f"ambiguous T-*-decomposition: {len(cands)} candidates")
    return cands[0]


def _outcome(f, x):
    try:
        return f(x)
    except ValueError as err:
        return type(err), str(err)


def test_decompositions_match_the_refilling_scan():
    trees = {semantics.fe(p) for p in axioms._universe(("a", "b", "c"), 3, False)}
    assert len(trees) == 1328
    found = 0
    for x in trees:
        for scan, oracle in ((find_ccd, _refilled_ccd), (find_cdd, _refilled_cdd)):
            cands = scan(x)
            assert cands == oracle(x)
            found += len(cands)
        d = _outcome(tsd, x)
        assert d == _outcome(_refilled_tsd, x)
        found += isinstance(d, invert.Decomposition)
    assert found == 3264


# Random generator for the normal-form grammar.

def _gen_t(rng, atoms, budget):
    if budget <= 0 or rng.random() < 0.4:
        return syntax.TRUE, 0
    sub, n = _gen_t(rng, atoms, budget - 1)
    return syntax.mk_or(syntax.mk_atom(rng.choice(atoms)), sub), n + 1


def _gen_f(rng, atoms, budget):
    if budget <= 0 or rng.random() < 0.4:
        return syntax.FALSE, 0
    sub, n = _gen_f(rng, atoms, budget - 1)
    return syntax.mk_and(syntax.mk_atom(rng.choice(atoms)), sub), n + 1


def _gen_ell(rng, atoms, budget):
    t, n = _gen_t(rng, atoms, budget - 1)
    a = syntax.mk_atom(rng.choice(atoms))
    lit = a if rng.random() < 0.5 else syntax.mk_not(a)
    extra = 0 if lit is a else 1
    return syntax.mk_and(lit, t), n + 1 + extra


def gen_fnf(rng, atoms=("a", "b"), budget=12):
    roll = rng.random()
    if roll < 0.2:
        return _gen_t(rng, atoms, budget)[0]
    if roll < 0.4:
        return _gen_f(rng, atoms, budget)[0]
    t, n = _gen_t(rng, atoms, budget // 3)
    star, _ = _gen_star_top(rng, atoms, budget - n - 1)
    return syntax.mk_and(t, star)


def _gen_star_top(rng, atoms, budget):
    choice = rng.random()
    if budget <= 2 or choice < 0.4:
        return _gen_ell(rng, atoms, budget)
    left, n1 = _gen_star_top(rng, atoms, budget // 2)
    right, n2 = _gen_right(rng, atoms, budget - budget // 2 - 1, choice < 0.7)
    if choice < 0.7:
        return syntax.mk_and(left, right), n1 + n2 + 1
    return syntax.mk_or(left, right), n1 + n2 + 1


def _gen_right(rng, atoms, budget, for_conj):
    # conjunction right sides must be l-terms or *-disjunctions; dual for or
    choice = rng.random()
    if budget <= 2 or choice < 0.5:
        return _gen_ell(rng, atoms, budget)
    left, n1 = _gen_star_top(rng, atoms, budget // 2)
    right, n2 = _gen_right(rng, atoms, budget - budget // 2 - 1, not for_conj)
    if for_conj:
        return syntax.mk_or(left, right), n1 + n2 + 1
    return syntax.mk_and(left, right), n1 + n2 + 1


def test_grammar_generator_yields_fnf():
    rng = random.Random(5)
    for _ in range(300):
        e = gen_fnf(rng)
        assert fnf.classify(e).name in ("T_TERM", "F_TERM", "T_STAR_TERM"), syntax.print_expr(e)


def test_g_roundtrip_random_grammar():
    rng = random.Random(11)
    for _ in range(300):
        e = gen_fnf(rng)
        assert g(semantics.fe(e)) == e


@given(exprs(allow_u=False, atoms=("a", "b")))
def test_g_roundtrip_via_normalizer(e):
    n = fnf.normalize_ffel(e)
    assert g(semantics.fe(n)) == n
