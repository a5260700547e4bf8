import random
import sys

import pytest
from hypothesis import given, strategies as st

from fel import axioms, evaltree, syntax
from fel.evaltree import FALSE, HOLE, HOLE1, TRUE, UNDEF, Leaf, depth, leaf_kinds, node, subst
from fel.semantics import (
    CLFEL,
    CLFEL2,
    FFEL,
    FFELU,
    LOGICS,
    Logic,
    MFEL,
    MFELU,
    SFEL,
    clfe,
    clfe_u,
    equiv,
    evaluate,
    f_tilde_tree,
    fe,
    fe_open,
    fe_u,
    from_full,
    la,
    logic_by_name,
    memo,
    memo_open,
    mfe,
    mfe_u,
    ra,
    sfe,
    sfe_tree,
    tree_or,
)

from test_evaltree import replace_leaves
from test_syntax import exprs

P = syntax.parse


def test_fe_atoms_and_constants():
    assert fe(P("a")) == node("a", TRUE, FALSE)
    assert fe(P("T")) is TRUE
    assert fe(P("F")) is FALSE


def test_fe_worked_examples():
    expected = node("b", node("a", FALSE, FALSE), node("a", TRUE, FALSE))
    assert fe(P("!b & a")) == expected
    assert fe(P("!(b | !a)")) == expected


def test_fe_rejects_u():
    with pytest.raises(ValueError):
        fe(P("U"))
    with pytest.raises(ValueError):
        fe(P("a & U"))


def test_fe_u_examples():
    assert fe_u(P("a & U")) == node("a", UNDEF, UNDEF)
    assert fe_u(P("(a | T) & b")) == node(
        "a", node("b", TRUE, FALSE), node("b", TRUE, FALSE)
    )
    assert fe_u(P("U")) is UNDEF


@given(exprs(allow_u=False))
def test_fe_not_is_swap(e):
    assert fe(syntax.mk_not(e)) == replace_leaves(fe(e), {"T": FALSE, "F": TRUE})


def _atom_occurrences(e):
    if isinstance(e, syntax.Atom):
        return 1
    if isinstance(e, syntax.Not):
        return _atom_occurrences(e.operand)
    if isinstance(e, (syntax.FullAnd, syntax.FullOr)):
        return _atom_occurrences(e.left) + _atom_occurrences(e.right)
    return 0


@given(exprs(allow_u=False))
def test_fe_depth_is_atom_occurrences(e):
    assert depth(fe(e)) == _atom_occurrences(e)


def test_left_deep_chain_is_linear_and_keeps_no_substitution():
    # fe(a & a & ... & a): each a leads on to the rest when true and to the
    # all-F chain over the rest when false; no tree is substituted.  Only a
    # bool reaches the assertion: a tree's repr would expand every path.
    n = 900
    chain = syntax.parse(" & ".join(["a"] * n))
    expected, all_f = TRUE, FALSE
    for _ in range(n):
        expected, all_f = node("a", expected, all_f), node("a", all_f, all_f)
    before = len(evaltree._SUBST_CACHE)
    same = fe(chain) is expected
    assert same
    assert len(evaltree._SUBST_CACHE) == before


def test_la_ra():
    x = node("a", node("a", TRUE, FALSE), node("b", node("a", TRUE, FALSE), FALSE))
    assert la("a", x) == TRUE
    assert ra("a", x) == node("b", FALSE, FALSE)
    assert la("c", x) == x


def _prune_top_down(atom, x, side, done):
    """The recursive restriction that la and ra replaced, kept as their oracle."""
    if isinstance(x, Leaf):
        return x
    r = done.get(x)
    if r is None:
        if x.atom == atom:
            r = _prune_top_down(atom, getattr(x, side), side, done)
        else:
            r = node(x.atom, _prune_top_down(atom, x.left, side, done), _prune_top_down(atom, x.right, side, done))
        done[x] = r
    return r


def _memo_top_down(x):
    """The paper's memorisation, top-down: node(a, memo(la(a, l)), memo(ra(a, r)))."""
    if isinstance(x, Leaf):
        return x
    a = x.atom
    return node(a, _memo_top_down(_prune_top_down(a, x.left, "left", {})),
                _memo_top_down(_prune_top_down(a, x.right, "right", {})))


def _subst_recursive(x, kt, kf):
    """The recursive leaf substitution that subst replaced, kept as its oracle."""
    if isinstance(x, Leaf):
        return kt if x is TRUE else kf if x is FALSE else x
    return node(x.atom, _subst_recursive(x.left, kt, kf), _subst_recursive(x.right, kt, kf))


def _random_tree(rng, height, leaves):
    if height == 0 or rng.random() < 0.2:
        return rng.choice(leaves)
    return node(rng.choice("abcd"), _random_tree(rng, height - 1, leaves), _random_tree(rng, height - 1, leaves))


def test_memo_la_ra_are_the_top_down_definitions_on_random_trees():
    rng = random.Random(1818)
    for _ in range(1_000):
        x = _random_tree(rng, 9, (TRUE, FALSE, UNDEF))
        assert memo(x) is _memo_top_down(x)
        for a in "abcd":
            assert la(a, x) is _prune_top_down(a, x, "left", {})
            assert ra(a, x) is _prune_top_down(a, x, "right", {})


def test_subst_is_the_recursive_substitution_on_random_trees():
    rng = random.Random(1819)
    leaves = (TRUE, FALSE, UNDEF, HOLE, HOLE1)
    for _ in range(1_000):
        x, kt, kf = (_random_tree(rng, h, leaves) for h in (9, 3, 3))
        assert subst(x, kt, kf) is _subst_recursive(x, kt, kf)


def test_memo_examples():
    assert mfe(P("a & a")) == node("a", TRUE, FALSE)
    assert mfe(P("a | !a")) == node("a", TRUE, TRUE)
    assert mfe(P("(a & b) | (!a & !b)")) == node(
        "a", node("b", TRUE, FALSE), node("b", FALSE, TRUE)
    )
    assert mfe_u(P("b & (U | T)")) == node("b", UNDEF, UNDEF)


def _paths(t, acc=()):
    if isinstance(t, Leaf):
        yield acc
    else:
        yield from _paths(t.left, acc + (t.atom,))
        yield from _paths(t.right, acc + (t.atom,))


@given(exprs(allow_u=False))
def test_memo_idempotent_and_no_repeats(e):
    t = mfe(e)
    assert memo(t) == t
    for path in _paths(t):
        assert len(set(path)) == len(path)


@given(exprs(allow_u=False))
def test_mfe_perfect_over_str_of(e):
    sigma = syntax.str_of(e)
    for path in _paths(mfe(e)):
        assert "".join(path) == sigma


@given(exprs(allow_u=True))
def test_memo_open_is_memo_of_the_full_tree(e):
    assert memo_open(e, {}) is memo(fe_u(e))


def test_memo_rejects_placeholders():
    with pytest.raises(ValueError):
        memo(node("a", Leaf("D"), FALSE))
    # memo's fold does not enter a subtree memorised before, and still
    # meets a placeholder beside one; a refusal memorises nothing that
    # lets the tree through on a later call.
    memorised = node("b", TRUE, FALSE)
    memo(memorised)
    for hole in ("D", "D1", "D2"):
        x = node("a", memorised, node("c", memorised, Leaf(hole)))
        for _ in range(2):
            with pytest.raises(ValueError, match="placeholder"):
                memo(x)


def test_f_tilde_tree():
    assert f_tilde_tree("") is FALSE
    assert f_tilde_tree("ab") == node("a", node("b", FALSE, FALSE), node("b", FALSE, FALSE))


def test_clfe_examples():
    assert clfe(P("b & a")) == mfe(P("a & b"))
    assert clfe(P("(b | a) & b")) == mfe(P("(a | T) & b"))
    with pytest.raises(ValueError):
        clfe(P("a & U"))


def test_clfe_u_collapses_u():
    assert clfe_u(P("U & a")) is UNDEF
    assert clfe_u(P("a & b")) == clfe(P("a & b"))


def test_sfe_examples():
    assert sfe("ab", P("T")) == node(
        "a", node("b", TRUE, TRUE), node("b", TRUE, TRUE)
    )
    assert sfe("ab", P("a")) == node(
        "a", node("b", TRUE, TRUE), node("b", FALSE, FALSE)
    )
    assert sfe("ab", P("b")) == node(
        "a", node("b", TRUE, FALSE), node("b", TRUE, FALSE)
    )


def test_sfe_validates_alphabet():
    with pytest.raises(ValueError):
        sfe("aa", P("a"))
    with pytest.raises(ValueError) as e:
        sfe("a", P("a & b & c"))
    assert "b" in str(e.value) and "c" in str(e.value)
    with pytest.raises(ValueError):
        sfe("ab", P("U"))


def test_logic_by_name():
    assert logic_by_name("ffel") == FFEL
    assert logic_by_name("sfel", "ab").beta == ("a", "b")
    with pytest.raises(ValueError):
        logic_by_name("boolean")
    with pytest.raises(ValueError):
        logic_by_name("ffel", "ab")
    with pytest.raises(ValueError, match="logic clfel2 does not take an alphabet"):
        evaluate(CLFEL2, P("a"), ("b", "a"))
    for beta in ("aB", ["a", "0"]):
        with pytest.raises(ValueError, match="invalid atom name"):
            SFEL(beta)
    assert SFEL("").beta == ()
    assert Logic("sfel", ["b", "a0"]) == SFEL(("b", "a0"))
    with pytest.raises(ValueError, match="outside the alphabet: a"):
        evaluate(SFEL(""), P("a"))


def test_too_deep_input_raises_value_error_in_every_logic():
    # evaluate recurses once per operator of a left-deep chain; a chain
    # longer than the recursion limit is a typed error, as in parse
    chain = syntax.mk_atom("a")
    for i in range(sys.getrecursionlimit() + 300):
        chain = syntax.mk_and(chain, syntax.mk_atom("ab"[i % 2]))
    too_deep = pytest.raises(ValueError, match="input nested too deeply")
    for name in LOGICS:
        with too_deep:
            evaluate(Logic(name), chain)
        with too_deep:
            equiv(Logic(name), chain, syntax.mk_atom("a"))
    for one in (fe_u, fe, mfe, clfe, lambda p: sfe(("a", "b"), p)):
        with too_deep:
            one(chain)


def test_evaluate_u_gate():
    with pytest.raises(ValueError):
        evaluate(FFEL, P("a & U"))
    assert evaluate(FFELU, P("a & U")) == node("a", UNDEF, UNDEF)
    assert evaluate(CLFEL, P("a & U")) is UNDEF
    # an open term has no tree, with U or without
    x = syntax.Var("x")
    for p in (syntax.mk_and(x, syntax.UNDEF), syntax.mk_and(syntax.UNDEF, x)):
        for logic in (FFELU, MFELU):
            with pytest.raises(TypeError, match="not a closed expression"):
                evaluate(logic, p)


def test_equiv_verdicts():
    assert equiv(CLFEL2, P("a & b"), P("b & a"))
    r = equiv(FFEL, P("a & a"), P("a"))
    assert not r
    assert r.left_tree != r.right_tree


def test_equiv_sfel_default_beta_is_union():
    # x & F vs F: distinct alphabets, the union must be used on both sides
    assert equiv(SFEL(), P("a & F"), P("F"))
    assert equiv(SFEL(), P("a"), P("a & (b | !b)"))


def test_static_logics_take_multi_character_atoms():
    p, q = P("a0 & b"), P("b & a0")
    assert clfe(p) == node("a0", node("b", TRUE, FALSE), node("b", FALSE, FALSE))
    assert clfe(p) is clfe(q)
    assert equiv(CLFEL2, p, q)
    assert equiv(SFEL(), p, q)
    assert equiv(SFEL(["b", "a0", "c1"]), p, q)
    assert SFEL(["b", "a0"]).beta == ("b", "a0")
    assert str(SFEL(["b", "a0"])) == "sfel(b,a0)"
    assert sfe(["b", "a0"], p) == node("b", node("a0", TRUE, FALSE), node("a0", FALSE, FALSE))
    with pytest.raises(ValueError, match="outside the alphabet: a0"):
        sfe(["a", "b"], p)


def _assert_oracles(p, beta):
    """The paper's definitions: mfe, clfe, sfe and mfe_u through memo(fe(p))."""
    x = fe(p)
    assert mfe(p) is memo(x)
    assert mfe_u(p) is memo(fe_u(p))
    assert clfe(p) is memo(tree_or(f_tilde_tree(sorted(syntax.alphabet(p))), x))
    assert sfe(beta, p) is sfe_tree(beta, x)
    assert sfe_tree(beta, x) is memo(tree_or(f_tilde_tree(beta), x))


def test_every_logic_is_its_definition_exhaustively():
    # evaluate's direct routes against from_full, the definition; from_full
    # tells a term with U by its tree, which is all U exactly then
    logics = [logic_by_name(name) for name in LOGICS] + [SFEL(("b", "c", "a"))]
    for p in axioms._universe(("a", "b"), 3, True):
        x, has_u = fe_u(p), syntax.contains_u(p)
        assert x is fe_open(p, {})  # continuation passing against composition
        assert leaf_kinds(x) == {"U"} if has_u else "U" not in leaf_kinds(x)
        for logic in logics:
            if logic.allows_u or not has_u:
                assert evaluate(logic, p) is from_full(logic, x)


@pytest.mark.parametrize("logic", [FFEL, MFEL, CLFEL2, SFEL()], ids=str)
def test_a_logic_without_u_refuses_exactly_the_terms_with_u(logic):
    # ffel reads U off the tree's leftmost leaf, the others off their walk
    # of the term: both against contains_u.
    for p in axioms._universe(("a", "b"), 3, True):
        if syntax.contains_u(p):
            with pytest.raises(ValueError, match="accepts only U-free"):
                evaluate(logic, p)
        else:
            evaluate(logic, p)


def test_perfect_trees_match_memo_oracle_exhaustively():
    for p in axioms._universe(("a", "b"), 3, False):
        for beta in (("a", "b"), ("b", "c", "a")):
            _assert_oracles(p, beta)


_WIDE_ATOMS = ("a", "b0", "c", "d_1")


@given(
    exprs(allow_u=False, atoms=_WIDE_ATOMS),
    st.permutations(_WIDE_ATOMS + ("z9",)),
)
def test_hierarchy_on_single_expressions(e, beta):
    # each logic's tree is a function of the previous one's
    _assert_oracles(e, beta)
