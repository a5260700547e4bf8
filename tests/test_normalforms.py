import itertools

import pytest
from hypothesis import given

from fel import axioms, normalforms, semantics, syntax
from fel.normalforms import (
    SigmaNormalForm,
    enumerate_sigma_nf,
    f_sigma,
    f_tilde_sigma,
    h,
    normalize_clfel2,
    normalize_clfelu,
    normalize_mfel,
    normalize_mfelu,
    permute_sigma_nf,
    t_sigma,
)
from fel import fnf
from fel.evaltree import UNDEF, Node, node
from fel.fnf import u_sigma
from fel.syntax import FALSE, TRUE, mk_atom

from test_syntax import exprs

P = syntax.parse
A, B = mk_atom("a"), mk_atom("b")


def test_h_examples():
    assert h(A, TRUE, FALSE) == P("(a & T) | (!a & F)")
    assert semantics.equiv(semantics.MFEL, h(A, TRUE, FALSE), P("a"))
    assert semantics.equiv(semantics.MFEL, h(A, FALSE, TRUE), P("!a"))
    u_r = u_sigma("b")
    assert semantics.equiv(semantics.MFELU, h(A, u_r, u_r), u_sigma("ab"))


def test_sigma_builders():
    assert f_tilde_sigma("ab") == P("a & (b & F)")
    assert t_sigma("a") == P("(a & T) | (!a & T)")
    assert semantics.equiv(semantics.MFEL, f_tilde_sigma("ab"), f_sigma("ab"))
    assert t_sigma("") is TRUE and f_sigma("") is FALSE


def test_normalize_mfel_examples():
    nf = normalize_mfel(P("a"))
    assert nf.sigma == ("a",) and nf.body == h(A, TRUE, FALSE)
    nf = normalize_mfel(P("a & b"))
    assert nf.sigma == ("a", "b")
    assert nf.body == h(A, h(B, TRUE, FALSE), h(B, FALSE, FALSE))
    nf = normalize_mfel(P("T"))
    assert nf.sigma == () and nf.body is TRUE
    with pytest.raises(ValueError):
        normalize_mfel(P("a & U"))


@given(exprs(allow_u=False))
def test_normalize_mfel_sound(e):
    nf = normalize_mfel(e)
    assert nf.sigma == syntax.atoms_of(e)
    assert semantics.mfe(nf.body) == semantics.mfe(e)


@given(exprs(allow_u=False, atoms=("a", "b")), exprs(allow_u=False, atoms=("a", "b")))
def test_normalize_mfel_unique(e1, e2):
    if syntax.str_of(e1) == syntax.str_of(e2):
        same = semantics.mfe(e1) == semantics.mfe(e2)
        assert same == (normalize_mfel(e1) == normalize_mfel(e2))


def test_normalize_mfelu_examples():
    nf = normalize_mfelu(P("a | U"))
    assert nf.sigma == ("a",) and nf.body == P("a & U")
    assert normalize_mfelu(P("a & b")) == normalize_mfel(P("a & b"))
    nf = normalize_mfelu(P("U"))
    assert nf.sigma == () and nf.body is syntax.UNDEF
    # repeated atoms dedup in the memorised sigma
    assert normalize_mfelu(P("a & (a & U)")).sigma == ("a",)


def test_undefined_normal_form_of_a_long_chain():
    # 40 distinct atoms give an all-U tree with 2^40 paths but 41 distinct
    # subtrees; the normalizers must not walk the paths.
    atoms = [f"a{i}" for i in range(40)]
    p = P(" & ".join(atoms) + " & U")
    assert fnf.normalize_ffelu(p) is u_sigma(atoms)
    assert normalize_mfelu(p) == SigmaNormalForm(tuple(atoms), u_sigma(atoms))


def test_normalizers_keep_their_u_messages_and_reject_open_terms():
    with pytest.raises(ValueError, match="normalize_mfel rejects U; use normalize_mfelu"):
        normalize_mfel(P("a & U"))
    with pytest.raises(ValueError, match="normalize_clfel2 rejects U; use normalize_clfelu"):
        normalize_clfel2(P("a & U"))
    x = syntax.Var("x")
    for p in (syntax.mk_and(x, syntax.mk_atom("a")), syntax.mk_and(syntax.UNDEF, x)):
        for normalize in (normalize_mfel, normalize_mfelu, normalize_clfel2, normalize_clfelu):
            with pytest.raises(TypeError, match="not a closed expression"):
                normalize(p)


def test_normalize_clfel2_examples():
    assert normalize_clfel2(P("b & a")) == normalize_clfel2(P("a & b"))
    assert normalize_clfel2(P("(b | a) & b")) == normalize_clfel2(P("(a | T) & b"))
    with pytest.raises(ValueError):
        normalize_clfel2(P("U"))


@given(exprs(allow_u=False))
def test_normalize_clfel2_sound(e):
    nf = normalize_clfel2(e)
    assert nf.sigma == tuple(sorted(syntax.alphabet(e)))
    assert semantics.clfe(nf.body) == semantics.clfe(e)


def test_normalize_clfelu():
    assert normalize_clfelu(P("U & a")) == SigmaNormalForm((), syntax.UNDEF)
    assert normalize_clfelu(P("a & b")) == normalize_clfel2(P("a & b"))


def test_permute_examples():
    src = SigmaNormalForm(("a", "b"), h(A, h(B, TRUE, FALSE), h(B, FALSE, TRUE)))
    out = permute_sigma_nf(src, "ba")
    assert out.sigma == ("b", "a")
    assert out.body == h(B, h(A, TRUE, FALSE), h(A, FALSE, TRUE))

    src = SigmaNormalForm(("a", "b"), h(A, h(B, TRUE, TRUE), h(B, FALSE, FALSE)))
    assert permute_sigma_nf(src, "ba").body == h(B, h(A, TRUE, FALSE), h(A, TRUE, FALSE))

    nf = normalize_mfel(P("a"))
    assert permute_sigma_nf(nf, "a") == nf

    with pytest.raises(ValueError):
        permute_sigma_nf(nf, "b")


def test_permute_three_atoms_all_orders():
    nf = normalize_mfel(P("a & (b | c)"))
    for perm in itertools.permutations("abc"):
        target = "".join(perm)
        out = permute_sigma_nf(nf, target)
        assert out.sigma == perm
        assert syntax.str_of(out.body) == target
        assert semantics.clfe(out.body) == semantics.clfe(nf.body)


@pytest.mark.parametrize("allow_u", [False, True])
def test_every_normal_form_keeps_the_tree_exhaustively(allow_u):
    # The normalizers do not evaluate their output again; this is that check,
    # for every term of height <= 3 over a, b, c, in each logic with normal forms.
    for p in axioms._universe(("a", "b", "c"), 3, allow_u):
        has_u = syntax.contains_u(p)
        for logic, normal_form in normalforms.NORMAL_FORMS.items():
            if logic.allows_u or not has_u:
                assert semantics.evaluate(logic, normal_form(p)) is semantics.evaluate(logic, p)


def test_every_permutation_keeps_the_commutative_tree():
    # permute_sigma_nf does not compare trees itself; this is that check.
    for nf in enumerate_sigma_nf("abc"):
        tree = semantics.clfe(nf.body)
        for order in itertools.permutations("abc"):
            out = permute_sigma_nf(nf, order)
            assert out.sigma == order and semantics.clfe(out.body) is tree


def test_permute_multi_character_atoms():
    nf = normalize_mfel(P("a0 & b"))
    out = permute_sigma_nf(nf, ["b", "a0"])
    assert out.sigma == ("b", "a0")
    assert syntax.atoms_of(out.body) == ("b", "a0")
    assert semantics.clfe(out.body) is semantics.clfe(nf.body)
    assert permute_sigma_nf(nf, ("a0", "b")) == nf
    with pytest.raises(ValueError, match="not a permutation"):
        permute_sigma_nf(nf, "ba0")


def _wide(n):
    """A left-deep mix of & and | over a0..a(n-1), each atom two or three times."""
    names = [f"a{i}" for i in range(n)]
    text = names[0]
    for i, a in enumerate(names[1:] + names[::3] + names[1::2], 1):
        lit = "!" + a if i % 3 == 0 else a
        text = f"({text}) {'&' if i % 2 else '|'} {lit}"
    return P(text)


@pytest.mark.parametrize("n", [10, 16])
def test_normalize_wide_expressions(n):
    # a full evaluation of the h-nest body has paths about 2^n atoms long,
    # so the normalizers' self-checks must not take that route
    p = _wide(n)
    x = semantics.fe(p)
    nf = normalize_mfel(p)
    assert nf.sigma == syntax.atoms_of(p)
    assert semantics.mfe(nf.body) is semantics.memo(x)
    # mfelu's tree of the body with U is the chain over sigma, every leaf U
    u = syntax.mk_and(nf.body, syntax.UNDEF)
    chain = UNDEF
    for a in reversed(nf.sigma):
        chain = node(a, chain, chain)
    assert semantics.mfe_u(u) is chain
    assert normalize_mfelu(u) == SigmaNormalForm(nf.sigma, u_sigma(nf.sigma))
    beta = sorted(syntax.alphabet(p))
    nf = normalize_clfel2(p)
    assert nf.sigma == tuple(beta)
    assert semantics.clfe(nf.body) is semantics.sfe_tree(beta, x)
    # nor may clfel's tree of the body with U, which is U
    u = syntax.mk_and(nf.body, syntax.UNDEF)
    assert semantics.clfe_u(u) is semantics.clfe_u(syntax.mk_or(syntax.UNDEF, nf.body)) is UNDEF
    assert semantics.equiv(semantics.CLFEL, u, syntax.UNDEF)
    if n == 10:
        _assert_full_trees_of_a_wide_body(normalize_mfel(p).body)


def _occurrences(e):
    """The atom occurrences of e from left to right, read without recursion."""
    out, todo = [], [e]
    while todo:
        e = todo.pop()
        if isinstance(e, syntax.Atom):
            out.append(e.name)
        elif isinstance(e, syntax.Not):
            todo.append(e.operand)
        elif isinstance(e, (syntax.FullAnd, syntax.FullOr)):
            todo += (e.right, e.left)
    return out


def _leftmost_path(t):
    """The atoms on t's leftmost path, whether each node's children are one
    tree, and the leaf kind it ends in; read without recursion."""
    atoms, chain = [], True
    while isinstance(t, Node):
        atoms.append(t.atom)
        chain = chain and t.left is t.right
        t = t.left
    return atoms, chain, t.kind


def _assert_full_trees_of_a_wide_body(body):
    # the full trees of the body are thousands of levels deep, so they are
    # read by loops (memo and depth recurse once per level), and only atom
    # names reach an assertion (a tree's repr would expand every path)
    occurrences = _occurrences(body)
    assert len(occurrences) == 2046
    # ffelu's tree of the body with U is the all-U chain over the occurrences
    u = syntax.mk_and(body, syntax.UNDEF)
    assert _leftmost_path(semantics.evaluate(semantics.FFELU, u)) == (occurrences, True, "U")
    # every path of fe(body) reads every occurrence, the leftmost one too
    atoms, _, end = _leftmost_path(semantics.fe(body))
    assert atoms == occurrences and end in ("T", "F")


def test_enumerate_counts():
    assert len(list(enumerate_sigma_nf(""))) == 2
    assert len(list(enumerate_sigma_nf("a"))) == 4
    assert len(list(enumerate_sigma_nf("ab"))) == 16
    with pytest.raises(ValueError):
        list(enumerate_sigma_nf("abcde"))


def test_enumerate_distinct_trees():
    forms = list(enumerate_sigma_nf("ab"))
    trees = {semantics.mfe(f.body) for f in forms}
    assert len(trees) == len(forms)


def test_absorption_laws_for_enumerated_forms():
    for sigma in ("", "a", "ab"):
        ts, fs = t_sigma(sigma), f_sigma(sigma)
        for form in enumerate_sigma_nf(sigma):
            p = form.body
            assert semantics.equiv(semantics.MFEL, syntax.mk_or(p, fs), p)
            assert semantics.equiv(semantics.MFEL, syntax.mk_and(p, ts), p)
            assert semantics.equiv(semantics.MFEL, syntax.mk_and(p, FALSE), fs)
            assert semantics.equiv(semantics.MFEL, syntax.mk_or(p, TRUE), ts)


def test_undefined_absorption_for_enumerated_forms():
    for sigma in ("a", "ab"):
        us = u_sigma(sigma)
        for form in enumerate_sigma_nf(sigma):
            p = form.body
            assert semantics.equiv(semantics.MFELU, syntax.mk_or(p, us), us)
            assert semantics.equiv(semantics.MFELU, syntax.mk_and(p, syntax.UNDEF), us)
