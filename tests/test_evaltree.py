import copy
import gc
import itertools
import json
import pickle
import random
import sys

import pytest
from hypothesis import given, strategies as st

import fel
from fel import axioms, evaltree, invert, models, syntax, tables
from fel.evaltree import (
    FALSE,
    HOLE,
    TRUE,
    UNDEF,
    Leaf,
    Node,
    depth,
    iter_subtrees,
    leaf,
    leaf_kinds,
    node,
    render,
    subst,
    tree_from_json,
    tree_to_json,
)
from fel.fnf import normalize_ffel
from fel.normalforms import normalize_clfel2, normalize_mfel
from fel.scl import sc_and, sc_or
from fel.semantics import CLFEL2, FFEL, MFEL, evaluate, fe, mfe, tree_and, tree_not, tree_or
from fel.syntax import mk_and, mk_atom, mk_not, mk_or, parse, print_expr


def replace_leaves(x, mapping):
    """Simultaneously replace leaf kinds by trees; unmapped kinds stay.

    The general leaf substitution, kept here as the oracle for subst and
    for invert's placeholder contexts.  A module-level walk, not a
    recursive closure, so that no call leaves a reference cycle holding
    trees for the cyclic collector, which would make what reset() can
    free depend on when that collector runs.
    """
    return _replace(x, mapping, {})


def _replace(t, mapping, memo):
    r = memo.get(t)
    if r is None:
        if isinstance(t, Leaf):
            r = mapping.get(t.kind, t)
        else:
            r = node(t.atom, _replace(t.left, mapping, memo), _replace(t.right, mapping, memo))
        memo[t] = r
    return r


def test_leaf_constructors():
    assert leaf("T") is TRUE
    assert leaf("D") is HOLE
    with pytest.raises(ValueError):
        leaf("X")
    with pytest.raises(ValueError):
        Leaf("bogus")


def test_hash_consing():
    assert node("a", TRUE, FALSE) is node("a", TRUE, FALSE)


def test_replace_leaves_simultaneous():
    x = node("a", TRUE, FALSE)
    swapped = replace_leaves(x, {"T": FALSE, "F": TRUE})
    assert swapped == node("a", FALSE, TRUE)
    # not sequential: T leaves must not fall through to the F clause
    assert replace_leaves(swapped, {"F": TRUE, "T": FALSE}) == x


def test_replace_leaves_unmapped_stay():
    x = node("a", UNDEF, FALSE)
    assert replace_leaves(x, {"F": TRUE}) == node("a", UNDEF, TRUE)


def test_repr_is_the_ascii_rendering_cut_after_a_bound():
    for text in ("a", "T", "a & b | !c", "(a | b) & (c | d)"):
        x = fe(parse(text))
        assert repr(x) == render(x, "ascii").replace("\n", " ")
    x = TRUE
    for _ in range(2000):
        x = node("a", x, x)
    text = repr(x)
    assert len(text) < 5000
    assert text.endswith(" ...")
    assert text.startswith("a   a     a")


def test_depth_and_kinds():
    x = node("a", node("b", TRUE, FALSE), FALSE)
    assert depth(x) == 2
    assert depth(TRUE) == 0
    assert leaf_kinds(x) == frozenset(("T", "F"))
    assert leaf_kinds(UNDEF) == frozenset(("U",))


def test_iter_subtrees_children_first_distinct():
    x = node("a", node("b", TRUE, FALSE), node("b", TRUE, FALSE))
    subs = list(iter_subtrees(x))
    assert subs == [TRUE, FALSE, node("b", TRUE, FALSE), x]


def test_json_roundtrip():
    x = node("a", node("b", TRUE, UNDEF), FALSE)
    data = tree_to_json(x)
    assert tree_from_json(data) == x
    assert tree_from_json(json.dumps(data)) == x
    with pytest.raises(ValueError):
        tree_from_json("[1, 2]")
    for bad in ('{"weird": 1}', {"leaf": [1]}, {"atom": "a", "left": {"leaf": "T"}},
                {"atom": "A", "left": {"leaf": "T"}, "right": {"leaf": "F"}},
                {"atom": 5, "left": {"leaf": "T"}, "right": {"leaf": "F"}},
                {"atom": [1], "left": {"leaf": "T"}, "right": {"leaf": "F"}},
                {"atom": "a", "left": '{"leaf": "T"}', "right": {"leaf": "F"}}):
        with pytest.raises(ValueError):
            tree_from_json(bad)


def _oracle_from_json(d):
    """tree_from_json's walk before it read JSON text in one pass."""
    if not isinstance(d, dict):
        raise ValueError("tree JSON must be an object")
    if "leaf" in d:
        return leaf(d["leaf"])
    if "atom" in d:
        atom = d["atom"]
        if not isinstance(atom, str):
            raise ValueError(f"invalid atom name {atom!r}")
        syntax.Atom(atom)
        if "left" not in d or "right" not in d:
            raise ValueError("tree JSON node needs 'left' and 'right' keys")
        return node(atom, _oracle_from_json(d["left"]), _oracle_from_json(d["right"]))
    raise ValueError("tree JSON object needs a 'leaf' or 'atom' key")


_ODD = ("A", "", "a b", "1a", "D3", 5, None, [1], {"leaf": "T"}, {"x": 1}, '{"leaf": "T"}')


def _random_json(rng, height):
    """A random tree in tree_to_json's form, sometimes spoilt or padded."""
    if height == 0 or rng.random() < 0.3:
        d = {"leaf": rng.choice(evaltree.LEAF_KINDS)}
    else:
        d = {"atom": rng.choice(("a", "b", "x_1")),
             "left": _random_json(rng, height - 1), "right": _random_json(rng, height - 1)}
    k = rng.randrange(12)
    if k == 0:
        d[rng.choice(("leaf", "atom", "left", "right"))] = rng.choice(_ODD)
    elif k == 1:
        d.pop(rng.choice(list(d)))
    elif k == 2:
        d["extra"] = _random_json(rng, 1) if rng.random() < 0.5 else rng.choice(_ODD)
    elif k == 3:
        return rng.choice(_ODD)
    return d


def _json_outcome(read, data):
    try:
        return read(data)
    except ValueError as err:
        return str(err)


def test_json_reader_matches_the_walk_oracle():
    rng = random.Random(15)
    outcomes = set()
    for _ in range(3000):
        d = _random_json(rng, rng.randrange(5))
        want = _json_outcome(_oracle_from_json, d)
        if not isinstance(d, str):  # a string is read as JSON text
            assert _json_outcome(tree_from_json, d) == want
        assert _json_outcome(tree_from_json, json.dumps(d)) == want
        outcomes.add(type(want))
    assert outcomes == {str, Leaf, Node}


def test_json_reader_interns_no_expression_atom():
    tree_from_json('{"atom": "json_only", "left": {"leaf": "T"}, "right": {"leaf": "F"}}')
    assert ("json_only",) not in syntax.Atom._table


def test_json_reader_refuses_over_deep_input():
    text, data = '{"leaf": "T"}', {"leaf": "T"}
    for _ in range(3000):
        text = '{"atom": "a", "left": ' + text + ', "right": {"leaf": "F"}}'
        data = {"atom": "a", "left": data, "right": {"leaf": "F"}}
    for arg in (text, data):
        with pytest.raises(ValueError, match="input nested too deeply"):
            tree_from_json(arg)


def test_render_ascii():
    x = node("a", TRUE, FALSE)
    assert render(x, "ascii") == "a\n  T\n  F"
    assert render(x, "ascii", middle_u=True) == "a\n  T\n  U\n  F"


def test_render_dot():
    out = render(node("a", TRUE, FALSE), "dot")
    assert out.startswith("digraph")
    assert 'label="a"' in out and 'label="L"' in out and 'label="R"' in out


def _oracle_dot(t, lines, ids):
    """The recursive dot walk that render's loop replaced, kept as its oracle."""
    me = next(ids)
    lines.append(f'  n{me} [label="{t.kind if isinstance(t, Leaf) else t.atom}"];')
    if isinstance(t, Node):
        lines.append(f'  n{me} -> n{_oracle_dot(t.left, lines, ids)} [label="L"];')
        lines.append(f'  n{me} -> n{_oracle_dot(t.right, lines, ids)} [label="R"];')
    return me


def test_render_dot_matches_the_recursive_walk():
    rng = random.Random(16)
    for _ in range(300):
        x = fe(axioms._random_term(rng, ("a", "b", "c"), False, 4))
        lines = ["digraph evaltree {"]
        _oracle_dot(x, lines, itertools.count())
        assert render(x, "dot") == "\n".join(lines + ["}"])


def test_render_of_a_deep_spine():
    # dot is a loop; json.dumps recurses once per level, and its
    # RecursionError becomes the ValueError that tree_from_json raises.
    x = TRUE
    for _ in range(1200):
        x = node("a", x, FALSE)
    out = render(x, "dot").splitlines()
    assert len(out) == 2 + 2401 + 2400 and out[1] == '  n0 [label="a"];'
    with pytest.raises(ValueError, match="input nested too deeply"):
        render(x, "json")


def test_render_json():
    x = node("a", TRUE, FALSE)
    assert json.loads(render(x, "json")) == tree_to_json(x)
    with pytest.raises(ValueError):
        render(x, "pdf")


def test_direct_construction_is_interned():
    x = node("a", TRUE, FALSE)
    assert Node("a", TRUE, FALSE) is x
    assert Leaf("T") is TRUE
    assert copy.copy(x) is x and copy.deepcopy(x) is x
    assert pickle.loads(pickle.dumps(x)) is x
    with pytest.raises(AttributeError):
        x.atom = "b"
    with pytest.raises(AttributeError):
        TRUE.kind = "F"


def test_trees_are_interned_like_expressions():
    assert issubclass(Leaf, tables.Interned) and issubclass(Node, tables.Interned)
    assert syntax.Interned is tables.Interned
    assert Leaf._table is not Node._table and Node._table is evaltree._NODES
    # node() builds over Node's unique table itself, Node() through
    # Interned.__new__: whichever runs first, the other finds its tree.
    x = node("fresh_a", TRUE, FALSE)
    assert Node("fresh_a", TRUE, FALSE) is x
    y = Node("fresh_b", x, UNDEF)
    assert node("fresh_b", x, UNDEF) is y
    assert y.left is x and y.right is UNDEF
    assert Leaf._table == {(kind,): leaf(kind) for kind in evaltree.LEAF_KINDS}


def _shape(t):
    """The tree as nested tuples, built without the unique table."""
    if isinstance(t, Leaf):
        return t.kind
    return (t.atom, _shape(t.left), _shape(t.right))


def _build(shape):
    if isinstance(shape, str):
        return leaf(shape)
    atom, left, right = shape
    return node(atom, _build(left), _build(right))


def _substitute(shape, mapping):
    if isinstance(shape, str):
        return mapping.get(shape, shape)
    atom, left, right = shape
    return (atom, _substitute(left, mapping), _substitute(right, mapping))


def _same_structure(x, y):
    """Structural equality of trees, as the definition states it."""
    if isinstance(x, Leaf) or isinstance(y, Leaf):
        return isinstance(x, Leaf) and isinstance(y, Leaf) and x.kind == y.kind
    return (x.atom == y.atom and _same_structure(x.left, y.left)
            and _same_structure(x.right, y.right))


small_exprs = st.recursive(
    st.sampled_from([mk_atom("a"), mk_atom("b"), syntax.TRUE, syntax.FALSE]),
    lambda sub: st.one_of(
        sub.map(mk_not),
        st.tuples(sub, sub).map(lambda p: mk_and(*p)),
        st.tuples(sub, sub).map(lambda p: mk_or(*p)),
    ),
    max_leaves=6,
)


@given(small_exprs, small_exprs)
def test_identity_equality_matches_structure(p, q):
    pairs = ((p, q), (p, mk_not(mk_not(p))), (p, mk_and(p, syntax.TRUE)))
    for f in (fe, mfe):
        for left, right in pairs:
            x, y = f(left), f(right)
            assert (x == y) == _same_structure(x, y)
            if x == y:
                assert hash(x) == hash(y)
        x = f(p)
        assert tree_from_json(tree_to_json(x)) is x
        assert _build(_shape(x)) is x


@given(small_exprs, small_exprs, small_exprs)
def test_replace_leaves_builds_interned_trees(p, q, r):
    x, y, z = fe(p), mfe(q), fe(r)
    for mapping in ({"T": y}, {"F": z}, {"T": y, "F": z}, {"T": FALSE, "F": TRUE}):
        shapes = {k: _shape(v) for k, v in mapping.items()}
        assert replace_leaves(x, mapping) is _build(_substitute(_shape(x), shapes))
    # subst and the connectives on it build what their definitions build
    assert subst(x, y, z) is replace_leaves(x, {"T": y, "F": z})
    assert tree_not(x) is replace_leaves(x, {"T": FALSE, "F": TRUE})
    assert tree_and(x, y) is replace_leaves(x, {"T": y, "F": replace_leaves(y, {"T": FALSE})})
    assert tree_or(x, y) is replace_leaves(x, {"T": replace_leaves(y, {"F": TRUE}), "F": y})
    assert sc_and(x, y) is replace_leaves(x, {"T": y})
    assert sc_or(x, y) is replace_leaves(x, {"F": y})


def test_reset_keeps_held_trees_and_expressions():
    e = parse("a & (b | !c) & d1")
    t = fe(e)
    fel.reset()
    assert node(t.atom, t.left, t.right) is t
    assert fe(parse("a & (b | !c) & d1")) is t
    assert parse(print_expr(e)) is e


def _fresh_term(rng, leaves):
    """A random U-free term with the given number of atom leaves over q0-q9."""
    if leaves == 1:
        e = mk_atom(f"q{rng.randrange(10)}")
    else:
        k = rng.randrange(1, leaves)
        mk = mk_and if rng.random() < 0.5 else mk_or
        e = mk(_fresh_term(rng, k), _fresh_term(rng, leaves - k))
    return mk_not(e) if rng.random() < 0.2 else e


def _churn(rng):
    for _ in range(1000):
        p = _fresh_term(rng, rng.randint(2, 7))
        for logic, normalize in ((FFEL, normalize_ffel), (MFEL, normalize_mfel),
                                 (CLFEL2, normalize_clfel2)):
            evaluate(logic, p)
            normalize(p)


def test_reset_frees_what_nothing_holds():
    rng = random.Random(7)
    fel.reset()
    held = [len(table) for table in tables._UNIQUE]
    rounds = []
    for _ in range(3):
        _churn(rng)
        fel.reset()
        sizes = [len(table) for table in tables._UNIQUE]
        assert all(n <= m for n, m in zip(sizes, held))
        assert not any(t.atom.startswith("q") for t in evaltree._NODES.values())
        rounds.append(sizes)
    assert rounds[0] == rounds[1] == rounds[2]


def test_reset_needs_no_cyclic_collection():
    # Nothing fel builds is held by a reference cycle, so reference counts
    # alone free it: with the collector off, no cyclic garbage is left
    # behind, and reset() drops every tree over the q atoms.
    rng = random.Random(11)
    mf = axioms.BUILTIN_SETS["mf"]
    fel.reset()
    gc.collect()
    gc.disable()
    try:
        _churn(rng)
        for _ in range(100):
            nf = normalize_ffel(_fresh_term(rng, rng.randint(2, 5)))
            assert invert.g(fe(nf)) is nf
        assert models.find_model(mf.without("MF1"), mf["MF1"], 3).status == "model"
        assert gc.collect() == 0
        fel.reset()
        assert not any(t.atom.startswith("q") for t in evaltree._NODES.values())
    finally:
        gc.enable()


def test_reset_shrinks_the_unique_tables():
    fel.reset()
    size = sys.getsizeof(evaltree._NODES)
    t = FALSE
    for i in range(50_000):
        t = node(f"q{i % 10}", t, TRUE)
    assert sys.getsizeof(evaltree._NODES) > size
    del t
    fel.reset()
    assert sys.getsizeof(evaltree._NODES) <= size
