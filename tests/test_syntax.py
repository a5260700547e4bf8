import copy
import gc
import pickle

import pytest
from hypothesis import given, strategies as st

from fel import normalforms, scl, syntax
from fel.syntax import (
    FALSE,
    TRUE,
    UNDEF,
    ParseError,
    mk_and,
    mk_atom,
    mk_not,
    mk_or,
    parse,
    print_expr,
)


def exprs(atoms=("a", "b", "c"), allow_u=True):
    leaves = [st.sampled_from([mk_atom(a) for a in atoms]), st.just(TRUE), st.just(FALSE)]
    if allow_u:
        leaves.append(st.just(UNDEF))
    return st.recursive(
        st.one_of(*leaves),
        lambda sub: st.one_of(
            sub.map(mk_not),
            st.tuples(sub, sub).map(lambda p: mk_and(*p)),
            st.tuples(sub, sub).map(lambda p: mk_or(*p)),
        ),
        max_leaves=25,
    )


def test_parse_precedence_and_associativity():
    assert parse("a & b | c") == mk_or(mk_and(mk_atom("a"), mk_atom("b")), mk_atom("c"))
    assert parse("a | b & c") == mk_or(mk_atom("a"), mk_and(mk_atom("b"), mk_atom("c")))
    assert parse("a & b & c") == mk_and(mk_and(mk_atom("a"), mk_atom("b")), mk_atom("c"))
    assert parse("a | b | c") == mk_or(mk_or(mk_atom("a"), mk_atom("b")), mk_atom("c"))
    assert parse("!a & b") == mk_and(mk_not(mk_atom("a")), mk_atom("b"))
    assert parse("!!a") == mk_not(mk_not(mk_atom("a")))


def test_parse_constants_and_atoms():
    assert parse("T") is TRUE
    assert parse("F") is FALSE
    assert parse("U") is UNDEF
    assert parse("foo_1") == mk_atom("foo_1")


def test_parse_errors_carry_offset():
    with pytest.raises(ParseError) as e:
        parse("a &")
    assert e.value.offset == 3
    with pytest.raises(ParseError):
        parse("(a & b")
    with pytest.raises(ParseError):
        parse("a b")
    with pytest.raises(ParseError):
        parse("a @ b")
    with pytest.raises(ParseError):
        parse("")


def test_too_deep_input_raises_value_error():
    for text in ("!" * 3000 + "a", "(" * 1200 + "a" + ")" * 1200,
                 "(!" * 600 + "a" + ")" * 600, "a & (" * 600 + "a" + ")" * 600):
        with pytest.raises(ValueError, match="input nested too deeply"):
            parse(text)


def test_parse_leaves_no_reference_cycle():
    # The descent is module-level functions, so reference counts alone
    # free what a call makes.
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            parse("(a & !b) | (c & (d | T)) & !U")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_printers_and_normal_form_walks_leave_no_reference_cycle():
    # The printer and the normal-form walks are module-level functions,
    # like the parser, so reference counts alone free what a call makes.
    e = parse("(a & !b) | (c & (d | T)) & !U")
    sc = scl.translate_t(parse("(a & !b) | (c & (d | T))"))
    nf = normalforms.normalize_mfel(parse("a & b | c"))
    calls = (lambda: print_expr(e), lambda: scl.print_scl(sc),
             lambda: normalforms.permute_sigma_nf(nf, "cab"),
             lambda: list(normalforms.enumerate_sigma_nf("ab")))
    for call in calls:
        call()
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            for _ in range(100):
                call()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_print_minimal_parentheses():
    assert print_expr(parse("(a | b) & c")) == "(a | b) & c"
    assert print_expr(parse("a | b & c")) == "a | b & c"
    assert print_expr(parse("!(a & b)")) == "!(a & b)"
    assert print_expr(parse("a & (b & c)")) == "a & (b & c)"
    assert print_expr(parse("a & b & c")) == "a & b & c"


def test_print_fully_parenthesized():
    s = print_expr(parse("a & b | c"), fully_parenthesized=True)
    assert s == "((a & b) | c)"
    assert parse(s) == parse("a & b | c")


@given(exprs())
def test_print_parse_roundtrip(e):
    assert parse(print_expr(e)) == e
    assert parse(print_expr(e, fully_parenthesized=True)) == e


def test_alphabet_and_contains_u():
    e = parse("a & (b | !a) & U")
    assert syntax.alphabet(e) == {"a", "b"}
    assert syntax.contains_u(e)
    assert not syntax.contains_u(parse("a & b"))


def test_str_of_first_occurrence_order():
    assert syntax.str_of(parse("b & a & b & c")) == "bac"
    assert syntax.str_of(parse("T")) == ""
    assert syntax.str_of(parse("!a | a")) == "a"


def test_seq_filter():
    assert syntax.seq_filter("ab", "bca") == "abc"
    assert syntax.seq_filter("", "aa") == "a"


def test_nnf_and_dual():
    from fel import semantics

    e = parse("!(a & (b | !c))")
    assert semantics.fe(syntax.nnf(e)) == semantics.fe(e)
    assert syntax.dual(parse("a & T")) == parse("a | F")
    assert syntax.dual(syntax.dual(e)) == e


@given(exprs(allow_u=False))
def test_nnf_preserves_tree(e):
    from fel import semantics

    assert semantics.fe(syntax.nnf(e)) == semantics.fe(e)


def test_interning_gives_identity():
    assert parse("a & b") is parse("a & b")
    assert mk_atom("a") is mk_atom("a")
    a, b = mk_atom("a"), mk_atom("b")
    assert syntax.Atom("a") is a
    assert syntax.FullAnd(a, b) is mk_and(a, b)
    assert syntax.FullOr(a, b) is mk_or(a, b)
    assert syntax.Not(a) is mk_not(a)
    assert syntax.ConstT() is TRUE
    assert syntax.ConstF() is FALSE
    assert syntax.ConstU() is UNDEF
    assert syntax.Var("x") is syntax.Var("x")
    assert syntax.Var("a") is not a
    with pytest.raises(ValueError):
        syntax.Atom("Bad")
    e = parse("!a & (b | U)")
    with pytest.raises(AttributeError):
        e.left = a
    with pytest.raises(AttributeError):
        a.name = "b"
    assert copy.copy(e) is e
    assert copy.deepcopy(e) is e
    assert pickle.loads(pickle.dumps(e)) is e
    assert pickle.loads(pickle.dumps(syntax.Var("x"))) is syntax.Var("x")


def _rebuild(e):
    """A structural copy of e made by direct class construction."""
    if isinstance(e, syntax.Atom):
        return syntax.Atom(e.name)
    if isinstance(e, syntax.Not):
        return syntax.Not(_rebuild(e.operand))
    if isinstance(e, (syntax.FullAnd, syntax.FullOr)):
        return type(e)(_rebuild(e.left), _rebuild(e.right))
    return type(e)()


@given(exprs(), exprs())
def test_equality_is_structural_identity(e1, e2):
    assert (e1 == e2) == (print_expr(e1, True) == print_expr(e2, True))
    assert (e1 == e2) == (e1 is e2)
    assert _rebuild(e1) is e1
    assert parse(print_expr(e2, True)) is e2
