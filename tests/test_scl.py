import copy
import pickle
import time

import pytest
from hypothesis import given

from fel import scl, semantics, syntax
from fel.evaltree import FALSE, TRUE, node
from fel.scl import (
    SC_FALSE,
    SC_TRUE,
    Atom,
    Not,
    ScAnd,
    ScOr,
    bridge_check,
    print_scl,
    se,
    translate_t,
)

from test_syntax import exprs

P = syntax.parse


def test_se_examples():
    a = node("a", TRUE, FALSE)
    assert se(Atom("a")) == a
    assert se(SC_TRUE) is TRUE and se(SC_FALSE) is FALSE
    assert se(Not(Atom("a"))) == node("a", FALSE, TRUE)
    # right operand replaces only the reachable leaves
    assert se(ScAnd(Atom("a"), Atom("b"))) == node("a", node("b", TRUE, FALSE), FALSE)
    assert se(ScOr(Atom("a"), Atom("b"))) == node("a", TRUE, node("b", TRUE, FALSE))


def test_direct_construction_interns():
    assert ScAnd(Atom("a"), Atom("b")) is ScAnd(Atom("a"), Atom("b"))
    assert translate_t(P("a | !b")) is translate_t(P("a | !b"))
    e = ScOr(Atom("a"), SC_TRUE)
    assert copy.deepcopy(e) is e and pickle.loads(pickle.dumps(e)) is e
    with pytest.raises(AttributeError):
        e.left = Atom("b")
    with pytest.raises(AttributeError):
        Atom("a").name = "b"


def test_se_is_not_full_evaluation():
    # the short-circuit tree skips b on the F branch, the full tree does not
    assert se(ScAnd(Atom("a"), Atom("b"))) != semantics.fe(P("a & b"))


def test_translate_examples():
    assert translate_t(P("T")) is SC_TRUE
    assert translate_t(P("a")) == Atom("a")
    assert translate_t(P("!a")) == Not(Atom("a"))
    ta, tb = Atom("a"), Atom("b")
    assert translate_t(P("a & b")) == ScAnd(ScOr(ta, ScAnd(tb, SC_FALSE)), tb)
    assert translate_t(P("a | b")) == ScOr(ScAnd(ta, ScOr(tb, SC_TRUE)), tb)
    with pytest.raises(ValueError):
        translate_t(P("a & U"))


def test_bridge_check_examples():
    assert bridge_check(P("a & b"))
    assert bridge_check(P("!(a | b) & (a | F)"))
    assert se(translate_t(P("a & b"))) == semantics.fe(P("a & b"))


@given(exprs(allow_u=False))
def test_bridge_check_property(e):
    assert bridge_check(e)


def test_print_scl():
    assert print_scl(ScAnd(Atom("a"), Atom("b"))) == "a && b"
    assert print_scl(ScOr(ScAnd(Atom("a"), Atom("b")), Atom("c"))) == "a && b || c"
    assert print_scl(ScAnd(ScOr(Atom("a"), Atom("b")), Atom("c"))) == "(a || b) && c"
    assert print_scl(Not(ScAnd(Atom("a"), SC_TRUE))) == "!(a && T)"
    assert print_scl(ScAnd(Atom("a"), ScAnd(Atom("b"), Atom("c")))) == "a && (b && c)"
    assert (
        print_scl(ScAnd(Atom("a"), Atom("b")), fully_parenthesized=True)
        == "(a && b)"
    )


def test_print_scl_of_a_long_chain():
    chain = Atom("a")
    for _ in range(1199):
        chain = ScAnd(chain, Atom("a"))
    assert print_scl(chain) == " && ".join(["a"] * 1200)


def test_repr_uses_printer():
    assert repr(ScOr(Atom("a"), SC_FALSE)) == "<scl a || F>"


def test_bridge_check_of_a_deep_right_nested_chain():
    # translate_t uses each right operand twice; se walks the translated
    # DAG once per distinct subterm, not once per path.
    p = syntax.mk_atom("a")
    for _ in range(23):
        p = syntax.mk_and(syntax.mk_atom("a"), p)
    start = time.monotonic()
    assert bridge_check(p)
    assert time.monotonic() - start < 1


def test_translate_t_answers_on_deep_input():
    # translate_t is a fold (tables.fold), and se loops down the left
    # operands as fe does, so both answer the chain.
    chain = syntax.parse(" & ".join(["a"] * 1200))
    t = translate_t(chain)
    assert t.right is Atom("a") and t.left.left is translate_t(chain.left)
    assert se(t) is semantics.fe(chain)
