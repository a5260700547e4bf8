import copy
import gc
import pickle
import random
import re
import sys

import pytest
from hypothesis import given, strategies as st

from fel import axioms, normalforms, scl, syntax
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


# The recursive descent parse once was, kept as the oracle of the loop:
# one Python frame or more per nesting level, building by class calls.
_ORACLE_TOKEN = re.compile(r"\s*(?:([a-z][a-z0-9_]*)|([TFU])|([&|!()])|(\S))")


def _oracle_parse(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _ORACLE_TOKEN.match(text, pos)
        if m is None:
            break
        at = m.start(m.lastindex)
        if m.group(4):
            raise ParseError(at, ["a token"])
        if m.group(1):
            tokens.append(("atom", m.group(1), at))
        elif m.group(2):
            tokens.append(("const", m.group(2), at))
        else:
            tokens.append((m.group(3), m.group(3), at))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    e, i = _oracle_expr(tokens, 0)
    kind, _, at = tokens[i]
    if kind != "end":
        raise ParseError(at, ["'&'", "'|'", "end of input"])
    return e


def _oracle_expr(tokens, i):
    e, i = _oracle_conjunction(tokens, i)
    while tokens[i][0] == "|":
        r, i = _oracle_conjunction(tokens, i + 1)
        e = syntax.FullOr(e, r)
    return e, i


def _oracle_conjunction(tokens, i):
    e, i = _oracle_unary(tokens, i)
    while tokens[i][0] == "&":
        r, i = _oracle_unary(tokens, i + 1)
        e = syntax.FullAnd(e, r)
    return e, i


def _oracle_unary(tokens, i):
    if tokens[i][0] == "!":
        e, i = _oracle_unary(tokens, i + 1)
        return syntax.Not(e), i
    return _oracle_primary(tokens, i)


def _oracle_primary(tokens, i):
    kind, value, at = tokens[i]
    if kind == "atom":
        return syntax.Atom(value), i + 1
    if kind == "const":
        return {"T": TRUE, "F": FALSE, "U": UNDEF}[value], i + 1
    if kind == "(":
        e, i = _oracle_expr(tokens, i + 1)
        kind2, _, at2 = tokens[i]
        if kind2 != ")":
            raise ParseError(at2, ["')'", "'&'", "'|'"])
        return e, i + 1
    raise ParseError(at, ["'T'", "'F'", "'U'", "an atom", "'!'", "'('"])


def _outcome(parser, text):
    try:
        return parser(text)
    except ValueError as err:
        return (type(err), str(err), getattr(err, "offset", None), getattr(err, "expected", None))


_SPACES = ("", "", "", " ", "  ", "\t", "\n", " ")
_JUNK = ("@", "#", "1", "_", "A", "é", ".", "&&", "||", "!", "(", ")", "&", "|", " ", "a1", "T", "x")


def _random_text(rng, height):
    """A random term's text with random spacing and redundant parentheses."""
    sp = lambda: rng.choice(_SPACES)
    k = rng.randrange(7) if height > 0 else 0
    if k == 0:
        return sp() + rng.choice(("a", "b", "c", "x1", "foo_bar", "T", "F", "U")) + sp()
    if k == 1:
        return sp() + "!" + _random_text(rng, height - 1)
    if k == 2:
        return sp() + "(" + _random_text(rng, height - 1) + ")" + sp()
    op = rng.choice("&|")
    return _random_text(rng, height - 1) + op + _random_text(rng, height - 1)


def _mutate(rng, text):
    """text with a character deleted, inserted or doubled, or cut short."""
    if not text:
        return rng.choice(_JUNK)
    i = rng.randrange(len(text) + 1)
    k = rng.randrange(4)
    if k == 0:
        return text[:i] + text[i + 1:]
    if k == 1:
        return text[:i] + rng.choice(_JUNK) + text[i:]
    if k == 2:
        return text[:i] + text[i:i + 1] * 2 + text[i + 1:]
    return text[:i]


def test_parse_matches_the_recursive_descent_oracle():
    rng = random.Random(15)
    errors = 0
    for n in range(5000):
        text = _random_text(rng, rng.randrange(8))
        for _ in range(n % 3):
            text = _mutate(rng, text)
        want = _outcome(_oracle_parse, text)
        got = _outcome(parse, text)
        if isinstance(want, tuple):
            errors += 1
            assert got == want, text
        else:
            assert got is want, text
    assert 1000 < errors < 4000  # both outcomes are exercised


@pytest.mark.parametrize("fully_parenthesized", [False, True])
def test_parse_inverts_print_over_the_height_3_universe(fully_parenthesized):
    for e in axioms._universe(("a", "b", "c"), 3, True):
        assert parse(print_expr(e, fully_parenthesized)) is e


def test_nesting_bound_edges():
    a = mk_atom("a")
    nots = [a]
    for _ in range(500):
        nots.append(mk_not(nots[-1]))
    assert syntax.MAX_NESTING == 500
    assert parse("!" * 500 + "a") is nots[500]
    assert parse("(" * 500 + "a" + ")" * 500) is a
    assert parse("(!" * 250 + "a" + ")" * 250) is nots[250]
    assert parse("a & (" * 500 + "b" + ")" * 500) is not None
    for text in ("!" * 501 + "a", "(" * 501 + "a" + ")" * 501, "(!" * 250 + "(a" + ")" * 251):
        with pytest.raises(ValueError, match="input nested too deeply"):
            parse(text)
    # An invalid character anywhere still wins, as the tokenizer reports it.
    with pytest.raises(ParseError) as err:
        parse("!" * 600 + "a @")
    assert err.value.offset == 602 and err.value.expected == ["a token"]


def _frames():
    n, f = 0, sys._getframe()
    while f is not None:
        n, f = n + 1, f.f_back
    return n


def test_parse_does_not_recurse():
    nested = "(" * 400 + "!a | b" + ")" * 400
    chain = " & ".join(["a", "!b"] * 2500)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 50)
    try:
        e1, e2 = parse(nested), parse(chain)
    finally:
        sys.setrecursionlimit(limit)
    assert e1 is mk_or(mk_not(mk_atom("a")), mk_atom("b"))
    assert type(e2) is syntax.FullAnd and e2.right is mk_not(mk_atom("b"))


def test_constructors_return_the_class_calls_objects():
    # Fresh atoms make each pair a miss for whichever constructor runs first.
    x, y = mk_atom("ctor_x"), mk_atom("ctor_y")
    assert mk_and(x, y) is syntax.FullAnd(x, y)
    assert syntax.FullAnd(y, x) is mk_and(y, x)
    assert mk_or(x, y) is syntax.FullOr(x, y)
    assert syntax.FullOr(y, x) is mk_or(y, x)
    assert mk_not(x) is syntax.Not(x)
    assert syntax.Not(y) is mk_not(y)
    assert (mk_and(x, y).left, mk_and(x, y).right) == (x, y)
    assert mk_not(y).operand is y
    with pytest.raises(AttributeError):
        mk_or(x, y).left = y


def test_nnf_and_dual_answer_on_deep_input():
    # Both are folds (tables.fold): a chain past the recursion limit is no error.
    text = " & ".join(["a"] * 1200)
    chain = parse(text)
    assert syntax.nnf(mk_not(chain)) is parse(" | ".join(["!a"] * 1200))
    assert syntax.dual(chain) is parse(text.replace("&", "|"))


def test_parse_leaves_no_reference_cycle():
    # The parser is one loop that makes no closure, so reference counts
    # alone free what a call makes.
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
