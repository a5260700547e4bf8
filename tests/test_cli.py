import gc
import json
import time

import pytest
from click.testing import CliRunner

from fel import evaltree, normalforms, semantics, syntax
from fel.cli import main

runner = CliRunner()


def run(*args):
    return runner.invoke(main, args)


@pytest.fixture(autouse=True)
def _collect_cycles():
    # CliRunner.invoke keeps sys.exc_info() of the SystemExit that ends each
    # command in a local, a reference cycle through its frame that, by
    # f_back, keeps the calling test's frame and locals alive until a full
    # collection.  Collect after each test, so no expression or tree a test
    # held outlives it and what fel.reset() frees in later tests does not
    # depend on when the collector runs.
    yield
    gc.collect()


def test_parse():
    r = run("parse", "a&b|!c")
    assert r.exit_code == 0
    assert r.output.strip() == "a & b | !c"
    r = run("parse", "--fully-parenthesized", "a&b|!c")
    assert r.output.strip() == "((a & b) | !c)"


def test_parse_error_exits_2():
    r = run("parse", "a &")
    assert r.exit_code == 2
    assert "error" in r.output


def test_too_deep_input_exits_2():
    for args in (("parse", "!" * 3000 + "a"), ("equiv", " & ".join(["a"] * 1500), "a")):
        r = run(*args)
        assert r.exit_code == 2
        assert "error: input nested too deeply" in r.output


def test_a_tree_too_large_to_render_exits_2_at_once():
    # The ffel tree of a chain of 30 a's is a DAG of 60 nodes that renders
    # 2^31 - 1: it is refused by its size before any line is printed.
    start = time.perf_counter()
    for args in (("equiv", " & ".join(["a"] * 30), "a"), ("tree", " & ".join(["a"] * 30))):
        r = run(*args)
        assert r.exit_code == 2
        assert r.output.startswith("error: tree too large to render")
    assert time.perf_counter() - start < 1.0


def test_parse_prints_a_long_chain():
    # The parser reads a chain with a loop and the printer writes it with
    # an explicit stack, so neither is bounded by the recursion limit.  No
    # expression is a local: the runner's frames keep this frame alive in
    # a reference cycle, and with it every object its locals hold.
    text = " & ".join(["a"] * 1200)
    assert syntax.print_expr(syntax.parse(text)) == text
    r = run("parse", text)
    assert r.exit_code == 0
    assert r.output.strip() == text


def test_tree_formats():
    r = run("tree", "a & b")
    assert r.exit_code == 0
    assert "a" in r.output and "T" in r.output
    r = run("tree", "--format", "json", "a & b")
    assert json.loads(r.output) == json.loads(evaltree.render(semantics.fe(syntax.parse("a & b")), "json"))
    r = run("tree", "--format", "dot", "a")
    assert r.output.startswith("digraph")


def test_tree_logic_and_alphabet():
    r = run("tree", "--logic", "sfel", "--alphabet", "ab", "--format", "json", "a")
    assert r.exit_code == 0
    want = evaltree.render(semantics.sfe("ab", syntax.parse("a")), "json")
    assert json.loads(r.output) == json.loads(want)
    # U in a two-valued logic is an input error
    r = run("tree", "--logic", "ffel", "U")
    assert r.exit_code == 2
    # an alphabet is only meaningful for sfel, and names only atoms
    for logic, alphabet in (("mfel", "ab"), ("sfel", "aB"), ("sfel", "a,B")):
        r = run("tree", "--logic", logic, "--alphabet", alphabet, "a")
        assert r.exit_code == 2
        assert "error" in r.output


def test_equiv():
    r = run("equiv", "--logic", "mfel", "a & a", "a")
    assert r.exit_code == 0
    assert r.output.strip() == "equivalent"
    r = run("equiv", "a & a", "a")
    assert r.exit_code == 1
    assert "NOT equivalent" in r.output
    assert "left tree:" in r.output and "right tree:" in r.output


def test_normalize():
    r = run("normalize", "a")
    assert r.exit_code == 0
    assert r.output.strip() == "T & (a & T)"
    r = run("normalize", "--logic", "mfel", "a & b")
    assert r.exit_code == 0
    out = syntax.parse(r.output.strip())
    assert semantics.mfe(out) == semantics.mfe(syntax.parse("a & b"))
    r = run("normalize", "--logic", "sfel", "a")
    assert r.exit_code == 2


def test_invert_roundtrip():
    t = semantics.fe(syntax.parse("T & (a & T)"))
    r = run("invert", evaltree.render(t, "json"))
    assert r.exit_code == 0
    assert semantics.fe(syntax.parse(r.output.strip())) == t


def test_invert_not_in_image():
    bad = evaltree.render(evaltree.node("a", evaltree.TRUE, evaltree.node("b", evaltree.TRUE, evaltree.FALSE)), "json")
    r = run("invert", bad)
    assert r.exit_code == 1
    assert "not in image" in r.output


def test_invert_bad_json():
    for text in (
        "{not json",
        '{"atom": "A", "left": {"leaf": "T"}, "right": {"leaf": "F"}}',
        '{"atom": 5, "left": {"leaf": "T"}, "right": {"leaf": "F"}}',
        '{"atom": "a", "left": {"leaf": "T"}}',
        '{"leaf": [1]}',
    ):
        r = run("invert", text)
        assert r.exit_code == 2
        assert "error" in r.output


def test_axioms_valid():
    r = run("axioms", "--set", "eqffel", "--exhaustive", "atoms=1,depth=2")
    assert r.exit_code == 0
    lines = [l for l in r.output.splitlines() if l.strip()]
    assert len(lines) == 10
    assert all("valid-on-sample" in l for l in lines)


def test_axioms_counterexample():
    # the memorising axioms fail in the free logic
    r = run("axioms", "--set", "eqmfel", "--logic", "ffel", "--random", "n=100,seed=0")
    assert r.exit_code == 1
    assert "counterexample" in r.output


def test_axioms_usage_errors():
    r = run("axioms", "--set", "nosuch")
    assert r.exit_code == 2
    r = run("axioms", "--set", "eqffel", "--exhaustive", "atoms=1", "--random", "n=5,seed=0")
    assert r.exit_code == 2
    for args in (
        ("--exhaustive", "bogus=3"),
        ("--random", "n=-1"),
        ("--random", "n=0"),
        ("--exhaustive", "atoms=9"),
        ("--exhaustive", "atoms=-1"),
        ("--exhaustive", "depth=4"),
    ):
        r = run("axioms", "--set", "eqffel", *args)
        assert r.exit_code == 2
        assert "error" in r.output


def test_models_found_and_json():
    r = run("models", "--satisfy", "eqsfel", "--max-size", "2", "--budget", "10")
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["size"] == 2
    r2 = run("models", "--satisfy", "eqsfel", "--max-size", "2", "--budget", "10")
    assert r2.output == r.output


def test_models_no_model():
    r = run("models", "--satisfy", "eqffel", "--drop", "FFEL1", "--max-size", "2", "--budget", "10")
    # violating double negation while satisfying the rest: size 2 has no such model
    assert r.exit_code == 1
    assert r.output.strip() in ("exhausted", "timeout")
    r = run("models", "--satisfy", "eqffel", "--drop", "NoSuch", "--max-size", "2")
    assert r.exit_code == 2


def test_enumerate():
    r = run("enumerate", "--sigma", "ab", "--count-only")
    assert r.output.strip() == "16"
    r = run("enumerate", "--sigma", "a")
    assert r.exit_code == 0
    assert len(r.output.strip().splitlines()) == 4
    r = run("enumerate", "--sigma", "abcde")
    assert r.exit_code == 2
    r = run("enumerate", "--sigma", "a0,b")
    forms = r.output.strip().splitlines()
    assert r.exit_code == 0 and len(forms) == 16
    assert all(syntax.atoms_of(syntax.parse(f)) == ("a0", "b") for f in forms)


def test_translate_and_bridge():
    r = run("translate", "a & b")
    assert r.exit_code == 0
    assert r.output.strip() == "(a || b && F) && b"
    r = run("translate", "U")
    assert r.exit_code == 2
    r = run("bridge-check", "!(a | b) & c")
    assert r.exit_code == 0
    assert r.output.strip() == "ok"
    r = run("bridge-check", "U")
    assert r.exit_code == 2


def test_enumerate_rejects_repeated_atom():
    r = run("enumerate", "--sigma", "aa", "--count-only")
    assert r.exit_code == 2
    assert "repeats an atom" in r.output


def test_axioms_rejects_depth_below_one():
    r = run("axioms", "--set", "eqffel", "--exhaustive", "depth=0")
    assert r.exit_code == 2
    assert "depth must be at least 1" in r.output


def test_static_logics_take_multi_character_atoms():
    r = run("equiv", "--logic", "clfel2", "a0 & b", "b & a0")
    assert r.exit_code == 0
    assert r.output.strip() == "equivalent"
    r = run("equiv", "--logic", "sfel", "a0 & F", "F")
    assert r.exit_code == 0
    # an explicit beta names multi-character atoms with commas
    r = run("tree", "--logic", "sfel", "--alphabet", "b,a0", "--format", "json", "a0 & b")
    assert r.exit_code == 0
    want = semantics.sfe(["b", "a0"], syntax.parse("a0 & b"))
    assert evaltree.tree_from_json(r.output) is want
    r = run("tree", "--logic", "sfel", "--alphabet", "a0b", "a0 & b")
    assert r.exit_code == 2
    r = run("normalize", "--logic", "clfel2", "b & a0")
    assert r.exit_code == 0
    assert r.output.strip() == syntax.print_expr(
        normalforms.normalize_clfel2(syntax.parse("a0 & b")).body
    )


def test_models_rejects_bad_limits():
    for args in (("--max-size", "1"), ("--max-size", "7"), ("--budget", "nan"), ("--budget", "0")):
        r = run("models", "--satisfy", "eqsfel", *args)
        assert r.exit_code == 2
        assert "error" in r.output


def test_models_up_to_size_6():
    r = run("models", "--satisfy", "mf", "--drop", "MF6", "--max-size", "4", "--budget", "30")
    assert r.exit_code == 0
    assert json.loads(r.output)["size"] == 4
    r = run("models", "--satisfy", "eqffel", "--drop", "FFEL1", "--max-size", "6", "--budget", "30")
    assert r.exit_code == 1
    assert r.output.strip() == "exhausted"
