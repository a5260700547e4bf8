"""Self-tests of the benchmark: seeded inputs, smoke-sized passes, and a
reference checker that can fail.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import fel  # noqa: E402
import fel.cli  # noqa: E402,F401
import gen  # noqa: E402
import refcheck  # noqa: E402
import worker  # noqa: E402
from fel import evaltree, semantics, syntax  # noqa: E402
from refcheck import Mismatch, Ref  # noqa: E402


def _digest(workload, seed, part=0):
    inputs = worker.SETUP[workload](seed, part)
    return gen.digest(inputs.getstate() if workload == "classes" else inputs)


@pytest.mark.parametrize("workload", ["classes", "queries", "verdicts"])
def test_seed_fixes_the_inputs(workload, monkeypatch):
    monkeypatch.setattr(worker, "QUERY_COUNT", 300)
    assert _digest(workload, 7) == _digest(workload, 7)
    assert _digest(workload, 7) != _digest(workload, 8)
    assert _digest(workload, 7) != _digest(workload, 7, 1)


def test_query_mix_has_fixed_counts():
    kinds = [[q["kind"] for q in gen.queries(seed, 1000)] for seed in (1, 2)]
    assert sorted(kinds[0]) == sorted(kinds[1])


def _pass(workload, inputs):
    P = worker.Pass(None)
    L = worker.bind(None)
    worker.RUN[workload](L, P, inputs)
    return P


def test_smoke_classes(monkeypatch):
    monkeypatch.setattr(worker, "CLASS_OPS", 3)
    monkeypatch.setattr(worker, "CLASS_COUNT", 802)
    monkeypatch.setattr(worker, "CLASS_REF_SAMPLE", 50)
    P = _pass("classes", gen.classes_order(1))
    assert len(P.latencies) == 1138 and not P.failures


def test_smoke_queries(monkeypatch):
    monkeypatch.setattr(worker, "QUERY_COUNT", 300)
    qs = worker.setup_queries(1, 0)
    P = _pass("queries", qs)
    assert len(P.latencies) == len(qs)
    assert set(P.failures) <= {"deep: RecursionError", "normalize: RecursionError"}


def test_smoke_verdicts():
    tasks = [{"kind": "check", "set": "eqsfel"}, {"kind": "sample", "set": "eqsfel", "seed": 4},
             {"kind": "separate", "logic": "mfel", "eq": "Comm", "seed": 3},
             {"kind": "model", "drop": None},
             {"kind": "model", "drop": "MF3"}]
    P = _pass("verdicts", tasks)
    assert len(P.latencies) == 13 + 13 + 3 and not P.failures


def test_reference_agrees_on_small_inputs():
    import random

    rng = random.Random(5)
    ref = Ref()
    for _ in range(300):
        e = gen.random_expr(rng, "abc", rng.randint(0, 7))
        p = syntax.parse(gen.to_text(e))
        for logic in ("ffel", "mfel", "clfel2", "sfel"):
            tree = semantics.evaluate(semantics.logic_by_name(logic), p)
            assert ref.from_program_tree(tree) is ref.tree(logic, e)


def _flip_first_leaf(t):
    if isinstance(t, evaltree.Leaf):
        return evaltree.leaf("F" if t.kind == "T" else "T")
    return evaltree.node(t.atom, _flip_first_leaf(t.left), t.right)


def test_reference_rejects_a_corrupted_tree():
    e = ("&", "a", ("|", "b", ("!", "a")))
    q = {"kind": "tree", "logic": "mfel", "exprs": [e], "ref": True}
    tree = semantics.mfe(syntax.parse(gen.to_text(e)))
    P = worker.Pass(None)
    worker.check_answer(P, q, (tree, evaltree.render(tree, "json")), None)
    bad = _flip_first_leaf(tree)
    with pytest.raises(Mismatch):
        worker.check_answer(P, q, (bad, evaltree.render(bad, "json")), None)


def test_reference_rejects_a_corrupted_normal_form():
    e = ("|", ("!", "a"), "b")
    nf = fel.fnf.normalize_ffel(syntax.parse(gen.to_text(e)))
    ref = Ref()
    refcheck.check_normal_form(ref, "ffel", e, refcheck.from_program_expr(nf))
    swapped = refcheck.from_program_expr(nf)
    swapped = ("&", swapped[1], refcheck.parse(gen.to_text(swapped[2]).replace("!a", "a", 1)))
    with pytest.raises(Mismatch):
        refcheck.check_normal_form(ref, "ffel", e, swapped)
    body = fel.normalforms.normalize_mfel(syntax.parse("a & b")).body
    wrong = refcheck.parse(syntax.print_expr(body).replace("T", "X").replace("F", "T")
                           .replace("X", "F"))
    with pytest.raises(Mismatch):
        refcheck.check_normal_form(ref, "mfel", ("&", "a", "b"), wrong)


def test_reference_rejects_a_corrupted_model():
    res = fel.models.find_model(fel.axioms.EQSFEL, None, 2, budget=10)
    model = refcheck.model_of(res.model)
    refcheck.check_model(model, refcheck.EQSFEL, None)
    bad = dict(model, neg=(0, 0))
    with pytest.raises(Mismatch):
        refcheck.check_model(bad, refcheck.EQSFEL, None)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "classes",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    with pytest.raises(json.JSONDecodeError):
        json.loads(proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "")
