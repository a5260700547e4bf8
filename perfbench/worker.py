"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED PART MODE [TRACE_FILE]

SEED and PART fix the inputs: the passes of one run take parts 0, 1, ...
MODE is `setup` (import and generate inputs, then stop), `run` (time every
operation) or `trace` (also record a span around every call into `fel`).
The last line of standard output is the pass result as json.  `fel`'s
caches live as long as the process, which is why every pass gets its own.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import fel  # noqa: E402  (importing fel is part of set-up)
import fel.cli  # noqa: E402
import gen  # noqa: E402
import refcheck  # noqa: E402
from refcheck import Mismatch, Ref, expect  # noqa: E402
from tracing import Tracer, clock  # noqa: E402

QUERY_COUNT = 1000
CLASS_OPS = 5
CLASS_COUNT = 71_266  # classes of U-free terms over {a, b} with <= 5 operators
CLASS_REF_SAMPLE = 300
AXIOM_STRATEGY = dict(atoms=("a", "b"), depth=3, max_instances=20_000)
SAMPLES = 100  # random instances per equation, as in `fel axioms --random`
MODEL_BUDGET_S = 12.0  # MF4@3 needs 5-6 s, up to twice that on a busy host


def bind(tracer):
    """The public functions the workloads call, wrapped in spans when traced."""
    from click.testing import CliRunner

    runner = CliRunner()
    sem, nfs = fel.semantics, fel.normalforms
    calls = {
        "parse": ("syntax.parse", fel.syntax.parse),
        "tree_and": ("semantics.compose", sem.tree_and),
        "tree_or": ("semantics.compose", sem.tree_or),
        "tree_not": ("semantics.compose", sem.tree_not),
        "fe": ("semantics.fe", sem.fe),
        "evaluate": ("semantics.fe", sem.evaluate),
        "render": ("evaltree.render", fel.evaltree.render),
        "from_json": ("evaltree.from_json", fel.evaltree.tree_from_json),
        "fnf_and": ("fnf", fel.fnf.fnf_and),
        "fnf_negate": ("fnf", fel.fnf.fnf_negate),
        "classify": ("fnf", fel.fnf.classify),
        "normalize_ffel": ("fnf", fel.fnf.normalize_ffel),
        "sc_and": ("scl", fel.scl.sc_and),
        "sc_or": ("scl", fel.scl.sc_or),
        "bridge_check": ("scl", fel.scl.bridge_check),
        "g": ("invert.g", fel.invert.g),
        "check_validity": ("axioms.check", fel.axioms.check_validity),
        "find_model": ("models.find", fel.models.find_model),
        "cli": ("cli", lambda args: runner.invoke(fel.cli.main, args)),
    }
    normalizers = {
        "ffel": ("fnf", fel.fnf.normalize_ffel),
        "ffelu": ("fnf", fel.fnf.normalize_ffelu),
        "mfel": ("normalforms.normalize", nfs.normalize_mfel),
        "mfelu": ("normalforms.normalize", nfs.normalize_mfelu),
        "clfel2": ("normalforms.normalize", nfs.normalize_clfel2),
        "clfel": ("normalforms.normalize", nfs.normalize_clfelu),
    }

    def wrap(name, fn):
        return tracer.wrap(name, fn) if tracer else fn

    L = SimpleNamespace(**{k: wrap(name, fn) for k, (name, fn) in calls.items()})
    L.equiv = {lg: wrap(f"semantics.equiv.{lg}", sem.equiv) for lg in gen.LOGICS}
    L.normalize = {lg: wrap(name, fn) for lg, (name, fn) in normalizers.items()}
    L.logic = {lg: sem.logic_by_name(lg) for lg in gen.LOGICS}
    return L


def distinct_nodes(*trees) -> int:
    return len({id(t) for tree in trees for t in fel.evaltree.iter_subtrees(tree)})


class Pass:
    """Timing, failures and counters of one pass."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.failures: dict[str, int] = {}
        self.counters = tracer.counters if tracer else {}

    def op(self, req: int, fn, *args, **kwargs):
        """Run one timed operation; return (answer, exception).

        A wrong answer found inside the operation ends the run.
        """
        tracer = self.tracer
        t0 = clock()
        if tracer:
            tracer.open_op(req, t0)
        try:
            answer, err = fn(*args, **kwargs), None
        except Mismatch:
            raise
        except Exception as exc:  # an operation that raises is counted, not fatal
            answer, err = None, exc
        t1 = clock()
        if tracer:
            tracer.close_op(t1)
        self.latencies.append(t1 - t0)
        return answer, err

    def fail(self, why: str) -> None:
        self.failures[why] = self.failures.get(why, 0) + 1

    def count(self, name: str, value) -> None:
        if self.tracer:
            self.counters[name] += value


# --- classes ---

def setup_classes(seed, part):
    return gen.classes_order(seed, part)


def run_classes(L, P: Pass, rng):
    """The class programme of the exhaustive acceptance checks, as one loop.

    For U-free terms over {a, b} with up to CLASS_OPS operators, one
    representative per (tree, normal form) class; every class pair is
    composed as trees, as normal forms and through the short-circuit
    bridge, and the soundness, injectivity and bridge checks run on it.
    """
    from fel.evaltree import FALSE, TRUE

    not_fnf = fel.fnf.FnfCategory.NOT_FNF
    nf_by_tree = {}

    def register(tree, nf, new):
        prev = nf_by_tree.get(tree)
        if prev is not None:
            expect(prev == nf, "equal trees produced different normal forms")
            return
        expect(L.classify(nf) is not not_fnf, "normal form outside the grammar")
        expect(L.fe(nf) == tree, "normal form changed the tree")
        nf_by_tree[tree] = nf
        new.append((tree, nf))

    def base(text, new):
        e = L.parse(text)
        register(L.fe(e), L.normalize_ffel(e), new)

    def negation(t, n, new):
        register(L.tree_not(t), L.fnf_negate(n), new)

    def pair(t1, n1, t2, n2, new):
        ta = L.tree_and(t1, t2)
        expect(L.sc_and(L.sc_or(t1, L.sc_and(t2, FALSE)), t2) == ta, "bridge of &")
        register(ta, L.fnf_and(n1, n2), new)
        to = L.tree_or(t1, t2)
        expect(L.sc_or(L.sc_and(t1, L.sc_or(t2, TRUE)), t2) == to, "bridge of |")
        nf_or = L.fnf_negate(L.fnf_and(L.fnf_negate(n1), L.fnf_negate(n2)))
        register(to, nf_or, new)

    req = 0

    def op(fn, *args):
        nonlocal req
        _, err = P.op(req, fn, *args)
        req += 1
        if err is not None:
            P.fail(type(err).__name__)

    texts = ["T", "F", "a", "b"]
    rng.shuffle(texts)
    frontiers = [[]]
    for text in texts:
        op(base, text, frontiers[0])
    for k in range(1, CLASS_OPS + 1):
        new = []
        for t, n in frontiers[k - 1]:
            op(negation, t, n, new)
        for i in range(k):
            for t1, n1 in frontiers[i]:
                for t2, n2 in frontiers[k - 1 - i]:
                    op(pair, t1, n1, t2, n2, new)
        rng.shuffle(new)
        frontiers.append(new)
    rss = peak_rss_mb()
    if not P.failures:  # a pair that raised leaves its classes out
        expect(len(nf_by_tree) == CLASS_COUNT, f"{len(nf_by_tree)} classes, expected {CLASS_COUNT}")
    ref = Ref()
    for tree, nf in random.Random(rng.random()).sample(list(nf_by_tree.items()), CLASS_REF_SAMPLE):
        e = refcheck.from_program_expr(nf)
        expect(refcheck.is_fnf(e), "reference: normal form outside the grammar")
        expect(ref.fe(e) is ref.from_program_tree(tree), "reference: class tree")
    return rss


# --- verdicts ---

def setup_verdicts(seed, part):
    return gen.verdicts(seed, part)


def open_term(text):
    """An equation side: the atoms x, y, z read as metavariables."""
    syntax = fel.syntax

    def go(e):
        if isinstance(e, syntax.Atom) and e.name in refcheck.VARIABLES:
            return syntax.Var(e.name)
        if isinstance(e, syntax.Not):
            return syntax.mk_not(go(e.operand))
        if isinstance(e, syntax.FullAnd):
            return syntax.mk_and(go(e.left), go(e.right))
        if isinstance(e, syntax.FullOr):
            return syntax.mk_or(go(e.left), go(e.right))
        return e

    return go(syntax.parse(text))


def run_verdicts(L, P: Pass, tasks):
    axioms = fel.axioms
    strategy = axioms.Exhaustive(**AXIOM_STRATEGY)
    ref = Ref()
    req = 0
    for task in tasks:
        kind = task["kind"]
        if kind in ("check", "sample"):
            logic = axioms.OWN_LOGIC[task["set"]]
            how = strategy if kind == "check" else axioms.Random(SAMPLES, task["seed"])
            for eq in axioms.BUILTIN_SETS[task["set"]]:
                v, err = P.op(req, L.check_validity, logic, eq, how)
                req += 1
                if err is not None:
                    P.fail(type(err).__name__)
                    continue
                P.count("axioms.instances", v.instances)
                expect(v.status == "valid-on-sample", f"{eq.name} refuted in its own logic")
        elif kind == "separate":
            lhs, rhs = refcheck.AXIOMS[task["eq"]]
            eq = axioms.Equation(task["eq"], open_term(lhs), open_term(rhs))
            sample = axioms.Random(SAMPLES, task["seed"])
            v, err = P.op(req, L.check_validity, L.logic[task["logic"]], eq, sample)
            req += 1
            if err is not None:
                P.fail(type(err).__name__)
                continue
            P.count("axioms.instances", v.instances)
            if v.status != "counterexample":
                P.fail(f"{eq.name} not separated")
                continue
            assignment = {k: refcheck.from_program_expr(t) for k, t in v.assignment.items()}
            refcheck.check_separation(ref, task["logic"], eq.name, assignment)
        else:
            drop = task["drop"]
            if drop is None:
                satisfy, violate, size = refcheck.EQSFEL, None, 2
                args = (axioms.EQSFEL, None, size)
            else:
                satisfy = [n for n in refcheck.MF if n != drop]
                violate, size = drop, 3
                args = (axioms.MF.without(drop), axioms.MF[drop], size)
            res, err = P.op(req, L.find_model, *args, budget=MODEL_BUDGET_S)
            req += 1
            if err is not None:
                P.fail(type(err).__name__)
                continue
            P.count("models.nodes", res.stats.nodes)
            P.count("models.pruned", res.stats.pruned)
            if res.status == "model":
                refcheck.check_model(refcheck.model_of(res.model), satisfy, violate)
            elif res.status == "timeout":
                P.fail(f"{drop or 'eqsfel'}@{size} timeout")
            else:
                # No model up to the size is a decided answer only where no
                # witness is known: MF1..MF5 and eqsfel have one.
                expect(drop == "MF6", f"{drop or 'eqsfel'}: no model up to size {size}")


# --- queries ---

def setup_queries(seed, part):
    qs = gen.queries(seed, QUERY_COUNT, part)
    for q in qs:
        if q["kind"] == "invert" or q.get("command") == "invert":
            q["texts"] = [refcheck.to_json(Ref().fe(q["exprs"][0]))]
        q["args"] = cli_args(q) if q["kind"] == "cli" else None
    return qs


def cli_args(q):
    c, t = q["command"], q["texts"]
    if c == "equiv":
        return ["equiv", "--logic", q["logic"], t[0], t[1]]
    if c == "normalize":
        return ["normalize", "--logic", q["logic"], t[0]]
    if c == "tree":
        return ["tree", "--logic", q["logic"], "--format", "json", t[0]]
    return [c, t[0]]


def ask(L, q):
    """Issue one request; the answer is checked afterwards, outside the timing."""
    kind = q["kind"]
    if kind == "cli":
        return L.cli(q["args"])
    if kind in ("malformed", "deep"):
        kind = q["command"]
    texts = q.get("texts") or [q["text"]]
    if kind == "invert":
        return L.g(L.from_json(texts[0]))
    p = L.parse(texts[0])
    if kind == "equiv":
        logic = q["logic"]
        return L.equiv[logic](L.logic[logic], p, L.parse(texts[1]))
    if kind == "normalize":
        nf = L.normalize[q["logic"]](p)
        return getattr(nf, "body", nf)
    if kind == "tree":
        tree = L.evaluate(L.logic[q["logic"]], p)
        return tree, L.render(tree, "json")
    return L.bridge_check(p)


def affordable(q) -> bool:
    """Can the reference answer this request in well under a second?"""
    exprs = q.get("exprs") or []
    if sum(gen.occurrences(e) for e in exprs) > 64:
        return False
    memorising = q.get("logic") not in ("ffel", "ffelu")
    return not memorising or len(set().union(*map(gen.alphabet, exprs))) <= 8


def check_answer(P: Pass, q, answer, err):
    kind = q["kind"]
    if kind in ("malformed", "deep"):
        if isinstance(err, ValueError):
            return  # a typed error is a right outcome for these inputs
        if err is not None:
            P.fail(f"{kind}: {type(err).__name__}")
            return
        expect(kind == "deep", f"malformed input accepted: {q['text']!r}")
        got = refcheck.from_program_expr(answer) if q["command"] == "normalize" else bool(answer)
        want = refcheck.parse(q["expect"]) if q["command"] == "normalize" else q["expect"]
        expect(got == want, "answer to an over-deep input")
        return
    if err is not None:
        P.fail(f"{kind}: {type(err).__name__}")
        return
    if kind == "cli":
        check_cli(P, q, answer)
        return
    exprs = q["exprs"]
    if kind == "invert":
        expect(refcheck.from_program_expr(answer) == exprs[0], "inverse is not the normal form")
        return
    if kind == "bridge":
        expect(answer is True, "bridge check failed")
        return
    if P.tracer and kind in ("equiv", "tree"):
        trees = (answer.left_tree, answer.right_tree) if kind == "equiv" else answer[:1]
        P.count("evaltree.out_nodes", distinct_nodes(*trees))
    if kind == "equiv" and "expect" in q:
        expect(bool(answer) is q["expect"], f"{q['logic']} verdict on a long input")
    if kind == "tree":
        json.loads(answer[1])
    if not (q["ref"] and affordable(q)):
        return
    ref, logic = Ref(), q["logic"]
    if kind == "equiv":
        beta = sorted(gen.alphabet(exprs[0]) | gen.alphabet(exprs[1])) if logic == "sfel" else None
        want = ref.tree(logic, exprs[0], beta), ref.tree(logic, exprs[1], beta)
        got = ref.from_program_tree(answer.left_tree), ref.from_program_tree(answer.right_tree)
        expect(got[0] is want[0] and got[1] is want[1], f"{logic} trees of an equivalence")
        expect(bool(answer) is (want[0] is want[1]), f"{logic} equivalence verdict")
    elif kind == "normalize":
        refcheck.check_normal_form(ref, logic, exprs[0], refcheck.from_program_expr(answer))
    elif kind == "tree":
        expect(ref.from_json(answer[1]) is ref.tree(logic, exprs[0]), f"{logic} tree")


def check_cli(P: Pass, q, result):
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        P.fail(f"cli: {type(result.exception).__name__}")
        return
    command, exprs, out = q["command"], q["exprs"], result.stdout.strip()
    ref, logic = Ref(), q.get("logic")
    if command == "equiv":
        same = ref.equiv(logic, exprs[0], exprs[1])
        expect(result.exit_code == (0 if same else 1), "cli equiv exit code")
        expect(out.splitlines()[0] == ("equivalent" if same else "NOT equivalent"), "cli equiv")
        return
    expect(result.exit_code == 0, f"cli {command} exit code {result.exit_code}")
    if command == "normalize":
        refcheck.check_normal_form(ref, logic, exprs[0], refcheck.parse(out))
    elif command == "tree":
        expect(ref.from_json(out) is ref.tree(logic, exprs[0]), "cli tree")
    elif command == "invert":
        expect(refcheck.parse(out) == exprs[0], "cli invert")
    else:
        expect(out == "ok", "cli bridge-check")


def run_queries(L, P: Pass, qs):
    for q in qs:
        answer, err = P.op(q["id"], ask, L, q)
        check_answer(P, q, answer, err)
    return peak_rss_mb()


# --- the pass ---

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


SETUP = {"classes": setup_classes, "queries": setup_queries, "verdicts": setup_verdicts}
RUN = {"classes": run_classes, "queries": run_queries, "verdicts": run_verdicts}


def main(argv) -> int:
    workload, seed, part, mode = argv[0], int(argv[1]), int(argv[2]), argv[3]
    inputs = SETUP[workload](seed, part)
    setup_s = clock() - T_START
    result = {"workload": workload, "seed": seed, "part": part, "mode": mode, "setup_s": setup_s,
              "inputs": gen.digest(inputs.getstate() if workload == "classes" else inputs)}
    if mode != "setup":
        tracer = Tracer() if mode == "trace" else None
        P = Pass(tracer)
        L = bind(tracer)
        try:
            rss = RUN[workload](L, P, inputs)
        except Mismatch as err:
            print(json.dumps({"wrong": f"{type(err).__name__}: {err}"}))
            return 3
        result.update(
            latencies_s=P.latencies,
            failures=P.failures,
            peak_rss_mb=rss if rss is not None else peak_rss_mb(),
        )
        if tracer:
            result["layers"] = tracer.self_times()
            result["counters"] = dict(tracer.counters)
            if len(argv) > 4:
                tracer.dump(argv[4])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    code = main(sys.argv[1:])
    sys.stdout.flush()
    # Skip tearing down the caches of a large heap; the pass is over.
    os._exit(code)
