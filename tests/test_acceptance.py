"""End-to-end acceptance checks.

Each test verifies one headline property of the library and prints a
single "criterion N: PASS" line (visible with pytest -s or -rP).  The
exhaustive checks do not enumerate expressions one by one: evaluation
trees, the normalizers, and the short-circuit translation are all
compositional in the classes of their immediate subterms, so a dynamic
programming over (tree, value) classes per operator count verifies the
property for every expression within the bound.
"""

import importlib
import pkgutil
import random
import time

import fel
from fel import axioms, fnf, invert, models, normalforms, semantics, syntax, tables
from fel.evaltree import FALSE, TRUE, UNDEF, Leaf, node
from fel.fnf import FnfCategory
from fel.semantics import tree_and, tree_not, tree_or
from fel.scl import sc_and, sc_or

from test_invert import gen_fnf

P = syntax.parse
A, B = syntax.mk_atom("a"), syntax.mk_atom("b")


def test_every_table_is_made_by_tables():
    # reset() reaches every table without knowing its name: each private
    # module-level dict of fel, and each interned class's unique table, is
    # made by fel.tables.  An interned object has a slot for each of its
    # fields and no other, so no cache rides on it.
    made = {id(t) for t in tables._COMPUTED + tables._UNIQUE}
    stray = []
    for info in pkgutil.iter_modules(fel.__path__):
        mod = importlib.import_module(f"fel.{info.name}")
        for name, val in vars(mod).items():
            if name.startswith("_") and not name.startswith("__") and isinstance(val, dict):
                if id(val) not in made:
                    stray.append(f"{mod.__name__}.{name}")
            elif (isinstance(val, type) and issubclass(val, syntax.Interned)
                    and val is not syntax.Interned):
                if id(val._table) not in made:
                    stray.append(f"{mod.__name__}.{name}._table")
                if tuple(val.__slots__) != val._fields:
                    stray.append(f"{mod.__name__}.{name}.__slots__")
    assert stray == []
    marker = object()
    for table in tables._COMPUTED:
        table[marker] = None
    fel.reset()
    assert [table for table in tables._COMPUTED if table] == []


def _paths(t, acc=()):
    if isinstance(t, Leaf):
        yield acc
    else:
        yield from _paths(t.left, acc + (t.atom,))
        yield from _paths(t.right, acc + (t.atom,))


def test_criterion_01_worked_examples():
    start = time.monotonic()
    expected = node("b", node("a", FALSE, FALSE), node("a", TRUE, FALSE))
    assert semantics.fe(P("!b & a")) == expected
    assert semantics.fe(P("!(b | !a)")) == expected
    assert semantics.fe_u(P("a & U")) == node("a", UNDEF, UNDEF)
    assert semantics.mfe(P("a & a")) == node("a", TRUE, FALSE)
    assert semantics.mfe(P("(a & b) | (!a & !b)")) == node(
        "a", node("b", TRUE, FALSE), node("b", FALSE, TRUE)
    )
    assert semantics.clfe(P("b & a")) == node(
        "a", node("b", TRUE, FALSE), node("b", FALSE, FALSE)
    )
    assert semantics.sfe("ab", P("a")) == node(
        "a", node("b", TRUE, TRUE), node("b", FALSE, FALSE)
    )
    assert semantics.sfe("ab", P("b")) == node(
        "a", node("b", TRUE, FALSE), node("b", TRUE, FALSE)
    )
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"criterion 1: PASS (8 fixed-tree assertions, {elapsed:.3f}s)")


def _nf_or(n1, n2):
    return fnf.fnf_negate(fnf.fnf_and(fnf.fnf_negate(n1), fnf.fnf_negate(n2)))


def test_criterion_02_ffel_normalization_exact():
    """Normalization is sound, in-grammar, and injective per tree.

    Exact for ALL U-free expressions over {a, b} with at most 6
    operators: the normal form of an expression is a function of its
    subterms' normal forms, and its tree a function of their trees, so
    one representative per reachable (tree -> normal form) class covers
    every expression by induction on operator count.  For each class we
    assert the normal form is in the grammar and re-evaluates to the
    class tree (soundness), and every later expression reaching the same
    tree is asserted to produce the identical normal form (completeness).
    7-operator combinations are covered by a 50,000-strong seeded sample
    of class pairs; the full level-7 quotient does not fit in memory.
    """
    start = time.monotonic()
    max_ops = 6
    nf_by_tree = {}

    def register(tree, nf):
        prev = nf_by_tree.get(tree)
        if prev is not None:
            assert prev == nf, "equal trees produced different normal forms"
            return None
        assert fnf.classify(nf) is not FnfCategory.NOT_FNF
        assert semantics.fe(nf) == tree, "normal form changed the tree"
        nf_by_tree[tree] = nf
        return (tree, nf)

    frontiers = [[]]
    for e in (syntax.TRUE, syntax.FALSE, A, B):
        r = register(semantics.fe(e), fnf.normalize_ffel(e))
        if r:
            frontiers[0].append(r)

    for k in range(1, max_ops + 1):
        new = []
        for t, n in frontiers[k - 1]:
            r = register(tree_not(t), fnf.fnf_negate(n))
            if r:
                new.append(r)
        for i in range(k):
            j = k - 1 - i
            for t1, n1 in frontiers[i]:
                for t2, n2 in frontiers[j]:
                    r = register(tree_and(t1, t2), fnf.fnf_and(n1, n2))
                    if r:
                        new.append(r)
                    r = register(tree_or(t1, t2), _nf_or(n1, n2))
                    if r:
                        new.append(r)
        frontiers.append(new)
    total = len(nf_by_tree)

    # seeded streaming sample of 7-operator combinations
    rng = random.Random(20260823)
    samples = 50_000
    for _ in range(samples):
        if rng.random() < 0.2:
            t1, n1 = rng.choice(frontiers[max_ops])
            tree, nf = tree_not(t1), fnf.fnf_negate(n1)
        else:
            i = rng.randint(0, max_ops)
            t1, n1 = rng.choice(frontiers[i])
            t2, n2 = rng.choice(frontiers[max_ops - i])
            if rng.random() < 0.5:
                tree, nf = tree_and(t1, t2), fnf.fnf_and(n1, n2)
            else:
                tree, nf = tree_or(t1, t2), _nf_or(n1, n2)
        prev = nf_by_tree.get(tree)
        if prev is not None:
            assert prev == nf
        else:
            assert fnf.classify(nf) is not FnfCategory.NOT_FNF
            assert semantics.fe(nf) == tree

    elapsed = time.monotonic() - start
    frontiers.clear()
    new.clear()
    nf_by_tree.clear()
    fel.reset()
    assert elapsed < 300.0
    print(
        f"criterion 2: PASS (exact for all {total} classes of <=6-operator "
        f"terms over {{a,b}}; {samples} sampled 7-operator combinations; "
        f"{elapsed:.1f}s)"
    )


def test_criterion_03_inversion_roundtrip():
    start = time.monotonic()
    rng = random.Random(424242)
    count = 10_000
    for _ in range(count):
        p = gen_fnf(rng, ("a", "b"), budget=12)
        # g raises if any decomposition is ambiguous, so a clean return
        # also certifies cd/dd/tsd uniqueness on this tree
        assert invert.g(semantics.fe(p)) == p
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"criterion 3: PASS ({count} grammar-term roundtrips, {elapsed:.1f}s)")


def _random_expr(rng, atoms, ops):
    if ops == 0:
        r = rng.random()
        if r < 0.8:
            return syntax.mk_atom(rng.choice(atoms))
        return syntax.TRUE if r < 0.9 else syntax.FALSE
    r = rng.random()
    if r < 0.25:
        return syntax.mk_not(_random_expr(rng, atoms, ops - 1))
    k = rng.randint(0, ops - 1)
    left = _random_expr(rng, atoms, k)
    right = _random_expr(rng, atoms, ops - 1 - k)
    mk = syntax.mk_and if r < 0.625 else syntax.mk_or
    return mk(left, right)


def test_criterion_04_memorisation_properties():
    rng = random.Random(777)
    count = 10_000
    for _ in range(count):
        p = _random_expr(rng, ("a", "b", "c"), rng.randint(0, 8))
        t = semantics.mfe(p)
        assert semantics.memo(t) == t
        sigma = syntax.str_of(p)
        for path in _paths(t):
            assert "".join(path) == sigma
        assert semantics.mfe(normalforms.normalize_mfel(p).body) == t
    print(f"criterion 4: PASS ({count} random expressions)")


def test_criterion_05_sigma_normal_form_counts():
    expected = {"": 2, "a": 4, "ab": 16, "abc": 256}
    for sigma, count in expected.items():
        forms = list(normalforms.enumerate_sigma_nf(sigma))
        assert len(forms) == count
        trees = {semantics.mfe(f.body) for f in forms}
        assert len(trees) == count
    print("criterion 5: PASS (2/4/16/256 forms, pairwise distinct trees)")


def test_criterion_06_axiom_validity():
    strat = axioms.Exhaustive(atoms=("a", "b"), depth=3, max_instances=20_000)
    for name, axset in axioms.BUILTIN_SETS.items():
        report = axioms.check_set(axioms.OWN_LOGIC[name], axset, strat)
        bad = [v.equation.name for v in report if not v]
        assert report.all_valid, f"{name} in {axioms.OWN_LOGIC[name]}: {bad}"
    # Bochvar's laws specifically under the commutative three-valued logic
    assert axioms.OWN_LOGIC["bochvar"] == semantics.CLFEL

    # the three separating counterexamples, each within 100 random samples
    idem = axioms._eq("Idem", "x & x", "x")
    comm = axioms._eq("Comm", "x & y", "y & x")
    andf = axioms._eq("AndF", "x & F", "F")
    for logic, eq in ((semantics.FFEL, idem), (semantics.MFEL, comm),
                      (semantics.CLFEL2, andf)):
        v = axioms.check_validity(logic, eq, axioms.Random(100, 0))
        assert v.status == "counterexample", f"{eq.name} not refuted in {logic}"
        lhs, rhs = axioms.instantiate(eq, v.assignment)
        assert not semantics.equiv(logic, lhs, rhs)
    print("criterion 6: PASS (18 sets valid on sample; 3 separations found)")


def _all_u_labels(tree):
    if isinstance(tree, Leaf):
        assert tree.kind == "U", "tree mixes U with defined leaves"
        return []
    left = _all_u_labels(tree.left)
    right = _all_u_labels(tree.right)
    assert left == right, "undefined tree is not perfect"
    return [tree.atom] + left


def test_criterion_07_u_normal_forms_exact():
    """Exact for ALL expressions over {a, b} with <= 5 operators and U.

    Classes are keyed by (three-valued tree, contains-U), since the
    normalizers branch on the syntactic U check; for a U-containing
    class both normal forms are functions of the tree alone, so one
    representative is exact for the whole class.
    """
    start = time.monotonic()
    max_ops = 5
    classes = {}
    frontiers = [[]]
    for e in (syntax.TRUE, syntax.FALSE, syntax.UNDEF, A, B):
        key = (semantics.fe_u(e), e is syntax.UNDEF)
        classes[key] = e
        frontiers[0].append((key, e))
    for k in range(1, max_ops + 1):
        new = []

        def register(key, rep):
            if key not in classes:
                classes[key] = rep
                new.append((key, rep))

        for (t, hu), rep in frontiers[k - 1]:
            register((tree_not(t), hu), syntax.mk_not(rep))
        for i in range(k):
            j = k - 1 - i
            for (t1, h1), r1 in frontiers[i]:
                for (t2, h2), r2 in frontiers[j]:
                    register((tree_and(t1, t2), h1 or h2), syntax.mk_and(r1, r2))
                    register((tree_or(t1, t2), h1 or h2), syntax.mk_or(r1, r2))
        frontiers.append(new)

    u_classes = 0
    for (tree, has_u), rep in classes.items():
        if not has_u:
            continue
        u_classes += 1
        sigma = _all_u_labels(tree)  # asserts all-U and perfect
        n = fnf.normalize_ffelu(rep)
        assert n == fnf.u_sigma(sigma)
        assert semantics.fe_u(n) == tree
        m = normalforms.normalize_mfelu(rep)
        dedup = tuple(dict.fromkeys(sigma))
        assert m.sigma == dedup
        assert m.body == fnf.u_sigma(dedup)
    elapsed = time.monotonic() - start
    assert u_classes > 0
    print(
        f"criterion 7: PASS (exact; {len(classes)} classes at <=5 operators, "
        f"{u_classes} containing U; {elapsed:.1f}s)"
    )


def _se_and(x, y):
    # tree of the translated conjunction: (P || (Q && F)) && Q
    return sc_and(sc_or(x, sc_and(y, FALSE)), y)


def _se_or(x, y):
    # tree of the translated disjunction: (P && (Q || T)) || Q
    return sc_or(sc_and(x, sc_or(y, TRUE)), y)


def test_criterion_08_scl_bridge_exact():
    """fe(P) = se(t(P)) for ALL U-free P over {a, b} with <= 6 operators.

    se(t(P)) composes through _se_and/_se_or/tree_not on the subterms'
    trees, so the bridge holds for every expression iff the composed
    short-circuit tree equals the full tree on every reachable class
    pair; negation preserves the invariant verbatim and needs no check.
    """
    start = time.monotonic()
    max_ops = 6
    seen = set()
    frontiers = [[]]
    for e in (syntax.TRUE, syntax.FALSE, A, B):
        t = semantics.fe(e)
        from fel import scl
        assert scl.se(scl.translate_t(e)) == t
        if t not in seen:
            seen.add(t)
            frontiers[0].append(t)
    for k in range(1, max_ops + 1):
        new = []
        for t in frontiers[k - 1]:
            nt = tree_not(t)
            if nt not in seen:
                seen.add(nt)
                new.append(nt)
        for i in range(k):
            j = k - 1 - i
            for t1 in frontiers[i]:
                for t2 in frontiers[j]:
                    ta = tree_and(t1, t2)
                    assert _se_and(t1, t2) == ta
                    to = tree_or(t1, t2)
                    assert _se_or(t1, t2) == to
                    if ta not in seen:
                        seen.add(ta)
                        new.append(ta)
                    if to not in seen:
                        seen.add(to)
                        new.append(to)
        frontiers.append(new)
    elapsed = time.monotonic() - start
    total = len(seen)
    frontiers.clear()
    new.clear()
    seen.clear()
    fel.reset()
    assert elapsed < 90.0
    print(
        f"criterion 8: PASS (exact; {total} tree classes at <=6 operators, "
        f"{elapsed:.1f}s)"
    )


def _mutated_pair(rng, e, level):
    if level == "ffel":
        roll = rng.random()
        if roll < 0.34:
            return e, syntax.mk_not(syntax.mk_not(e))
        if roll < 0.67:
            return e, syntax.mk_and(e, syntax.TRUE)
        return e, syntax.mk_and(syntax.TRUE, e)
    if level == "mfel":
        return e, syntax.mk_and(e, e)
    if level == "clfel2":
        q = _random_expr(rng, ("a", "b", "c"), rng.randint(0, 3))
        return syntax.mk_and(e, q), syntax.mk_and(q, e)
    return syntax.mk_and(e, syntax.FALSE), syntax.FALSE


def test_criterion_09_hierarchy():
    rng = random.Random(31337)
    count = 10_000
    hits = {"ffel": 0, "mfel": 0, "clfel2": 0, "sfel": 0}
    levels = list(hits)
    for _ in range(count):
        e = _random_expr(rng, ("a", "b", "c"), rng.randint(0, 6))
        if rng.random() < 0.3:
            p, q = e, _random_expr(rng, ("a", "b", "c"), rng.randint(0, 6))
        else:
            p, q = _mutated_pair(rng, e, rng.choice(levels))
        in_ffel = bool(semantics.equiv(semantics.FFEL, p, q))
        in_mfel = bool(semantics.equiv(semantics.MFEL, p, q))
        in_clfel2 = bool(semantics.equiv(semantics.CLFEL2, p, q))
        in_sfel = bool(semantics.equiv(semantics.SFEL(), p, q))
        assert not in_ffel or in_mfel
        assert not in_mfel or in_clfel2
        assert not in_clfel2 or in_sfel
        for name, val in (("ffel", in_ffel), ("mfel", in_mfel),
                          ("clfel2", in_clfel2), ("sfel", in_sfel)):
            hits[name] += val
        # the static verdict is stable under adding a fresh atom to beta
        beta = "".join(sorted(syntax.alphabet(p) | syntax.alphabet(q)))
        extended = semantics.sfe(beta + "z", p) == semantics.sfe(beta + "z", q)
        assert extended == in_sfel
    assert all(hits.values()), hits
    print(f"criterion 9: PASS ({count} pairs, equivalences per logic {hits})")


def test_criterion_10_models():
    start = time.monotonic()
    res = models.find_model(axioms.EQSFEL, None, 2, budget=10)
    elapsed = time.monotonic() - start
    assert res.status == "model" and elapsed < 1.0
    for eq in axioms.EQSFEL:
        assert models.check_equation_in_model(res.model, eq)

    report = models.independence_report(axioms.MF, max_size=3, budget=60)
    assert set(report) == {eq.name for eq in axioms.MF}
    independent = []
    for name, entry in report.items():
        assert entry["status"] in ("independent", "unknown")
        if entry["status"] == "independent":
            m = entry["model"]
            for other in axioms.MF.without(name):
                assert models.check_equation_in_model(m, other)
            assert not models.check_equation_in_model(m, axioms.MF[name])
            independent.append(name)
    # MF1..MF5 have witnesses within size 3; MF6 has none there, which the
    # search decides rather than running out of time.
    assert sorted(independent) == ["MF1", "MF2", "MF3", "MF4", "MF5"], report
    assert report["MF6"] == {"status": "unknown", "reason": "no model of size <= 3"}
    total = time.monotonic() - start
    assert total < 2.0, total
    statuses = {n: report[n]["status"] for n in sorted(report)}
    print(f"criterion 10: PASS (Boolean model in {elapsed:.2f}s, all in {total:.2f}s; {statuses})")
