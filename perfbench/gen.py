"""Seeded inputs for the benchmark workloads.

Nothing here imports `fel`: the program under test receives only the text
these functions produce, and the benchmark keeps the tuple form of each
input for the reference checker.

Expressions are nested tuples: an atom name or one of the constants
"T", "F", "U" (a str), ("!", e), ("&", l, r) and ("|", l, r).
"""

from __future__ import annotations

import hashlib
import json
import random

ATOMS = "abcdefghij"
LOGICS = ("ffel", "ffelu", "mfel", "mfelu", "clfel2", "clfel", "sfel")
U_LOGICS = ("ffelu", "mfelu", "clfel")
NF_LOGICS = ("ffel", "ffelu", "mfel", "mfelu", "clfel2", "clfel")
CONSTS = ("T", "F", "U")

# Share of each request kind in the `queries` stream, in requests per 100.
# The counts are fixed and only the content is seeded, so every seed puts
# the same amount of each kind of work, and the same number of long inputs,
# into a pass.
QUERY_MIX = (
    ("equiv", 29),
    ("normalize", 16),
    ("tree", 17),
    ("invert", 12),
    ("bridge", 13),
    ("cli", 10),
    ("malformed", 2),
    ("deep", 1),
)
CHAINS_PER_1000 = 10
WIDE_PER_1000 = 10
REF_SHARE = 0.3  # seeded share of `queries` answers checked by the reference


# --- expressions ---

def random_expr(rng: random.Random, atoms: str, ops: int, with_u: bool = False, supply=None):
    """A random expression with exactly `ops` connectives over `atoms`.

    Atom leaves are taken from `supply` while it lasts, then at random.
    """
    if ops == 0:
        r = rng.random()
        if r < 0.84:
            return supply.pop() if supply else rng.choice(atoms)
        if with_u and r < 0.90:
            return "U"
        return "T" if r < 0.95 else "F"
    if rng.random() < 0.2:
        return ("!", random_expr(rng, atoms, ops - 1, with_u, supply))
    k = rng.randint(0, ops - 1)
    op = "&" if rng.random() < 0.55 else "|"
    left = random_expr(rng, atoms, k, with_u, supply)
    return (op, left, random_expr(rng, atoms, ops - 1 - k, with_u, supply))


def contains_u(e) -> bool:
    stack = [e]
    while stack:
        x = stack.pop()
        if x == "U":
            return True
        if isinstance(x, tuple):
            stack.extend(x[1:])
    return False


def with_u(rng: random.Random, e):
    """e itself when it contains U, else e combined with U on a random side."""
    if contains_u(e):
        return e
    op = rng.choice("&|")
    return (op, e, "U") if rng.random() < 0.5 else (op, "U", e)


_PREC = {"|": 1, "&": 2, "!": 3}


def to_text(e, need: int = 0) -> str:
    """Concrete syntax with minimal parentheses (& binds tighter than |)."""
    if isinstance(e, str):
        return e
    if e[0] == "!":
        return "!" + to_text(e[1], 3)
    p = _PREC[e[0]]
    s = f"{to_text(e[1], p)} {e[0]} {to_text(e[2], p + 1)}"
    return f"({s})" if p < need else s


def occurrences(e) -> int:
    """Atom occurrences: a full-evaluation tree has 2^occurrences leaves."""
    count, stack = 0, [e]
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack.extend(x[1:])
        elif x not in CONSTS:
            count += 1
    return count


def alphabet(e) -> set:
    out, stack = set(), [e]
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack.extend(x[1:])
        elif x not in CONSTS:
            out.add(x)
    return out


# --- the normal-form grammar of the free logic ---
# T-term: T | a | T-term.  F-term: F | a & F-term.  l-term: (a | !a) & T-term.
# *-terms: l-terms, *-term & (l-term | *-disjunction),
# *-term | (l-term | *-conjunction).  A T-*-term is T-term & *-term.

def _t_term(rng, atoms, budget):
    if budget <= 0 or rng.random() < 0.4:
        return "T"
    return ("|", rng.choice(atoms), _t_term(rng, atoms, budget - 1))


def _f_term(rng, atoms, budget):
    if budget <= 0 or rng.random() < 0.4:
        return "F"
    return ("&", rng.choice(atoms), _f_term(rng, atoms, budget - 1))


def _ell(rng, atoms, budget):
    a = rng.choice(atoms)
    lit = a if rng.random() < 0.5 else ("!", a)
    return ("&", lit, _t_term(rng, atoms, budget - 1))


def _star(rng, atoms, budget):
    choice = rng.random()
    if budget <= 2 or choice < 0.4:
        return _ell(rng, atoms, budget)
    left = _star(rng, atoms, budget // 2)
    conj = choice < 0.7
    right = _star_right(rng, atoms, budget - budget // 2 - 1, conj)
    return ("&" if conj else "|", left, right)


def _star_right(rng, atoms, budget, for_conj):
    if budget <= 2 or rng.random() < 0.5:
        return _ell(rng, atoms, budget)
    left = _star(rng, atoms, budget // 2)
    right = _star_right(rng, atoms, budget - budget // 2 - 1, not for_conj)
    return ("|" if for_conj else "&", left, right)


def random_fnf(rng: random.Random, atoms: str, budget: int):
    """A random normal-form term of the free logic."""
    roll = rng.random()
    if roll < 0.15:
        return _t_term(rng, atoms, budget)
    if roll < 0.3:
        return _f_term(rng, atoms, budget)
    return ("&", _t_term(rng, atoms, budget // 3), _star(rng, atoms, budget))


# --- workloads ---

def _cycle(counts: dict) -> tuple:
    """Each key `count` times per cycle, spread evenly over the cycle."""
    slots = [((i + 0.5) / c, k) for k, c in counts.items() for i in range(c)]
    return tuple(k for _, k in sorted(slots))


# Alphabet widths: small alphabets are the common case.  Widths 8 to 10
# come in the chains and in the wide requests, whose shape is fixed so that
# their cost does not swing from seed to seed.
WIDTHS = _cycle({2: 10, 3: 10, 4: 8, 5: 6, 6: 4, 7: 2})
NARROW = _cycle({2: 2, 3: 2, 4: 1})
MUTATIONS = ("fresh", "fresh", "fresh", "notnot", "and-t", "t-and", "twice", "twice",
             "prefix", "and-f")


class Stratum:
    """The shape of the j-th request of a kind, fixed for every seed.

    Width, size, logic, U and the kind of variant cycle with co-prime
    periods, so each seed has the same mix of request shapes and only the
    terms themselves are random.
    """

    def __init__(self, j: int):
        self.u = j % 7 in (0, 3)
        self.width = WIDTHS[j % len(WIDTHS)]
        self.narrow = NARROW[j % len(NARROW)]
        self.j = j

    def ops(self, most: int) -> int:
        """A size from width + 2 to `most` operators, so every atom can occur."""
        least = min(self.width + 2, most)
        return least + (self.j * 13) % (most - least + 1)

    def logic(self, logics):
        pool = U_LOGICS if self.u else logics
        return pool[(self.j // 7) % len(pool)]

    def mutation(self) -> str:
        return MUTATIONS[(self.j // 3) % len(MUTATIONS)]


def _mutated(rng, e, u, which, fresh_ops=12):
    """A second expression for an equivalence request: a variant or a fresh one."""
    atoms = "".join(sorted(alphabet(e))) or "a"
    if which == "fresh":
        q = random_expr(rng, atoms, rng.randint(0, fresh_ops))
        return with_u(rng, q) if u else q
    if which == "prefix":
        return ("&", random_expr(rng, atoms, rng.randint(0, 4)), e)
    return {"notnot": ("!", ("!", e)), "and-t": ("&", e, "T"), "t-and": ("&", "T", e),
            "twice": ("&", e, e), "and-f": ("&", e, "F")}[which]


def _expr(rng, atoms: str, ops: int, u: bool, max_occ=None):
    """A random expression in which every atom of `atoms` occurs."""
    while True:
        supply = list(atoms)
        rng.shuffle(supply)
        e = random_expr(rng, atoms, ops, u, supply)
        e = with_u(rng, e) if u else e
        if len(alphabet(e)) == len(atoms) and (max_occ is None or occurrences(e) <= max_occ):
            return e


def _fnf_upto(rng, atoms: str, max_occurrences: int):
    while True:
        e = random_fnf(rng, atoms, rng.randint(4, 2 * max_occurrences))
        if occurrences(e) <= max_occurrences:
            return e


def _query(rng, kind: str, j: int) -> dict:
    s = Stratum(j)
    atoms = ATOMS[: s.width]
    if kind == "equiv":
        p = _expr(rng, atoms, s.ops(30), s.u)
        return {"kind": kind, "logic": s.logic(LOGICS),
                "exprs": [p, _mutated(rng, p, s.u, s.mutation())]}
    if kind == "normalize":
        logic = s.logic(NF_LOGICS)
        # The ffelu normal form of a U-expression reads the labels of an
        # all-U tree path by path: 2^occurrences steps.
        max_occ = 16 if logic == "ffelu" and s.u else None
        return {"kind": kind, "logic": logic, "exprs": [_expr(rng, atoms, s.ops(30), s.u, max_occ)]}
    if kind == "tree":
        logic = s.logic(LOGICS)
        # A full-evaluation tree has 2^occurrences leaves and the json form
        # does not share subtrees, so those logics get short inputs.
        most = 11 if logic in ("ffel", "ffelu") else 30
        return {"kind": kind, "logic": logic, "exprs": [_expr(rng, atoms, s.ops(most), s.u)]}
    if kind == "invert":
        # The input is a tree in json, which has 2^occurrences leaves.
        return {"kind": kind, "exprs": [_fnf_upto(rng, ATOMS[: s.narrow], 12)]}
    if kind == "bridge":
        return {"kind": kind, "exprs": [_expr(rng, atoms, s.ops(30), False)]}
    if kind == "cli":
        # Small inputs: the CLI prints the expanded ascii trees of an
        # inequivalent pair.
        commands = ("equiv", "normalize", "tree", "invert", "bridge-check")
        command = commands[j % len(commands)]
        narrow = ATOMS[: s.narrow]
        if command == "invert":
            return {"kind": kind, "command": command, "exprs": [_fnf_upto(rng, narrow, 8)]}
        u = s.u and command != "bridge-check"
        logic = s.logic(NF_LOGICS if command == "normalize" else LOGICS)
        e = _expr(rng, narrow, s.ops(6), u)
        exprs = [e, _mutated(rng, e, u, s.mutation(), 6)] if command == "equiv" else [e]
        return {"kind": kind, "command": command, "logic": logic, "exprs": exprs}
    if kind == "malformed":
        text = to_text(_expr(rng, atoms, s.ops(12), False))
        cut = rng.randrange(len(text) + 1)
        text = (text + " &", "(" + text, text[:cut] + " # " + text[cut:],
                text + " " + text, "()")[j % 5]
        return {"kind": "malformed", "text": text,
                "command": ("equiv", "normalize", "tree", "bridge")[(j // 5) % 4]}
    if kind == "deep":
        return _deep(rng, j)
    raise ValueError(kind)


def _deep(rng, j: int) -> dict:
    """Inputs nested beyond Python's default recursion limit.

    The right outcome is the answer given here or a typed error; the
    answers follow from the construction, not from an evaluation.
    """
    shape = j % 3
    if shape == 0:
        n = rng.randint(1200, 1600)
        return {"kind": "deep", "command": "equiv", "logic": "mfel",
                "texts": [" & ".join("a" * n), "a"], "expect": True}
    if shape == 1:
        n = rng.randint(1500, 3000)
        nf = "T & (a & T)" if n % 2 == 0 else "T & (!a & T)"
        return {"kind": "deep", "command": "normalize", "logic": "ffel",
                "texts": ["!" * n + "a"], "expect": nf}
    n = rng.randint(1000, 1500)
    return {"kind": "deep", "command": "equiv", "logic": "ffel",
            "texts": ["(" * n + "a" + ")" * n, "a"], "expect": True}


def _long(kind: str, logic: str, e, variant) -> dict:
    """A request on a long or wide input; an equivalence pairs e with a
    variant that every logic identifies with it (x & T = x, T & x = x)."""
    if kind == "equiv":
        return {"kind": kind, "logic": logic, "exprs": [e, variant], "expect": True}
    return {"kind": kind, "logic": logic, "exprs": [e]}


def _chain(rng, i: int, count: int) -> dict:
    """The i-th of `count` long left-deep conjunctions of literals.

    Length, width and logic are spread evenly over the chains, so each
    seed has the same long tail; only the literals are random.
    """
    n = 100 + 150 * i // count + rng.randrange(8)
    atoms = ATOMS[: 6 + i % 5]
    e = rng.choice(atoms)
    for _ in range(n - 1):
        a = rng.choice(atoms)
        e = ("&", e, ("!", a) if rng.random() < 0.3 else a)
    kinds = (("equiv", "ffel"), ("normalize", "ffel"), ("equiv", "mfel"),
             ("equiv", "clfel2"), ("normalize", "mfel"), ("equiv", "sfel"))
    kind, logic = kinds[i % len(kinds)]
    return _long(kind, logic, e, ("&", e, "T"))


def _wide(rng, j: int) -> dict:
    """The j-th request over 8 to 10 atoms: a left-deep mix of & and | of
    three literals per atom, in a memorising or static logic."""
    atoms = list(ATOMS[: 8 + j % 5 % 3])
    rng.shuffle(atoms)
    lits = atoms + [rng.choice(atoms) for _ in range(2 * len(atoms))]
    e = lits[0]
    for a in lits[1:]:
        e = (rng.choice("&|"), e, ("!", a) if rng.random() < 0.3 else a)
    kinds = (("normalize", "mfel"), ("equiv", "mfel"), ("normalize", "clfel2"),
             ("equiv", "clfel2"), ("tree", "mfel"), ("equiv", "sfel"))
    kind, logic = kinds[j % len(kinds)]
    return _long(kind, logic, e, ("&", "T", e))


def queries(seed: int, count: int, part: int = 0) -> list[dict]:
    """Part `part` of the `queries` stream: fixed counts per kind, seeded content."""
    rng = random.Random(f"queries:{seed}:{part}")
    kinds = []
    for kind, per100 in QUERY_MIX:
        kinds += [kind] * (count * per100 // 100)
    chains = count * CHAINS_PER_1000 // 1000
    wides = count * WIDE_PER_1000 // 1000
    kinds += ["chain"] * chains + ["wide"] * wides
    rng.shuffle(kinds)
    out, seen = [], dict.fromkeys(kinds, 0)
    for kind in kinds:
        j = seen[kind]
        seen[kind] += 1
        if kind == "chain":
            q = _chain(rng, j, chains)
        elif kind == "wide":
            q = _wide(rng, j)
        else:
            q = _query(rng, kind, j)
        if "texts" not in q and "text" not in q:
            q["texts"] = [to_text(e) for e in q["exprs"]]
        q["id"] = len(out)
        q["ref"] = rng.random() < REF_SHARE
        out.append(q)
    return out


def classes_order(seed: int, part: int = 0) -> random.Random:
    """The seeded order in which the class programme visits its frontiers."""
    return random.Random(f"classes:{seed}:{part}")


EQ_SETS = ("eqffel", "eqffelu", "eqmfel", "eqmfelu", "eqclfel2", "eqclfelu", "eqsfel")
SEPARATIONS = (("ffel", "Idem"), ("mfel", "Comm"), ("clfel2", "AndF"))
MF_AXIOMS = ("MF1", "MF2", "MF3", "MF4", "MF5", "MF6")
# Four samples per set put the median verdict well inside the cluster of
# sample checks rather than at its edge, where it jumps from run to run.
SAMPLE_TASKS = 4


def verdicts(seed: int, part: int = 0) -> list[dict]:
    """The `verdicts` task list: the order and the random samples are seeded.

    Every eq* set is checked in its own logic exhaustively and on
    SAMPLE_TASKS random samples; the separations are random samples too.
    """
    rng = random.Random(f"verdicts:{seed}:{part}")
    tasks = [{"kind": "check", "set": s} for s in EQ_SETS]
    tasks += [{"kind": "sample", "set": s, "seed": rng.randrange(1 << 30)}
              for s in EQ_SETS for _ in range(SAMPLE_TASKS)]
    rng.shuffle(tasks)
    tasks += [{"kind": "separate", "logic": lg, "eq": eq, "seed": rng.randrange(1 << 30)}
              for lg, eq in SEPARATIONS]
    models = [{"kind": "model", "drop": name} for name in MF_AXIOMS]
    rng.shuffle(models)
    tasks.append({"kind": "model", "drop": None})
    tasks += models
    return tasks


def digest(inputs) -> str:
    """A digest of generated inputs, to show that a seed fixes them."""
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()
