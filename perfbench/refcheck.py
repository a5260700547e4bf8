"""An independent reference for the answers of `fel`.

It follows the definitions of Bergstra & Ponse, *Proposition algebra*
(ACM TOCL 2011) as the paper states them, over plain nested tuples, and
shares no code with `fel`:

- `fe` composes evaluation trees by leaf replacement;
- `memo` walks each path and keeps the first value of every atom;
- `clfe` and `sfe` put the all-false prefix over the alphabet in front of
  the full evaluation tree, then memorise.

Trees are the leaf strings "T", "F", "U" and tuples (atom, left, right).
A `Ref` hash-conses its trees, so equal trees are one object and a tree
with 2^n paths stays a DAG of about n^2 nodes.

Program output is read as data: trees and expressions by their fields,
CLI output by the parser below.  Nothing here imports `fel`.
"""

from __future__ import annotations

import itertools
import json

from gen import CONSTS, alphabet, contains_u

LEAVES = {"T": "T", "F": "F", "U": "U"}
VARIABLES = ("x", "y", "z", "u", "v", "w")


class Mismatch(AssertionError):
    """An answer of the program disagrees with the reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


class Ref:
    """Reference trees over one unique table."""

    def __init__(self):
        self._nodes: dict = {}

    def node(self, atom, left, right):
        key = (atom, id(left), id(right))
        t = self._nodes.get(key)
        if t is None:
            t = self._nodes[key] = (atom, left, right)
        return t

    def replace(self, x, mapping: dict):
        """Replace leaves simultaneously; unmapped leaves stay."""
        done: dict = {}

        def go(t):
            r = done.get(id(t))
            if r is None:
                if isinstance(t, str):
                    r = mapping.get(t, t)
                else:
                    r = self.node(t[0], go(t[1]), go(t[2]))
                done[id(t)] = r
            return r

        return go(x)

    # --- the evaluation maps ---

    def fe(self, e):
        """Full evaluation tree; U is a leaf that no connective replaces."""
        spine = []  # walk a left-deep chain without recursion
        while isinstance(e, tuple) and e[0] != "!":
            spine.append(e)
            e = e[1]
        if isinstance(e, tuple):
            x = self.replace(self.fe(e[1]), {"T": "F", "F": "T"})
        elif e in CONSTS:
            x = LEAVES[e]
        else:
            x = self.node(e, "T", "F")
        for op, _, right in reversed(spine):
            y = self.fe(right)
            if op == "&":
                x = self.replace(x, {"T": y, "F": self.replace(y, {"T": "F"})})
            else:
                x = self.replace(x, {"T": self.replace(y, {"F": "T"}), "F": y})
        return x

    def memo(self, x):
        """Along every path, an atom met again keeps its first value."""
        done: dict = {}

        def go(t, known: frozenset):
            if isinstance(t, str):
                return t
            key = (id(t), known)
            r = done.get(key)
            if r is None:
                a = t[0]
                if (a, True) in known:
                    r = go(t[1], known)
                elif (a, False) in known:
                    r = go(t[2], known)
                else:
                    r = self.node(a, go(t[1], known | {(a, True)}),
                                  go(t[2], known | {(a, False)}))
                done[key] = r
            return r

        return go(x, frozenset())

    def prefixed(self, beta, e):
        """memo(fe(f~ | e)), with f~ = b1 & (b2 & ... & F) the all-false prefix."""
        prefix = "F"
        for a in reversed(list(beta)):
            prefix = ("&", a, prefix)
        return self.memo(self.fe(("|", prefix, e)))

    def tree(self, logic: str, e, beta=None):
        """The evaluation tree of e in a logic."""
        if logic in ("ffel", "ffelu"):
            return self.fe(e)
        if logic in ("mfel", "mfelu"):
            return self.memo(self.fe(e))
        if logic == "clfel" and contains_u(e):
            return "U"
        if logic in ("clfel2", "clfel"):
            return self.prefixed(sorted(alphabet(e)), e)
        if logic == "sfel":
            return self.prefixed(beta if beta is not None else sorted(alphabet(e)), e)
        raise ValueError(logic)

    def equiv(self, logic: str, p, q) -> bool:
        beta = sorted(alphabet(p) | alphabet(q)) if logic == "sfel" else None
        return self.tree(logic, p, beta) is self.tree(logic, q, beta)

    # --- reading program output ---

    def from_program_tree(self, t):
        """A `fel` tree object, read by its fields, as a reference tree."""
        done: dict = {}
        stack = [t]
        while stack:
            x = stack[-1]
            if id(x) in done:
                stack.pop()
            elif hasattr(x, "kind"):
                done[id(x)] = LEAVES.get(x.kind, x.kind)
                stack.pop()
            elif id(x.left) in done and id(x.right) in done:
                done[id(x)] = self.node(x.atom, done[id(x.left)], done[id(x.right)])
                stack.pop()
            else:
                stack += (x.left, x.right)
        return done[id(t)]

    def from_json(self, data):
        """A tree in `fel`'s json form ({"leaf": k} or {"atom", "left", "right"})."""
        if isinstance(data, str):
            data = json.loads(data)
        if "leaf" in data:
            return LEAVES.get(data["leaf"], data["leaf"])
        return self.node(data["atom"], self.from_json(data["left"]),
                         self.from_json(data["right"]))


def to_json(x) -> str:
    """A reference tree in `fel`'s json form, expanded."""

    def go(t):
        if isinstance(t, str):
            return {"leaf": t}
        return {"atom": t[0], "left": go(t[1]), "right": go(t[2])}

    return json.dumps(go(x))


_EXPR_FIELDS = {
    "Atom": lambda e: e.name, "Var": lambda e: e.name,
    "ConstT": lambda e: "T", "ConstF": lambda e: "F", "ConstU": lambda e: "U",
}


def from_program_expr(e):
    """A `fel` expression object, read by its fields, as a tuple."""
    kind = type(e).__name__
    if kind in _EXPR_FIELDS:
        return _EXPR_FIELDS[kind](e)
    if kind == "Not":
        return ("!", from_program_expr(e.operand))
    if kind == "FullAnd":
        return ("&", from_program_expr(e.left), from_program_expr(e.right))
    if kind == "FullOr":
        return ("|", from_program_expr(e.left), from_program_expr(e.right))
    raise Mismatch(f"not an expression: {e!r}")


def parse(text: str):
    """Concrete syntax to a tuple; & binds tighter than |, both to the left."""
    toks = text.replace("(", " ( ").replace(")", " ) ").replace("!", " ! ") \
        .replace("&", " & ").replace("|", " | ").split()
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        expect(pos < len(toks), f"unexpected end: {text!r}")
        pos += 1
        return toks[pos - 1]

    def disj():
        e = conj()
        while peek() == "|":
            take()
            e = ("|", e, conj())
        return e

    def conj():
        e = unary()
        while peek() == "&":
            take()
            e = ("&", e, unary())
        return e

    def unary():
        if peek() == "!":
            take()
            return ("!", unary())
        tok = take()
        if tok == "(":
            e = disj()
            expect(take() == ")", f"unbalanced: {text!r}")
            return e
        expect(tok in CONSTS or tok.isidentifier() and tok.islower(), f"bad token {tok!r}")
        return tok

    e = disj()
    expect(pos == len(toks), f"trailing input: {text!r}")
    return e


# --- normal forms ---

def _t_term(e) -> bool:
    while e != "T":
        if not (isinstance(e, tuple) and e[0] == "|" and _atom(e[1])):
            return False
        e = e[2]
    return True


def _f_term(e) -> bool:
    while e != "F":
        if not (isinstance(e, tuple) and e[0] == "&" and _atom(e[1])):
            return False
        e = e[2]
    return True


def _atom(e) -> bool:
    return isinstance(e, str) and e not in CONSTS


def _ell(e) -> bool:
    return (isinstance(e, tuple) and e[0] == "&" and _t_term(e[2])
            and (_atom(e[1]) or isinstance(e[1], tuple) and e[1][0] == "!" and _atom(e[1][1])))


def _star(e, top=None) -> bool:
    """An l-term, or a *-conjunction / *-disjunction (with connective `top`, if given)."""
    if _ell(e):
        return top is None
    if not isinstance(e, tuple) or e[0] == "!":
        return False
    if top is not None and top != e[0]:
        return False
    right = "|" if e[0] == "&" else "&"
    return _star(e[1]) and (_ell(e[2]) or _star(e[2], right))


def is_fnf(e) -> bool:
    """Is e a normal form of the free logic: T-term, F-term or T-*-term?"""
    if _t_term(e) or _f_term(e):
        return True
    return isinstance(e, tuple) and e[0] == "&" and _t_term(e[1]) and _star(e[2])


def is_h_nest(e, sigma: str) -> bool:
    """Is e a nest of h(a, P, Q) = (a & P) | (!a & Q) over sigma, with T/F at the bottom?"""
    level = [e]
    for a in sigma:
        below = []
        for x in level:
            ok = (isinstance(x, tuple) and x[0] == "|"
                  and x[1][:2] == ("&", a) and x[2][:2] == ("&", ("!", a)))
            if not ok:
                return False
            below += (x[1][2], x[2][2])
        level = below
    return all(x in ("T", "F") for x in level)


def u_sigma(sigma) -> object:
    e = "U"
    for a in reversed(list(sigma)):
        e = ("&", a, e)
    return e


def first_occurrences(e) -> str:
    """The atoms of e in order of first occurrence, left to right."""
    out, stack = [], [e]
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack += reversed(x[1:])
        elif x not in CONSTS and x not in out:
            out.append(x)
    return "".join(out)


def _u_labels(x) -> str:
    """The path labels of an all-U perfect tree."""
    out = []
    while not isinstance(x, str):
        expect(x[1] is x[2], "undefined tree is not perfect")
        out.append(x[0])
        x = x[1]
    expect(x == "U", "undefined tree has a defined leaf")
    return "".join(out)


def check_normal_form(ref: Ref, logic: str, p, nf) -> None:
    """nf is the normal form of p: in the logic's grammar, same tree as p."""
    if logic == "clfel" and contains_u(p):
        expect(nf == "U", "clfel normal form of a U-expression is U")
        return
    if logic in ("ffelu", "mfelu") and contains_u(p):
        labels = _u_labels(ref.tree(logic, p))
        expect(nf == u_sigma(labels), "undefined normal form")
    elif logic in ("ffel", "ffelu"):
        expect(is_fnf(nf), "not in the normal-form grammar")
    elif logic in ("mfel", "mfelu"):
        expect(is_h_nest(nf, first_occurrences(p)), "not an h-nest over str(p)")
    else:
        expect(is_h_nest(nf, "".join(sorted(alphabet(p)))), "not an h-nest over the alphabet")
    expect(ref.tree(logic, nf) is ref.tree(logic, p), "normal form changed the tree")


# --- finite models ---

AXIOMS = {
    "FFEL1": ("F", "!T"), "FFEL2": ("x | y", "!(!x & !y)"), "FFEL3": ("!!x", "x"),
    "FFEL4": ("(x & y) & z", "x & (y & z)"), "FFEL5": ("T & x", "x"),
    "FFEL6": ("x & T", "x"), "FFEL7": ("x & F", "F & x"), "FFEL8": ("!x & F", "x & F"),
    "FFEL9": ("(x & F) | y", "(x | T) & y"), "FFEL10": ("x | (y & F)", "x & (y | T)"),
    "M1": ("(x | y) & z", "(!x & (y & z)) | (x & z)"),
    "Comm": ("x & y", "y & x"), "AndF": ("x & F", "F"), "Idem": ("x & x", "x"),
    "MF1": ("x | y", "!(!x & !y)"), "MF2": ("!!x", "x"), "MF3": ("T & x", "x"),
    "MF4": ("(x | y) & z", "(!x & (y & z)) | (x & z)"),
    "MF5": ("(x & y) | x", "x | (y & F)"), "MF6": ("x & (y | z)", "(x & y) | (x & z)"),
}
EQSFEL = ("FFEL1", "FFEL2", "FFEL3", "FFEL4", "FFEL5", "FFEL6", "FFEL7", "FFEL8",
          "FFEL9", "FFEL10", "M1", "Comm", "AndF")
MF = ("MF1", "MF2", "MF3", "MF4", "MF5", "MF6")


def _eval(model: dict, t, env: dict) -> int:
    if isinstance(t, str):
        return env[t] if t in env else model[t]
    if t[0] == "!":
        return model["neg"][_eval(model, t[1], env)]
    table = model["and"] if t[0] == "&" else model["or"]
    return table[_eval(model, t[1], env)][_eval(model, t[2], env)]


def holds(model: dict, name: str) -> bool:
    """Does the equation hold in the model under every assignment?"""
    lhs, rhs = (parse(s) for s in AXIOMS[name])
    names = sorted((alphabet(lhs) | alphabet(rhs)) & set(VARIABLES))
    for values in itertools.product(range(model["size"]), repeat=len(names)):
        env = dict(zip(names, values))
        if _eval(model, lhs, env) != _eval(model, rhs, env):
            return False
    return True


def model_of(m) -> dict:
    """A `fel` finite model, read by its fields, as plain tables."""
    return {"size": m.size, "and": m.and_table, "or": m.or_table,
            "neg": m.neg_table, "T": m.t_elem, "F": m.f_elem}


def check_model(model: dict, satisfy, violate) -> None:
    n = model["size"]
    expect(all(0 <= model[k] < n for k in ("T", "F")), "constant outside the domain")
    cells = [v for row in model["and"] + model["or"] for v in row] + list(model["neg"])
    expect(len(cells) == 2 * n * n + n and all(0 <= v < n for v in cells),
           "table cell outside the domain")
    for name in satisfy:
        expect(holds(model, name), f"model violates {name}")
    if violate is not None:
        expect(not holds(model, violate), f"model satisfies {violate}")


def check_separation(ref: Ref, logic: str, name: str, assignment: dict) -> None:
    """The counterexample's two instances have different trees in the logic."""
    lhs, rhs = (parse(s) for s in AXIOMS[name])

    def subst(t):
        if isinstance(t, str):
            return assignment.get(t, t)
        return (t[0],) + tuple(subst(x) for x in t[1:])

    expect(not ref.equiv(logic, subst(lhs), subst(rhs)), f"{name} not refuted in {logic}")
