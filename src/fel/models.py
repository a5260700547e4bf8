"""Bounded finite-model search for axiom independence.

A finite model interprets &, |, ! and the constants over a small domain
(2 to 6 elements).  An axiom is independent of a set when some model
satisfies the rest of the set but violates the axiom.

The search propagates, after SEM (Zhang & Zhang, IJCAI 1995) and Mace4
(McCune, 2003).  Every ground instance of an equation is compiled once
into integer reads of a flat cell table, and waits on the first cell it
cannot read yet: an assignment rechecks only the instances waiting on
that cell.  An instance with one side known, whose other side waits on
one cell with known arguments, forces that cell.  Cells are decided in a
fixed order (the constants, then neg, then the and/or cells by their
largest argument) with the least-number heuristic: a cell takes only the
elements already used and one fresh one, since all fresh elements are
interchangeable.  The search is complete up to the size bound, returns
the first model it meets (deterministic, though not the lexicographically
first), and reports timeouts honestly instead of guessing.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field

from . import syntax
from .axioms import Equation, variables_of
from .syntax import Expr, Var
from .tables import fold

MAX_SIZE = 6


@dataclass(frozen=True)
class FiniteModel:
    size: int
    and_table: tuple[tuple[int, ...], ...]
    or_table: tuple[tuple[int, ...], ...]
    neg_table: tuple[int, ...]
    t_elem: int
    f_elem: int
    u_elem: int | None = None

    def __post_init__(self):
        n = self.size
        if not 2 <= n <= MAX_SIZE:
            raise ValueError(f"model size must be between 2 and {MAX_SIZE}")
        for name, table in (("and", self.and_table), ("or", self.or_table)):
            if len(table) != n or any(len(row) != n for row in table):
                raise ValueError(f"the {name} table must be {n} rows of {n} elements")
        if len(self.neg_table) != n:
            raise ValueError(f"the neg table must have {n} elements")
        elements = [v for row in self.and_table + self.or_table for v in row]
        elements += [*self.neg_table, self.t_elem, self.f_elem]
        if self.u_elem is not None:
            elements.append(self.u_elem)
        if any(v not in range(n) for v in elements):
            raise ValueError(f"model elements must lie in 0..{n - 1}")

    def to_json(self) -> str:
        data = {
            "size": self.size,
            "and": [list(r) for r in self.and_table],
            "or": [list(r) for r in self.or_table],
            "neg": list(self.neg_table),
            "T": self.t_elem,
            "F": self.f_elem,
        }
        if self.u_elem is not None:
            data["U"] = self.u_elem
        return json.dumps(data)

    @classmethod
    def from_json(cls, text: str) -> "FiniteModel":
        d = json.loads(text)
        try:
            return cls(
                d["size"],
                tuple(tuple(r) for r in d["and"]),
                tuple(tuple(r) for r in d["or"]),
                tuple(d["neg"]),
                d["T"],
                d["F"],
                d.get("U"),
            )
        except KeyError as err:
            raise ValueError(f"model JSON needs the key {err.args[0]!r}") from None
        except TypeError as err:
            raise ValueError(f"malformed model JSON: {err}") from None


BOOLEAN_MODEL = FiniteModel(
    2,
    and_table=((0, 0), (0, 1)),
    or_table=((0, 1), (1, 1)),
    neg_table=(1, 0),
    t_elem=1,
    f_elem=0,
)


# --- the cell table and compiled instances ---
#
# Over a domain of n elements the cells are, in this order: T, F, U,
# neg[i], and[i][j], or[i][j], and n element cells, the k-th holding k.
# An unknown cell holds -1.

_T, _F, _U, _NEG = 0, 1, 2, 3


def _and(n: int) -> int:
    return _NEG + n


def _or(n: int) -> int:
    return _NEG + n + n * n


def _elem(n: int) -> int:
    return _NEG + n + 2 * n * n


def _cells(m: FiniteModel) -> list[int]:
    """m's full cell table; U's cell is unknown if m has no U."""
    u = -1 if m.u_elem is None else m.u_elem
    return [
        m.t_elem, m.f_elem, u, *m.neg_table,
        *itertools.chain(*m.and_table), *itertools.chain(*m.or_table), *range(m.size),
    ]


def _side(t: Expr, env: dict[str, int], n: int) -> tuple:
    """The cell reads of t under env, in order; a bare variable reads its element cell.

    A step (base, a, s, b) reads the cell base + r[a] * s + r[b], where
    r[0] is 0 and r[k] is the value that step k - 1 read.  t is compiled by
    one fold whose value for a subterm is its element if env alone gives
    it, else ~k for r[k].
    """
    steps: list = []

    def read(base: int, s: int = 0, x: int = 0, y: int = 0) -> int:
        # The step reading cell base + x * s + y of the values x and y.
        a = b = 0
        if x >= 0:
            base += x * s
        else:
            a = ~x
        if y >= 0:
            base += y
        else:
            b = ~y
        steps.append((base, a, s, b))
        return ~len(steps)

    clauses = {
        syntax.ConstT: lambda t: read(_T),
        syntax.ConstF: lambda t: read(_F),
        syntax.ConstU: lambda t: read(_U),
        syntax.Not: lambda t, x: read(_NEG, 0, 0, x),
        syntax.FullAnd: lambda t, x, y: read(_and(n), n, x, y),
        syntax.FullOr: lambda t, x, y: read(_or(n), n, x, y),
        Var: _unassigned,
    }
    done = {Var(name): element for name, element in env.items()}
    x = fold(t, clauses, "an open term over variables", done)
    if x >= 0:
        read(_elem(n), 0, 0, x)
    return tuple(steps)


def _unassigned(t: Var):
    raise ValueError(f"variable {t.name} has no value")


def _root(steps: tuple, val: list[int]) -> int:
    """The cell that gives a compiled side its value, or ~c when an
    unknown cell c must be read before it is known."""
    r = [0]
    for base, a, s, b in steps:
        c = base + r[a] * s + r[b]
        v = val[c]
        if v < 0:
            return c if len(r) == len(steps) else ~c
        r.append(v)
    return c


def _instances(eq: Equation, n: int) -> list[tuple]:
    """The ground instances of eq over n elements, each side compiled."""
    names = sorted(variables_of(eq.lhs) | variables_of(eq.rhs))
    out = []
    for values in itertools.product(range(n), repeat=len(names)):
        env = dict(zip(names, values))
        out.append((_side(eq.lhs, env, n), _side(eq.rhs, env, n)))
    return out


def _value(steps: tuple, val: list[int]) -> int:
    c = _root(steps, val)
    # Every cell but U is set, so only a missing U leaves a side unknown.
    if c < 0 or val[c] < 0:
        raise ValueError("model has no U element")
    return val[c]


def eval_open_term(m: FiniteModel, t: Expr, env: dict[str, int]) -> int:
    if any(v not in range(m.size) for v in env.values()):
        raise ValueError(f"variable values must lie in 0..{m.size - 1}")
    return _value(_side(t, env, m.size), _cells(m))


def check_equation_in_model(m: FiniteModel, eq: Equation) -> bool:
    """True when lhs = rhs under every assignment of domain elements."""
    val = _cells(m)
    return all(_value(l, val) == _value(r, val) for l, r in _instances(eq, m.size))


# --- the search ---

@dataclass
class SearchStats:
    nodes: int = 0
    pruned: int = 0
    sizes_done: list[int] = field(default_factory=list)


@dataclass
class FindResult:
    status: str  # "model" | "exhausted" | "timeout"
    model: FiniteModel | None
    stats: SearchStats

    def __bool__(self):
        return self.status == "model"


def _needs_u(eqs) -> bool:
    return any(
        syntax.contains_u(eq.lhs) or syntax.contains_u(eq.rhs) for eq in eqs
    )


_OPEN, _EQUAL, _BROKEN = 0, 1, 2


class _Search:
    """The state of the search at one size.

    trail lists what was assigned, in order: a cell c, or ~i when the
    instance i of the violated equation was found equal or broken.  It is
    also the propagation queue.  watch[c] lists every instance that has
    ever waited on c.  It only grows: after a backtrack an instance waits
    again on a cell it waited on before, so it is still listed there, and
    an instance listed under c that no longer waits on it is rechecked
    harmlessly, since a check concludes only what the assignment implies.
    """

    def __init__(self, n, must, wanted, with_u, stats, deadline):
        self.n = n
        self.pairs = must + wanted
        self.wanted_from = len(must)
        self.state = [_OPEN] * len(self.pairs)
        self.open = len(wanted)
        self.broken = 0
        self.val = [-1] * _elem(n) + list(range(n))
        self.watch = [[] for _ in self.val]
        self.watched = [set() for _ in self.val]
        self.trail: list[int] = []
        self.stats = stats
        self.deadline = deadline
        and_, or_ = _and(n), _or(n)
        # The decision order and each cell's largest argument.
        self.order = [_T, _F] + ([_U] if with_u else []) + [_NEG + i for i in range(n)]
        self.arg = [-1] * len(self.val)
        for i in range(n):
            self.arg[_NEG + i] = i
        for k in range(n):
            for i, j in itertools.product(range(k + 1), repeat=2):
                if max(i, j) == k:
                    for base in (and_, or_):
                        self.order.append(base + i * n + j)
                        self.arg[base + i * n + j] = k

    def assign(self, c: int, v: int) -> None:
        self.val[c] = v
        self.trail.append(c)

    def undo(self, mark: int) -> None:
        trail, val, state = self.trail, self.val, self.state
        while len(trail) > mark:
            c = trail.pop()
            if c >= 0:
                val[c] = -1
            else:
                if state[~c] == _BROKEN:
                    self.broken -= 1
                state[~c] = _OPEN
                self.open += 1

    def check(self, i: int) -> bool:
        """Recheck instance i: False on a conflict; it may force a cell."""
        lhs, rhs = self.pairs[i]
        val = self.val
        lc, rc = _root(lhs, val), _root(rhs, val)
        lv = val[lc] if lc >= 0 else -1
        rv = val[rc] if rc >= 0 else -1
        if lv >= 0 and rv >= 0:
            if i < self.wanted_from:
                return lv == rv
            if self.state[i] == _OPEN:
                self.state[i] = _EQUAL if lv == rv else _BROKEN
                self.trail.append(~i)
                self.open -= 1
                self.broken += lv != rv
            return self.open > 0 or self.broken > 0
        if i < self.wanted_from:
            if lv >= 0 and rc >= 0:
                self.assign(rc, lv)
                return True
            if rv >= 0 and lc >= 0:
                self.assign(lc, rv)
                return True
        for c, v in ((lc, lv), (rc, rv)):
            if v < 0:
                c = c if c >= 0 else ~c
                if i not in self.watched[c]:
                    self.watched[c].add(i)
                    self.watch[c].append(i)
        return True

    def propagate(self, head: int) -> bool:
        """Recheck the instances waiting on each cell assigned from trail[head]."""
        trail = self.trail
        while head < len(trail):
            c = trail[head]
            head += 1
            if c >= 0:
                for i in self.watch[c]:
                    if not self.check(i):
                        return False
        return True

    def used(self, mdn: int, mark: int) -> int:
        """The largest element used, given mdn before trail[mark:]."""
        for c in self.trail[mark:]:
            if c >= 0:
                mdn = max(mdn, self.arg[c], self.val[c])
        return mdn

    def start(self) -> bool:
        return all(self.check(i) for i in range(len(self.pairs))) and self.propagate(0)

    def search(self, k: int, mdn: int) -> str:
        """Decide order[k:] depth first: "model", "exhausted" or "timeout"."""
        order, val = self.order, self.val
        while k < len(order) and val[order[k]] >= 0:
            k += 1
        if k == len(order):
            return "model"
        c = order[k]
        top = min(self.n - 1, max(mdn, self.arg[c]) + 1)
        for v in range(top + 1):
            if time.monotonic() > self.deadline:
                return "timeout"
            self.stats.nodes += 1
            mark = len(self.trail)
            self.assign(c, v)
            if self.propagate(mark):
                found = self.search(k + 1, self.used(mdn, mark))
                if found != "exhausted":
                    return found
            else:
                self.stats.pruned += 1
            self.undo(mark)
        return "exhausted"

    def model(self) -> FiniteModel:
        n, val = self.n, self.val
        and_, or_ = _and(n), _or(n)
        return FiniteModel(
            n,
            tuple(tuple(val[and_ + i * n: and_ + i * n + n]) for i in range(n)),
            tuple(tuple(val[or_ + i * n: or_ + i * n + n]) for i in range(n)),
            tuple(val[_NEG: _NEG + n]),
            val[_T],
            val[_F],
            None if val[_U] < 0 else val[_U],
        )


def find_model(satisfy, violate: Equation | None, max_size: int,
               budget: float = 60.0) -> FindResult:
    """A model of the smallest size that satisfies every equation of
    satisfy and violates violate: "model", "exhausted" up to max_size, or
    "timeout" when the budget in seconds runs out first.

    Sizes are tried from 2 up.  Within a size the cells are decided in the
    order T, F, U, neg[0..n-1], then the and/or cells with largest argument
    0, 1, ..., each taking its values from 0 up, so the model returned is
    the first in that order and the same on every run.
    """
    if not 2 <= max_size <= MAX_SIZE:
        raise ValueError(f"max_size must be between 2 and {MAX_SIZE}, got {max_size}")
    if not (math.isfinite(budget) and budget > 0):
        raise ValueError(f"budget must be a positive number of seconds, got {budget}")
    satisfy = list(satisfy)
    deadline = time.monotonic() + budget
    stats = SearchStats()
    with_u = _needs_u(satisfy + ([violate] if violate else []))

    for size in range(2, max_size + 1):
        must = [p for eq in satisfy for p in _instances(eq, size)]
        wanted = _instances(violate, size) if violate else []
        s = _Search(size, must, wanted, with_u, stats, deadline)
        result = "exhausted"
        if s.start():
            result = s.search(0, s.used(-1, 0))
        if result == "timeout":
            return FindResult("timeout", None, stats)
        if result == "model":
            return FindResult("model", s.model(), stats)
        stats.sizes_done.append(size)
    return FindResult("exhausted", None, stats)


def independence_report(axset, max_size: int = 3, budget: float = 60.0) -> dict:
    """Per axiom: a re-verified witness model for its independence, or unknown."""
    deadline = time.monotonic() + budget
    report: dict[str, dict] = {}
    for eq in axset:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            report[eq.name] = {"status": "unknown", "reason": "budget exhausted"}
            continue
        others = [e for e in axset if e.name != eq.name]
        result = find_model(others, eq, max_size, remaining)
        if result.status == "model":
            m = result.model
            ok = all(check_equation_in_model(m, e) for e in others)
            if ok and not check_equation_in_model(m, eq):
                report[eq.name] = {"status": "independent", "model": m}
            else:
                # A witness that fails re-verification is a defect, not a result.
                raise AssertionError(f"unverified witness for {eq.name}")
        elif result.status == "exhausted":
            report[eq.name] = {"status": "unknown", "reason": f"no model of size <= {max_size}"}
        else:
            report[eq.name] = {"status": "unknown", "reason": "timeout"}
    return report
