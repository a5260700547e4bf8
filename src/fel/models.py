"""Bounded finite-model search for axiom independence.

A finite model interprets &, |, ! and the constants over a small domain
(2 to 4 elements).  An axiom is independent of a set when some model
satisfies the rest of the set but violates the axiom.  The search
assigns operation-table cells one by one in a fixed order and prunes as
soon as a ground instance with fully determined cells fails a required
equation; it is complete up to the size bound, and reports timeouts
honestly instead of guessing.
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
        if not 2 <= n <= 4:
            raise ValueError("model size must be between 2 and 4")
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


def _cells(m: FiniteModel) -> dict:
    """m's tables as find_model's cells; U's is None if m has no U."""
    cells = {("T",): m.t_elem, ("F",): m.f_elem, ("U",): m.u_elem}
    for i in range(m.size):
        cells["neg", i] = m.neg_table[i]
        for j in range(m.size):
            cells["and", i, j] = m.and_table[i][j]
            cells["or", i, j] = m.or_table[i][j]
    return cells


def _value(t: Expr, env: dict[str, int], cells: dict) -> int:
    # Every cell but U is set, so only a missing U leaves t undetermined.
    v = _partial_eval(t, env, cells)
    if v is None:
        raise ValueError("model has no U element")
    return v


def eval_open_term(m: FiniteModel, t: Expr, env: dict[str, int]) -> int:
    return _value(t, env, _cells(m))


def check_equation_in_model(m: FiniteModel, eq: Equation) -> bool:
    """True when lhs = rhs under every assignment of domain elements."""
    names = sorted(variables_of(eq.lhs) | variables_of(eq.rhs))
    cells = _cells(m)
    for values in itertools.product(range(m.size), repeat=len(names)):
        env = dict(zip(names, values))
        if _value(eq.lhs, env, cells) != _value(eq.rhs, env, cells):
            return False
    return True


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


# Cell addresses: ("and", i, j), ("or", i, j), ("neg", i), ("T",), ("F",), ("U",)

def _needs_u(eqs) -> bool:
    return any(
        syntax.contains_u(eq.lhs) or syntax.contains_u(eq.rhs) for eq in eqs
    )


def _partial_eval(t: Expr, env, cells) -> int | None:
    """Evaluate under a partial table assignment; None when undetermined."""
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, syntax.ConstT):
        return cells.get(("T",))
    if isinstance(t, syntax.ConstF):
        return cells.get(("F",))
    if isinstance(t, syntax.ConstU):
        return cells.get(("U",))
    if isinstance(t, syntax.Not):
        v = _partial_eval(t.operand, env, cells)
        return None if v is None else cells.get(("neg", v))
    if isinstance(t, (syntax.FullAnd, syntax.FullOr)):
        l = _partial_eval(t.left, env, cells)
        r = _partial_eval(t.right, env, cells)
        if l is None or r is None:
            return None
        op = "and" if isinstance(t, syntax.FullAnd) else "or"
        return cells.get((op, l, r))
    raise TypeError(f"not an open term over variables: {t!r}")


def _instances(eqs, size):
    out = []
    for eq in eqs:
        names = sorted(variables_of(eq.lhs) | variables_of(eq.rhs))
        for values in itertools.product(range(size), repeat=len(names)):
            out.append((eq.lhs, eq.rhs, dict(zip(names, values))))
    return out


def find_model(satisfy, violate: Equation | None, max_size: int,
               budget: float = 60.0) -> FindResult:
    """First model (smallest size, lexicographic cells) separating the sets."""
    if not 2 <= max_size <= 4:
        raise ValueError(f"max_size must be between 2 and 4, got {max_size}")
    if not (math.isfinite(budget) and budget > 0):
        raise ValueError(f"budget must be a positive number of seconds, got {budget}")
    satisfy = list(satisfy)
    deadline = time.monotonic() + budget
    stats = SearchStats()
    with_u = _needs_u(satisfy + ([violate] if violate else []))

    for size in range(2, max_size + 1):
        order = (
            [("and", i, j) for i in range(size) for j in range(size)]
            + [("or", i, j) for i in range(size) for j in range(size)]
            + [("neg", i) for i in range(size)]
            + [("T",), ("F",)]
            + ([("U",)] if with_u else [])
        )
        must = _instances(satisfy, size)
        wanted = _instances([violate], size) if violate else None
        result = _search(0, order, size, {}, must, wanted, stats, deadline)
        if result == "timeout":
            return FindResult("timeout", None, stats)
        if result is not None:
            return FindResult("model", result, stats)
        stats.sizes_done.append(size)
    return FindResult("exhausted", None, stats)


def _broken(instances, cells) -> bool:
    """Whether some ground instance has both sides determined and unequal."""
    for lhs, rhs, env in instances:
        l = _partial_eval(lhs, env, cells)
        r = _partial_eval(rhs, env, cells)
        if l is not None and r is not None and l != r:
            return True
    return False


def _search(k: int, order, size: int, cells: dict, must, wanted, stats, deadline):
    """Assign cells order[k:] depth first: a model, None, or "timeout"."""
    if time.monotonic() > deadline:
        return "timeout"
    if k == len(order):
        if wanted is not None and not _broken(wanted, cells):
            return None
        return FiniteModel(
            size,
            tuple(tuple(cells[("and", i, j)] for j in range(size)) for i in range(size)),
            tuple(tuple(cells[("or", i, j)] for j in range(size)) for i in range(size)),
            tuple(cells[("neg", i)] for i in range(size)),
            cells[("T",)],
            cells[("F",)],
            cells.get(("U",)),
        )
    for v in range(size):
        cells[order[k]] = v
        stats.nodes += 1
        if not _broken(must, cells):
            found = _search(k + 1, order, size, cells, must, wanted, stats, deadline)
            if found is not None:
                del cells[order[k]]
                return found
        else:
            stats.pruned += 1
    del cells[order[k]]
    return None


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
