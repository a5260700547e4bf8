"""Expression AST, parser, printer, and small syntactic transforms.

Concrete syntax: `&` is full and, `|` is full or (both evaluate their right
argument no matter what the left yielded), `!` is negation and binds
tightest, `T`/`F`/`U` are the constants.  `&` binds tighter than `|`, both
are left-associative.  Atoms match [a-z][a-z0-9_]*.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from .tables import Interned

_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


class Expr(Interned):
    """Base class of all expression nodes."""
    __slots__ = ()

    def __repr__(self):
        return f"<expr {print_expr(self)}>"


class Atom(Expr):
    __slots__ = ("name",)
    name: str

    def __new__(cls, name: str) -> Atom:
        e = cls._table.get((name,))
        if e is None:
            if not _ATOM_RE.match(name):
                raise ValueError(f"invalid atom name {name!r}")
            e = super().__new__(cls, name)
        return e


class ConstT(Expr):
    __slots__ = ()


class ConstF(Expr):
    __slots__ = ()


class ConstU(Expr):
    __slots__ = ()


class Not(Expr):
    __slots__ = ("operand",)
    operand: Expr


class FullAnd(Expr):
    __slots__ = ("left", "right")
    left: Expr
    right: Expr


class FullOr(Expr):
    __slots__ = ("left", "right")
    left: Expr
    right: Expr


class Var(Expr):
    """Metavariable of an open term (used by the axioms module only)."""

    __slots__ = ("name",)
    name: str


TRUE = ConstT()
FALSE = ConstF()
UNDEF = ConstU()

mk_atom = Atom
mk_not = Not
mk_and = FullAnd
mk_or = FullOr


class ParseError(ValueError):
    def __init__(self, offset: int, expected: Iterable[str]):
        self.offset = offset
        self.expected = sorted(set(expected))
        super().__init__(
            f"syntax error at byte {offset}: expected {', '.join(self.expected)}"
        )


_TOKEN_RE = re.compile(r"\s*(?:([a-z][a-z0-9_]*)|([TFU])|([&|!()])|(\S))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
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
    return tokens


def parse(text: str) -> Expr:
    """Parse concrete syntax into an Expr; ParseError carries byte offset.

    A recursive descent over (tokens, position) by module-level functions,
    one Python frame or more per nesting level, so input nested past the
    recursion limit raises ValueError; no call leaves a reference cycle.
    """
    tokens = _tokenize(text)
    try:
        e, i = _expr(tokens, 0)
    except RecursionError:
        raise ValueError("input nested too deeply") from None
    kind, _, at = tokens[i]
    if kind != "end":
        raise ParseError(at, ["'&'", "'|'", "end of input"])
    return e


# Each takes the tokens and a position and returns (expression, next position).
def _expr(tokens, i):
    e, i = _conjunction(tokens, i)
    while tokens[i][0] == "|":
        r, i = _conjunction(tokens, i + 1)
        e = mk_or(e, r)
    return e, i


def _conjunction(tokens, i):
    e, i = _unary(tokens, i)
    while tokens[i][0] == "&":
        r, i = _unary(tokens, i + 1)
        e = mk_and(e, r)
    return e, i


def _unary(tokens, i):
    if tokens[i][0] == "!":
        e, i = _unary(tokens, i + 1)
        return mk_not(e), i
    return _primary(tokens, i)


def _primary(tokens, i):
    kind, value, at = tokens[i]
    if kind == "atom":
        return mk_atom(value), i + 1
    if kind == "const":
        return {"T": TRUE, "F": FALSE, "U": UNDEF}[value], i + 1
    if kind == "(":
        e, i = _expr(tokens, i + 1)
        kind2, _, at2 = tokens[i]
        if kind2 != ")":
            raise ParseError(at2, ["')'", "'&'", "'|'"])
        return e, i + 1
    raise ParseError(at, ["'T'", "'F'", "'U'", "an atom", "'!'", "'('"])


# Each class's spelling for print_term: a constant's text, None for a class
# printed by its name, or a connective's (operator, precedence).
SPELLING = {
    Atom: None, Var: None, ConstT: "T", ConstF: "F", ConstU: "U",
    Not: ("!", 3), FullAnd: (" & ", 2), FullOr: (" | ", 1),
}


def print_expr(e: Expr, fully_parenthesized: bool = False) -> str:
    """Print with minimal parentheses; parse(print_expr(e)) == e."""
    return print_term(e, SPELLING, "an expression", fully_parenthesized)


def print_term(e: Interned, spelling: dict, what: str, fully_parenthesized: bool) -> str:
    """Print e by its classes' spelling, with minimal parentheses.

    A binary connective of precedence p is left-associative, and a unary
    one a prefix.  An explicit stack of pending operands and texts replaces
    recursion, so any depth prints; TypeError names what e should be.
    """
    out = []
    stack: list = [(e, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        t, need = item
        try:
            s = spelling[type(t)]
        except KeyError:
            raise TypeError(f"not {what}: {t!r}") from None
        if s is None:
            out.append(t.name)
        elif type(s) is str:
            out.append(s)
        else:
            op, p = s
            unary = len(t._fields) == 1
            paren = p < need or (fully_parenthesized and not unary)
            if paren:
                stack.append(")")
            if unary:
                stack += [(t.operand, p), op]
            else:
                stack += [(t.right, p + 1), op, (t.left, p)]
            if paren:
                stack.append("(")
    return "".join(out)


def _leaves(e: Expr) -> list[Expr]:
    """The distinct atoms, constants and variables of e, left to right.

    Each distinct binary subterm is visited once, so the walk is linear in
    the size of the expression DAG (an h-nest over n atoms prints to about
    2^n atoms) and needs no recursion.  A subterm seen before holds only
    leaves seen before, so skipping it keeps first-occurrence order.
    """
    seen: set[Expr] = set()
    out = []
    stack = [e]
    while stack:
        t = stack.pop()
        cls = type(t)
        if cls is FullAnd or cls is FullOr:
            if t not in seen:
                seen.add(t)
                stack.append(t.right)
                stack.append(t.left)
        elif cls is Not:
            stack.append(t.operand)
        elif t not in seen:
            seen.add(t)
            out.append(t)
    return out


def _names(leaves: list[Expr]) -> tuple[str, ...]:
    """The atom names among leaves; TypeError if one is a variable."""
    names = []
    for t in leaves:
        if type(t) is Atom:
            names.append(t.name)
        elif type(t) not in (ConstT, ConstF, ConstU):
            raise TypeError(f"not a closed expression: {t!r}")
    return tuple(names)


def atoms_of(e: Expr) -> tuple[str, ...]:
    """The atom names of e in first-occurrence order, left to right."""
    return _names(_leaves(e))


def atoms_until_u(e: Expr) -> tuple[tuple[str, ...], bool]:
    """The atoms of e whose first occurrence is left of its leftmost U, if
    any, and whether e has a U: one walk reads both."""
    leaves = _leaves(e)
    names = _names(leaves)  # TypeError unless e is closed
    if UNDEF not in leaves:
        return names, False
    return _names(leaves[: leaves.index(UNDEF)]), True


def atoms_before_u(e: Expr) -> tuple[str, ...]:
    """The atoms of e whose first occurrence is left of its leftmost U."""
    return atoms_until_u(e)[0]


def alphabet(e: Expr) -> set[str]:
    """The set of atoms occurring in e."""
    return set(atoms_of(e))


def contains_u(e: Expr) -> bool:
    # The walk of _leaves, stopping at the first U: evaluate runs it once
    # per call, over the whole term when the term has no U.
    seen: set[Expr] = set()
    stack = [e]
    while stack:
        t = stack.pop()
        cls = type(t)
        if cls is FullAnd or cls is FullOr:
            if t not in seen:
                seen.add(t)
                stack.append(t.right)
                stack.append(t.left)
        elif cls is Not:
            stack.append(t.operand)
        elif cls is ConstU:
            return True
    return False


def seq_filter(sigma, rho) -> str:
    """Append to sigma the atoms of rho that sigma does not already have."""
    out = list(sigma)
    have = set(out)
    for a in rho:
        if a not in have:
            out.append(a)
            have.add(a)
    return "".join(out)


def str_of(e: Expr) -> str:
    """First-occurrence atom string of e, left to right, no repeats."""
    return "".join(atoms_of(e))


def nnf(e: Expr) -> Expr:
    """Push negations down to atoms; !U stays U, !!P collapses."""
    if isinstance(e, (Atom, ConstT, ConstF, ConstU)):
        return e
    if isinstance(e, FullAnd):
        return mk_and(nnf(e.left), nnf(e.right))
    if isinstance(e, FullOr):
        return mk_or(nnf(e.left), nnf(e.right))
    if isinstance(e, Not):
        q = e.operand
        if isinstance(q, Atom):
            return mk_not(q)
        if isinstance(q, ConstT):
            return FALSE
        if isinstance(q, ConstF):
            return TRUE
        if isinstance(q, ConstU):
            return UNDEF
        if isinstance(q, Not):
            return nnf(q.operand)
        if isinstance(q, FullAnd):
            return mk_or(nnf(mk_not(q.left)), nnf(mk_not(q.right)))
        if isinstance(q, FullOr):
            return mk_and(nnf(mk_not(q.left)), nnf(mk_not(q.right)))
    raise TypeError(f"not a closed expression: {e!r}")


def dual(e: Expr) -> Expr:
    """Swap & with | and T with F; atoms, variables, !, U are self-dual."""
    if isinstance(e, (Atom, Var, ConstU)):
        return e
    if isinstance(e, ConstT):
        return FALSE
    if isinstance(e, ConstF):
        return TRUE
    if isinstance(e, Not):
        return mk_not(dual(e.operand))
    if isinstance(e, FullAnd):
        return mk_or(dual(e.left), dual(e.right))
    if isinstance(e, FullOr):
        return mk_and(dual(e.left), dual(e.right))
    raise TypeError(f"not a closed expression: {e!r}")
