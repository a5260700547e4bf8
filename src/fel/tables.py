"""Every module-level table of fel, made and recorded here as a plain dict.

A unique table maps the fields of a hash-consed tree or expression to the
one object with those fields; each Interned class makes its own.  A
computed table maps an operation's arguments to its result; computed()
makes one.  reset() never drops a unique entry whose object is live, or an
equal object built later would compare unequal to it.  fold() is the one
structural recursion over the hash-consed terms and trees, run as a loop:
apart from the evaluators (semantics' full evaluator under fe_u, fe_open
and se, its perfect tree, the fnf algebra), every walk over their DAGs is
a fold, the atom walks, memo and the finite models' compiler included.
"""

from __future__ import annotations

import sys

_COMPUTED: list[dict] = []
_UNIQUE: list[dict] = []
_set = object.__setattr__


class Interned:
    """Base class of evaltree's trees, Expr and scl.SclExpr: immutable and hash-consed.

    Each class keeps a unique table keyed by the tuple of its fields, its
    slots without a leading underscore, and __new__ returns the one object
    with those fields, so equality is identity.
    """

    __slots__ = ()
    _table: dict[tuple, Interned]

    def __init_subclass__(cls):
        cls._table = {}
        _UNIQUE.append(cls._table)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # fold's subterm fields: left and right, or operand, or none.
        cls._arity = 2 if "right" in cls._fields else 1 if "operand" in cls._fields else 0

    def __new__(cls, *fields):
        e = cls._table.get(fields)
        if e is None:
            if len(fields) != len(cls._fields):
                raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields")
            e = object.__new__(cls)
            for name, value in zip(cls._fields, fields):
                _set(e, name, value)
            cls._table[fields] = e
        return e

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


def fold(root: Interned, clauses: dict, what: str, done: dict | None = None):
    """root's value under a structural recursion, computed by a loop.

    clauses maps a class to its clause, which gets a term t of that class
    and the values of t's subterm fields: operand, or left and right.
    Each distinct subterm of root's DAG is valued once, children first and
    left to right, from an explicit stack, so a term of any depth folds.
    done, if given, holds known values: a subterm found there is not
    entered, and every value computed is added to it.  A class without a
    clause raises TypeError naming what root should be.  A node waiting
    for its children goes back on the stack under them, so it is met again
    once they are valued.
    """
    if done is None:
        done = {}
    stack = [root]
    pop = stack.pop
    while stack:
        t = pop()
        if t in done:
            continue
        clause = clauses.get(type(t))
        if clause is None:
            raise TypeError(f"not {what}: {t!r}")
        arity = t._arity
        if arity == 2:
            left, right = t.left, t.right
            if left in done and right in done:
                done[t] = clause(t, done[left], done[right])
            else:
                stack += (t, right, left)
        elif arity == 1:
            operand = t.operand
            if operand in done:
                done[t] = clause(t, done[operand])
            else:
                stack += (t, operand)
        else:
            done[t] = clause(t)
    return done[root]


def computed() -> dict:
    """A new computed table, emptied by reset()."""
    _COMPUTED.append({})
    return _COMPUTED[-1]


def reset() -> None:
    """Empty every computed table and free every object nothing else holds."""
    for table in _COMPUTED:
        table.clear()
    # Trees, expressions and the walks over them form no reference cycles,
    # so reference counts alone tell what is held: no cyclic collection.
    # An object is built after its parts, so a table popped newest first
    # meets a parent before its children, and a child that only the parent
    # held is dropped later in the same pass.  Tables refer to each other,
    # so passes repeat until one drops nothing.
    dropped = True
    while dropped:
        dropped = False
        for table in _UNIQUE:
            keys = list(table)
            while keys:
                key = keys.pop()
                # Held only by the table and getrefcount's argument.
                if sys.getrefcount(table[key]) <= 2:
                    del table[key]
                    dropped = True
    # A dict keeps its peak storage when emptied by deletion; rebuilt, it
    # takes only what the live entries need.
    for table in _UNIQUE:
        live = dict(table)
        table.clear()
        table.update(live)
