"""Every module-level table of fel, made and recorded here as a plain dict.

A unique table maps the fields of a hash-consed tree or expression to the
one object with those fields; each Interned class makes its own.  A
computed table maps an operation's arguments to its result; computed()
makes one.  reset() never drops a unique entry whose object is live, or an
equal object built later would compare unequal to it.
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
