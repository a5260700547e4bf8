"""Every module-level table of fel, made and recorded here as a plain dict.

A unique table maps the fields of a hash-consed tree or expression to the
one object with those fields; a computed table maps an operation's
arguments to its result.  reset() never drops a unique entry whose object
is live, or an equal object built later would compare unequal to it.
"""

import sys

_COMPUTED: list[dict] = []
_UNIQUE: list[dict] = []


def computed() -> dict:
    """A new computed table, emptied by reset()."""
    _COMPUTED.append({})
    return _COMPUTED[-1]


def unique() -> dict:
    """A new unique table, whose unheld entries reset() drops."""
    _UNIQUE.append({})
    return _UNIQUE[-1]


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
