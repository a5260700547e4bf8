"""Binary evaluation trees with leaf substitution and rendering.

An evaluation tree is the semantic value of a left-sequential expression:
internal nodes are labelled with atoms, the left child is taken when the
atom evaluates true, the right child when it evaluates false.  Leaves are
truth values T/F, the undefinedness marker U, or the placeholders D, D1, D2
used by tree decompositions.  For three-valued trees the middle (undefined)
branch is always the leaf U and is therefore not stored.
"""

from __future__ import annotations

import json
from typing import Iterator

from . import tables
from .syntax import Atom

LEAF_KINDS = ("T", "F", "U", "D", "D1", "D2")

# repr stops after this many lines of the ascii rendering: an error report
# may repr a tree whose rendering expands exponentially many paths.
_REPR_LINES = 50


class EvalTree:
    """Base class of Leaf and Node.

    Trees are immutable and hash-consed: a direct Leaf(...) or Node(...)
    call returns the object that leaf() or node() returns, so equality and
    hashing are object identity, inherited from object.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        """The ascii rendering on one line, cut after _REPR_LINES lines."""
        lines: list[str] = []
        stack: list[tuple[EvalTree, int]] = [(self, 0)]
        while stack and len(lines) < _REPR_LINES:
            t, indent = stack.pop()
            if isinstance(t, Leaf):
                lines.append("  " * indent + t.kind)
            else:
                lines.append("  " * indent + t.atom)
                stack.append((t.right, indent + 1))
                stack.append((t.left, indent + 1))
        if stack:
            lines.append("...")
        return " ".join(lines)


class Leaf(EvalTree):
    __slots__ = ("kind", "_kinds")
    kind: str

    def __new__(cls, kind: str) -> Leaf:
        return leaf(kind)

    def __reduce__(self):
        return leaf, (self.kind,)


class Node(EvalTree):
    __slots__ = ("atom", "left", "right", "_kinds")
    atom: str
    left: EvalTree
    right: EvalTree

    def __new__(cls, atom: str, left: EvalTree, right: EvalTree) -> Node:
        return node(atom, left, right)

    def __reduce__(self):
        return node, (self.atom, self.left, self.right)


_set = object.__setattr__


def _new_leaf(kind: str) -> Leaf:
    t = object.__new__(Leaf)
    _set(t, "kind", kind)
    return t


# Trees are hash-consed through these unique tables, so equal trees are
# always the same object and share all their subtrees.  Equality is
# identity, so build trees only through node()/leaf().
_LEAVES = {kind: _new_leaf(kind) for kind in LEAF_KINDS}
_NODES: dict[tuple, Node] = tables.unique()

TRUE = _LEAVES["T"]
FALSE = _LEAVES["F"]
UNDEF = _LEAVES["U"]
HOLE = _LEAVES["D"]
HOLE1 = _LEAVES["D1"]
HOLE2 = _LEAVES["D2"]


def leaf(kind: str) -> Leaf:
    try:
        return _LEAVES[kind]
    except KeyError:
        raise ValueError(f"unknown leaf kind {kind!r}") from None


def node(atom: str, left: EvalTree, right: EvalTree) -> Node:
    key = (atom, left, right)
    t = _NODES.get(key)
    if t is None:
        t = object.__new__(Node)
        _set(t, "atom", atom)
        _set(t, "left", left)
        _set(t, "right", right)
        _NODES[key] = t
    return t


# subst's computed table, keyed by (subtree, kt, kf) for every internal node
# a substitution visits, so a subtree shared between calls is walked once.
_SUBST_CACHE: dict[tuple, EvalTree] = tables.computed()


def subst(x: EvalTree, kt: EvalTree, kf: EvalTree) -> EvalTree:
    """x with its T leaves replaced by kt and its F leaves by kf; other kinds stay."""
    if type(x) is Leaf:
        return kt if x is TRUE else kf if x is FALSE else x
    key = (x, kt, kf)
    r = _SUBST_CACHE.get(key)
    if r is None:
        r = _SUBST_CACHE[key] = node(x.atom, subst(x.left, kt, kf), subst(x.right, kt, kf))
    return r


def depth(x: EvalTree) -> int:
    memo: dict[EvalTree, int] = {}

    def go(t: EvalTree) -> int:
        d = memo.get(t)
        if d is None:
            d = 0 if isinstance(t, Leaf) else 1 + max(go(t.left), go(t.right))
            memo[t] = d
        return d

    return go(x)


def leaf_kinds(x: EvalTree) -> frozenset[str]:
    """The exact set of leaf kinds occurring in x (cached on the tree)."""
    ks = getattr(x, "_kinds", None)
    if ks is None:
        if isinstance(x, Leaf):
            ks = frozenset((x.kind,))
        else:
            ks = leaf_kinds(x.left) | leaf_kinds(x.right)
        _set(x, "_kinds", ks)
    return ks


def iter_subtrees(x: EvalTree) -> Iterator[EvalTree]:
    """All distinct subtrees of x, children before parents."""
    seen: set[EvalTree] = set()

    def go(t: EvalTree) -> Iterator[EvalTree]:
        if t in seen:
            return
        seen.add(t)
        if isinstance(t, Node):
            yield from go(t.left)
            yield from go(t.right)
        yield t

    yield from go(x)


def tree_to_json(x: EvalTree) -> dict:
    if isinstance(x, Leaf):
        return {"leaf": x.kind}
    return {
        "atom": x.atom,
        "left": tree_to_json(x.left),
        "right": tree_to_json(x.right),
    }


def tree_from_json(data) -> EvalTree:
    """Read back tree_to_json's form, or its JSON text; ValueError if malformed."""
    if isinstance(data, str):
        data = json.loads(data)

    def go(d) -> EvalTree:
        if not isinstance(d, dict):
            raise ValueError("tree JSON must be an object")
        if "leaf" in d:
            kind = d["leaf"]
            if not isinstance(kind, str):
                raise ValueError(f"unknown leaf kind {kind!r}")
            return leaf(kind)
        if "atom" in d:
            atom = d["atom"]
            if not isinstance(atom, str):
                raise ValueError(f"invalid atom name {atom!r}")
            Atom(atom)  # ValueError unless atom names an atom
            if "left" not in d or "right" not in d:
                raise ValueError("tree JSON node needs 'left' and 'right' keys")
            return node(atom, go(d["left"]), go(d["right"]))
        raise ValueError("tree JSON object needs a 'leaf' or 'atom' key")

    return go(data)


def render(x: EvalTree, format: str = "ascii", middle_u: bool = False) -> str:
    """Render a tree as indented ascii, graphviz dot, or json.

    With middle_u the ascii form also shows the implicit undefined branch
    of every node, which is always the leaf U.
    """
    if format == "json":
        return json.dumps(tree_to_json(x))
    if format == "dot":
        lines = ["digraph evaltree {"]
        counter = 0

        def go(t: EvalTree) -> int:
            nonlocal counter
            me = counter
            counter += 1
            label = t.kind if isinstance(t, Leaf) else t.atom
            lines.append(f'  n{me} [label="{label}"];')
            if isinstance(t, Node):
                lines.append(f'  n{me} -> n{go(t.left)} [label="L"];')
                lines.append(f'  n{me} -> n{go(t.right)} [label="R"];')
            return me

        go(x)
        lines.append("}")
        return "\n".join(lines)
    if format == "ascii":
        lines: list[str] = []

        def go(t: EvalTree, indent: int) -> None:
            pad = "  " * indent
            if isinstance(t, Leaf):
                lines.append(pad + t.kind)
            else:
                lines.append(pad + t.atom)
                go(t.left, indent + 1)
                if middle_u:
                    lines.append("  " * (indent + 1) + "U")
                go(t.right, indent + 1)

        go(x, 0)
        return "\n".join(lines)
    raise ValueError(f"unknown render format {format!r}")
