"""Binary evaluation trees with leaf substitution and rendering.

An evaluation tree is the semantic value of a left-sequential expression:
internal nodes are labelled with atoms, the left child is taken when the
atom evaluates true, the right child when it evaluates false.  Leaves are
truth values T/F, the undefinedness marker U, or the placeholders D, D1, D2
used by tree decompositions.  For three-valued trees the middle (undefined)
branch is always the leaf U and is therefore not stored.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterator

from . import tables
from .syntax import Atom
from .tables import Interned

LEAF_KINDS = ("T", "F", "U", "D", "D1", "D2")

# repr stops after this many lines of the ascii rendering: an error report
# may repr a tree whose rendering expands exponentially many paths.
_REPR_LINES = 50


class EvalTree(Interned):
    """Base class of Leaf and Node.

    Trees are interned (tables.Interned): Node(...) and node() return the
    one tree with the given fields, so equality and hashing are object
    identity, inherited from object.
    """

    __slots__ = ()

    def __repr__(self):
        """The ascii rendering on one line, cut after _REPR_LINES lines."""
        lines = list(itertools.islice(_ascii(self, False), _REPR_LINES + 1))
        if len(lines) > _REPR_LINES:
            lines[-1] = "..."
        return " ".join(lines)


class Leaf(EvalTree):
    __slots__ = ("kind", "_kinds")
    kind: str

    def __new__(cls, kind: str) -> Leaf:
        if kind not in LEAF_KINDS:
            raise ValueError(f"unknown leaf kind {kind!r}")
        return super().__new__(cls, kind)


class Node(EvalTree):
    __slots__ = ("atom", "left", "right", "_kinds")
    atom: str
    left: EvalTree
    right: EvalTree


leaf = Leaf
TRUE, FALSE, UNDEF, HOLE, HOLE1, HOLE2 = map(Leaf, LEAF_KINDS)

# Equal trees are always the same object and share all their subtrees.
# node() is the hot constructor: it builds over Node's unique table itself.
_NODES: dict[tuple, Node] = Node._table
_set = object.__setattr__


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
    """The number of nodes on x's longest path, read by a loop."""
    done: dict[EvalTree, int] = {}
    stack = [x]
    while stack:
        t = stack[-1]
        if isinstance(t, Leaf):
            done[t] = 0
        else:
            left, right = done.get(t.left), done.get(t.right)
            if left is None or right is None:
                stack += [c for c in (t.right, t.left) if c not in done]
                continue
            done[t] = 1 + max(left, right)
        stack.pop()
    return done[x]


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
    """All distinct subtrees of x, children before parents, left before right."""
    seen: set[EvalTree] = set()
    stack: list[tuple[EvalTree, bool]] = [(x, False)]
    while stack:
        t, children_done = stack.pop()
        if children_done:
            yield t
        elif t not in seen:
            seen.add(t)
            stack.append((t, True))
            if isinstance(t, Node):
                stack.append((t.right, False))
                stack.append((t.left, False))


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
    return _from_json(data)


def _from_json(d) -> EvalTree:
    if not isinstance(d, dict):
        raise ValueError("tree JSON must be an object")
    if "leaf" in d:
        return leaf(d["leaf"])  # ValueError unless it names a leaf kind
    if "atom" in d:
        atom = d["atom"]
        if not isinstance(atom, str):
            raise ValueError(f"invalid atom name {atom!r}")
        Atom(atom)  # ValueError unless atom names an atom
        if "left" not in d or "right" not in d:
            raise ValueError("tree JSON node needs 'left' and 'right' keys")
        return node(atom, _from_json(d["left"]), _from_json(d["right"]))
    raise ValueError("tree JSON object needs a 'leaf' or 'atom' key")


def render(x: EvalTree, format: str = "ascii", middle_u: bool = False) -> str:
    """Render a tree as indented ascii, graphviz dot, or json.

    With middle_u the ascii form also shows the implicit undefined branch
    of every node, which is always the leaf U.
    """
    if format == "json":
        return json.dumps(tree_to_json(x))
    if format == "dot":
        lines = ["digraph evaltree {"]
        _dot(x, lines, itertools.count())
        lines.append("}")
        return "\n".join(lines)
    if format == "ascii":
        return "\n".join(_ascii(x, middle_u))
    raise ValueError(f"unknown render format {format!r}")


def _dot(t: EvalTree, lines: list[str], ids) -> int:
    """Append the dot lines of t, numbering its nodes from ids; t's number."""
    me = next(ids)
    label = t.kind if isinstance(t, Leaf) else t.atom
    lines.append(f'  n{me} [label="{label}"];')
    if isinstance(t, Node):
        lines.append(f'  n{me} -> n{_dot(t.left, lines, ids)} [label="L"];')
        lines.append(f'  n{me} -> n{_dot(t.right, lines, ids)} [label="R"];')
    return me


def _ascii(x: EvalTree, middle_u: bool) -> Iterator[str]:
    """The lines of x's ascii rendering, in order, read by a loop."""
    stack: list[tuple[EvalTree, int]] = [(x, 0)]
    while stack:
        t, indent = stack.pop()
        if isinstance(t, Leaf):
            yield "  " * indent + t.kind
        else:
            yield "  " * indent + t.atom
            stack.append((t.right, indent + 1))
            if middle_u:
                stack.append((UNDEF, indent + 1))
            stack.append((t.left, indent + 1))
