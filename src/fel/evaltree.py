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
from .syntax import _ATOM_RE
from .tables import Interned, fold

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
    __slots__ = ("kind",)
    kind: str

    def __new__(cls, kind: str) -> Leaf:
        if kind not in LEAF_KINDS:
            raise ValueError(f"unknown leaf kind {kind!r}")
        return super().__new__(cls, kind)


class Node(EvalTree):
    __slots__ = ("atom", "left", "right")
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


# subst's computed table: for each (kt, kf), the fold table of that
# substitution, seeded with {TRUE: kt, FALSE: kf}, so a subtree shared
# between calls is substituted once.
_SUBST_CACHE: dict[tuple, dict] = tables.computed()


def subst(x: EvalTree, kt: EvalTree, kf: EvalTree) -> EvalTree:
    """x with its T leaves replaced by kt and its F leaves by kf; other kinds stay."""
    done = _SUBST_CACHE.get((kt, kf))
    if done is None:
        done = _SUBST_CACHE[kt, kf] = {TRUE: kt, FALSE: kf}
    r = done.get(x)
    if r is None:
        r = fold(x, REBUILD, "an evaluation tree", done)
    return r


# Clause tables of tables.fold over trees.  REBUILD builds a tree back, so a
# fold that starts from replacements for some subtrees substitutes them.
REBUILD = {Leaf: lambda x: x, Node: lambda x, l, r: node(x.atom, l, r)}
DEPTH = {Leaf: lambda x: 0, Node: lambda x, l, r: 1 + max(l, r)}
TO_JSON = {
    Leaf: lambda x: {"leaf": x.kind},
    Node: lambda x, l, r: {"atom": x.atom, "left": l, "right": r},
}


def depth(x: EvalTree) -> int:
    """The number of nodes on x's longest path."""
    return fold(x, DEPTH, "an evaluation tree")


_KINDS_CACHE: dict[EvalTree, frozenset[str]] = tables.computed()

# leaf_kinds' clauses for tables.fold.
KINDS = {Leaf: lambda x: frozenset((x.kind,)), Node: lambda x, l, r: l | r}


def leaf_kinds(x: EvalTree) -> frozenset[str]:
    """The exact set of leaf kinds occurring in x."""
    r = _KINDS_CACHE.get(x)
    if r is None:
        r = fold(x, KINDS, "an evaluation tree", _KINDS_CACHE)
    return r


def iter_subtrees(x: EvalTree) -> Iterator[EvalTree]:
    """All distinct subtrees of x, children before parents, left before right."""
    done: dict[EvalTree, int] = {}
    fold(x, DEPTH, "an evaluation tree", done)  # records each subtree in that order
    return iter(done)


def spine(x: EvalTree) -> tuple[tuple[str, ...], Leaf]:
    """The labels down x's left spine, and the leaf it ends in.

    A memorised tree reads its whole atom order down every path, and the
    full evaluation tree of a term with U has only U leaves (U aborts), so
    the spine tells a perfect tree's atom order and whether a term has U.
    """
    labels = []
    while type(x) is Node:
        labels.append(x.atom)
        x = x.left
    return tuple(labels), x


def tree_to_json(x: EvalTree) -> dict:
    """x as nested objects; a subtree that x shares is one shared object."""
    return fold(x, TO_JSON, "an evaluation tree")


def tree_from_json(data) -> EvalTree:
    """Read back tree_to_json's form, or its JSON text; ValueError if malformed."""
    try:
        if isinstance(data, str):
            data = json.loads(data)
        return _from_json(data)
    except RecursionError:
        raise ValueError("input nested too deeply") from None


def _from_json(d) -> EvalTree:
    if not isinstance(d, dict):
        raise ValueError("tree JSON must be an object")
    if "leaf" in d:
        return leaf(d["leaf"])  # ValueError unless it names a leaf kind
    if "atom" in d:
        atom = d["atom"]
        if not isinstance(atom, str) or not _ATOM_RE.match(atom):
            raise ValueError(f"invalid atom name {atom!r}")
        if "left" not in d or "right" not in d:
            raise ValueError("tree JSON node needs 'left' and 'right' keys")
        return node(atom, _from_json(d["left"]), _from_json(d["right"]))
    raise ValueError("tree JSON object needs a 'leaf' or 'atom' key")


# render refuses a tree that expands past this many nodes.  Every format
# prints each path of the DAG apart, so a tree of a few nodes may render
# exponentially large: the ffel tree of a chain of 30 a's has 2^31 - 1.
MAX_RENDER_NODES = 2**20
# render's clauses for tables.fold: the nodes of x with no subtree shared.
EXPANDED = {Leaf: lambda x: 1, Node: lambda x, l, r: 1 + l + r}


def render(x: EvalTree, format: str = "ascii", middle_u: bool = False) -> str:
    """Render a tree as indented ascii, graphviz dot, or json.

    With middle_u the ascii form also shows the implicit undefined branch
    of every node, which is always the leaf U.  A tree of more than
    MAX_RENDER_NODES nodes, counted with no subtree shared, raises
    ValueError before any format runs.
    """
    size = fold(x, EXPANDED, "an evaluation tree")
    if size > MAX_RENDER_NODES:
        raise ValueError(f"tree too large to render: {size} nodes, at most {MAX_RENDER_NODES}")
    if format == "json":
        try:
            return json.dumps(tree_to_json(x))
        except RecursionError:  # json.dumps recurses once per level
            raise ValueError("input nested too deeply") from None
    if format == "dot":
        return "\n".join(["digraph evaltree {", *_dot(x), "}"])
    if format == "ascii":
        return "\n".join(_ascii(x, middle_u))
    raise ValueError(f"unknown render format {format!r}")


def _dot(x: EvalTree) -> Iterator[str]:
    """The dot lines of x, its nodes numbered in preorder, read by a loop.

    A node's edge line follows the lines of the subtree it points to.
    """
    ids = itertools.count()
    stack: list = [(x, None, None)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            yield item
            continue
        t, parent, side = item
        me = next(ids)
        yield f'  n{me} [label="{t.kind if isinstance(t, Leaf) else t.atom}"];'
        if parent is not None:
            stack.append(f'  n{parent} -> n{me} [label="{side}"];')
        if isinstance(t, Node):
            stack += [(t.right, me, "R"), (t.left, me, "L")]


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
