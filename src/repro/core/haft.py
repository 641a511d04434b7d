"""Half-full trees (hafts) — Section 4 of the paper.

A *half-full tree* (haft) is a rooted binary tree in which every internal
node ``v``

* has exactly two children, and
* the left child of ``v`` roots a **complete** binary subtree containing half
  or more of ``v``'s leaf descendants.

Lemma 1 of the paper shows that for every positive ``l`` there is a single
haft with ``l`` leaves — ``haft(l)`` — whose shape mirrors the binary
representation of ``l``:  writing ``l = 2^{x_1} + ... + 2^{x_h}`` with
``x_1 > ... > x_h``, ``haft(l)`` is the chain of complete trees
``T_1, ..., T_h`` (``T_i`` has ``2^{x_i}`` leaves) glued together by ``h - 1``
extra internal nodes, and its depth is ``ceil(log2 l)``.

Two operations are defined on hafts (Section 4.1):

``strip``
    remove the ``h - 1`` glue nodes, leaving the forest of complete trees
    rooted at the *primary roots*;

``merge``
    combine several hafts into one, which behaves exactly like binary
    addition of their leaf counts (Figure 5).

This module implements the pure mathematical structure.  The Forgiving Graph
itself uses the same operations over *reconstruction trees*
(:mod:`repro.core.reconstruction_tree`), whose internal nodes carry extra
bookkeeping (simulating processor, representative); the structural logic is
shared through the free functions below, which only require ``left`` /
``right`` / ``parent`` attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional, Sequence

from .errors import HaftStructureError

__all__ = [
    "HaftNode",
    "build_haft",
    "leaves",
    "iter_nodes",
    "leaf_count",
    "depth",
    "is_complete",
    "is_haft",
    "validate_haft",
    "primary_roots",
    "strip",
    "merge",
    "haft_shape_signature",
    "binary_decomposition",
]


@dataclass(eq=False)
class HaftNode:
    """A node of a half-full tree.

    Leaves carry a ``payload`` (any object supplied by the caller); internal
    nodes have ``payload is None`` by default.  ``height`` and ``num_leaves``
    are maintained eagerly so that primary-root detection (Algorithm A.6 of
    the paper) is an O(1) local test, exactly as in the distributed protocol
    where every helper node knows its height and children count.
    """

    payload: Any = None
    left: Optional["HaftNode"] = None
    right: Optional["HaftNode"] = None
    parent: Optional["HaftNode"] = field(default=None, repr=False)
    height: int = 0
    num_leaves: int = 1

    # ------------------------------------------------------------------ #
    # basic structure queries
    # ------------------------------------------------------------------ #
    @property
    def is_leaf(self) -> bool:
        """True when the node has no children."""
        return self.left is None and self.right is None

    def recompute_from_children(self) -> None:
        """Refresh ``height`` and ``num_leaves`` from the current children."""
        if self.is_leaf:
            self.height = 0
            self.num_leaves = 1
            return
        children = [c for c in (self.left, self.right) if c is not None]
        self.height = 1 + max(c.height for c in children)
        self.num_leaves = sum(c.num_leaves for c in children)

    def attach_children(self, left: "HaftNode", right: "HaftNode") -> None:
        """Make ``left`` and ``right`` the children of this node and refresh counters."""
        self.left = left
        self.right = right
        left.parent = self
        right.parent = self
        self.recompute_from_children()

    def detach(self) -> None:
        """Disconnect this node from its parent (if any)."""
        parent = self.parent
        if parent is None:
            return
        if parent.left is self:
            parent.left = None
        if parent.right is self:
            parent.right = None
        self.parent = None

    def root(self) -> "HaftNode":
        """Return the root of the tree containing this node."""
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else "internal"
        return f"HaftNode({kind}, leaves={self.num_leaves}, h={self.height}, payload={self.payload!r})"


# ---------------------------------------------------------------------- #
# traversal helpers
# ---------------------------------------------------------------------- #
def iter_nodes(root: HaftNode) -> Iterator[HaftNode]:
    """Yield every node of the tree rooted at ``root`` in pre-order."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if node.right is not None:
            stack.append(node.right)
        if node.left is not None:
            stack.append(node.left)


def leaves(root: HaftNode) -> List[HaftNode]:
    """Return the leaves of the tree rooted at ``root`` in left-to-right order."""
    result: List[HaftNode] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            result.append(node)
            continue
        if node.right is not None:
            stack.append(node.right)
        if node.left is not None:
            stack.append(node.left)
    return result


def leaf_count(root: HaftNode) -> int:
    """Number of leaves below (and including) ``root``."""
    return len(leaves(root))


def depth(root: HaftNode) -> int:
    """Height of the tree rooted at ``root`` (a single leaf has depth 0)."""
    best = 0
    stack = [(root, 0)]
    while stack:
        node, d = stack.pop()
        if node.is_leaf:
            best = max(best, d)
            continue
        for child in (node.left, node.right):
            if child is not None:
                stack.append((child, d + 1))
    return best


# ---------------------------------------------------------------------- #
# structural predicates
# ---------------------------------------------------------------------- #
def is_complete(node: HaftNode) -> bool:
    """True when ``node`` roots a complete (perfect) binary subtree.

    A complete subtree of height ``h`` has exactly ``2^h`` leaves.  The test
    relies on the eagerly-maintained counters, mirroring the O(1) local test
    of Algorithm A.6 (``childrencount == 2^height``), but verifies the
    counters against the real structure, so it is safe to call on trees that
    may have been corrupted.
    """
    expected = 1 << node.height
    if node.num_leaves != expected:
        return False
    # verify the counters are truthful
    actual_leaves = 0
    stack = [(node, 0)]
    max_depth = 0
    min_depth: Optional[int] = None
    while stack:
        current, d = stack.pop()
        if current.is_leaf:
            actual_leaves += 1
            max_depth = max(max_depth, d)
            min_depth = d if min_depth is None else min(min_depth, d)
            continue
        if current.left is None or current.right is None:
            return False
        stack.append((current.left, d + 1))
        stack.append((current.right, d + 1))
    return actual_leaves == expected and max_depth == node.height and min_depth == node.height


def is_haft(root: HaftNode) -> bool:
    """True when the tree rooted at ``root`` satisfies the haft definition."""
    try:
        validate_haft(root)
    except HaftStructureError:
        return False
    return True


def validate_haft(root: HaftNode) -> None:
    """Raise :class:`HaftStructureError` unless ``root`` roots a valid haft.

    The check follows the definition in Section 4 of the paper: every
    internal node must have exactly two children, and its left child must
    root a complete subtree holding at least half of the node's leaves.  The
    cached ``height`` / ``num_leaves`` counters are verified as well.
    """
    for node in iter_nodes(root):
        if node.is_leaf:
            if node.height != 0 or node.num_leaves != 1:
                raise HaftStructureError(
                    f"leaf {node!r} has inconsistent counters "
                    f"(height={node.height}, num_leaves={node.num_leaves})"
                )
            continue
        if node.left is None or node.right is None:
            raise HaftStructureError(f"internal node {node!r} does not have two children")
        if node.left.parent is not node or node.right.parent is not node:
            raise HaftStructureError(f"parent pointers of children of {node!r} are broken")
        expected_leaves = node.left.num_leaves + node.right.num_leaves
        expected_height = 1 + max(node.left.height, node.right.height)
        if node.num_leaves != expected_leaves or node.height != expected_height:
            raise HaftStructureError(
                f"cached counters of {node!r} disagree with children "
                f"(expected leaves={expected_leaves}, height={expected_height})"
            )
        if not is_complete(node.left):
            raise HaftStructureError(f"left child of {node!r} is not a complete subtree")
        if 2 * node.left.num_leaves < node.num_leaves:
            raise HaftStructureError(
                f"left child of {node!r} holds fewer than half of the leaves "
                f"({node.left.num_leaves} of {node.num_leaves})"
            )


# ---------------------------------------------------------------------- #
# construction
# ---------------------------------------------------------------------- #
def binary_decomposition(l: int) -> List[int]:
    """Return the powers of two summing to ``l`` in descending order.

    ``binary_decomposition(13) == [8, 4, 1]`` — these are the sizes of the
    complete trees a haft over 13 leaves strips into (Lemma 1, part 2).
    """
    if l <= 0:
        raise ValueError(f"a haft must have a positive number of leaves, got {l}")
    powers: List[int] = []
    bit = 1 << (l.bit_length() - 1)
    while bit:
        if l & bit:
            powers.append(bit)
        bit >>= 1
    return powers


def _build_complete(payloads: Sequence[Any], factory: Callable[[], HaftNode]) -> HaftNode:
    """Build a complete binary tree whose leaves carry ``payloads`` (a power of two)."""
    nodes: List[HaftNode] = [HaftNode(payload=p) for p in payloads]
    while len(nodes) > 1:
        next_level: List[HaftNode] = []
        for i in range(0, len(nodes), 2):
            parent = factory()
            parent.attach_children(nodes[i], nodes[i + 1])
            next_level.append(parent)
        nodes = next_level
    return nodes[0]


def build_haft(
    payloads: Sequence[Any],
    internal_factory: Optional[Callable[[], HaftNode]] = None,
) -> HaftNode:
    """Build ``haft(l)`` over the given leaf payloads (left-to-right order).

    Parameters
    ----------
    payloads:
        One payload per leaf; ``len(payloads)`` must be positive.
    internal_factory:
        Callable producing fresh internal nodes.  Defaults to bare
        :class:`HaftNode` instances; the reconstruction-tree layer passes a
        factory that produces helper nodes bound to simulating processors.

    Returns
    -------
    HaftNode
        The root of the unique haft over ``len(payloads)`` leaves.
    """
    if len(payloads) == 0:
        raise ValueError("cannot build a haft with zero leaves")
    factory = internal_factory if internal_factory is not None else HaftNode
    sizes = binary_decomposition(len(payloads))
    # Build the complete trees T_1 (largest) ... T_h left-to-right over the payloads.
    complete: List[HaftNode] = []
    index = 0
    for size in sizes:
        complete.append(_build_complete(payloads[index : index + size], factory))
        index += size
    # Glue them right-to-left: the right spine of the haft descends through
    # ever-smaller complete trees (Figure 3(b)).
    root = complete[-1]
    for tree in reversed(complete[:-1]):
        glue = factory()
        glue.attach_children(tree, root)
        root = glue
    return root


# ---------------------------------------------------------------------- #
# strip / primary roots
# ---------------------------------------------------------------------- #
def primary_roots(root: HaftNode) -> List[HaftNode]:
    """Return the primary roots of the haft rooted at ``root``.

    A *primary root* is a node rooting a complete subtree whose parent (if
    any) does not root a complete subtree.  For ``haft(l)`` the primary roots
    are exactly the roots of the complete trees ``T_1 ... T_h`` corresponding
    to the 1-bits of ``l`` (Lemma 2), ordered here from largest to smallest.
    """
    result: List[HaftNode] = []
    node: Optional[HaftNode] = root
    while node is not None:
        if is_complete(node):
            result.append(node)
            break
        # By the haft definition the left child is complete, hence a primary
        # root; continue the walk down the right spine.
        if node.left is not None:
            result.append(node.left)
        node = node.right
    return result


def strip(root: HaftNode) -> List[HaftNode]:
    """Perform the Strip operation: detach and return the complete trees.

    The ``h - 1`` glue nodes on the right spine are removed (their parent and
    child pointers are cleared); the returned list contains the primary
    roots, largest first, each now the root of its own tree.
    """
    roots = primary_roots(root)
    for node in roots:
        node.detach()
    # Clear pointers of the removed glue nodes so they cannot leak structure.
    removed: List[HaftNode] = []
    node: Optional[HaftNode] = root
    while node is not None and node not in roots:
        nxt = node.right
        node.left = None
        node.right = None
        node.parent = None
        removed.append(node)
        node = nxt
    return roots


# ---------------------------------------------------------------------- #
# merge
# ---------------------------------------------------------------------- #
def merge(
    hafts: Sequence[HaftNode],
    internal_factory: Optional[Callable[[], HaftNode]] = None,
) -> HaftNode:
    """Merge several hafts into a single haft (Section 4.1.2, Figure 5).

    The operation is the tree analogue of adding the binary representations
    of the leaf counts:

    1. Strip every input haft into complete trees.
    2. Repeatedly combine two complete trees of equal size under a fresh
       internal node (a "carry"), keeping the work list sorted by size,
       until all sizes are distinct.
    3. Chain the remaining complete trees together from smallest to largest,
       always placing the larger tree as the left child, producing the final
       haft.

    Parameters
    ----------
    hafts:
        Roots of the hafts to merge.  They must be disjoint trees.
    internal_factory:
        Factory for the fresh internal nodes used to join trees.

    Returns
    -------
    HaftNode
        Root of the merged haft, whose leaves are exactly the union of the
        input leaves.
    """
    if not hafts:
        raise ValueError("merge() requires at least one haft")
    factory = internal_factory if internal_factory is not None else HaftNode

    forest: List[HaftNode] = []
    for root in hafts:
        forest.extend(strip(root))

    if len(forest) == 1:
        return forest[0]

    # Step 2 — resolve equal sizes exactly like binary addition with carries.
    forest.sort(key=lambda t: t.num_leaves)
    i = 0
    while i < len(forest) - 1:
        a, b = forest[i], forest[i + 1]
        if a.num_leaves == b.num_leaves:
            joined = factory()
            joined.attach_children(a, b)
            del forest[i : i + 2]
            _insert_sorted(forest, joined)
            i = max(i - 1, 0)
        else:
            i += 1

    # Step 3 — chain the (now distinct-size) complete trees smallest-first,
    # larger tree always on the left so every prefix is a valid haft.
    root = forest[0]
    for tree in forest[1:]:
        joined = factory()
        joined.attach_children(tree, root)  # `tree` is strictly larger: left child
        root = joined
    return root


def _insert_sorted(forest: List[HaftNode], tree: HaftNode) -> None:
    """Insert ``tree`` into ``forest`` keeping ascending ``num_leaves`` order."""
    lo, hi = 0, len(forest)
    size = tree.num_leaves
    while lo < hi:
        mid = (lo + hi) // 2
        if forest[mid].num_leaves < size:
            lo = mid + 1
        else:
            hi = mid
    forest.insert(lo, tree)


# ---------------------------------------------------------------------- #
# diagnostics
# ---------------------------------------------------------------------- #
def haft_shape_signature(root: HaftNode) -> tuple:
    """Return a hashable signature of the tree *shape* (ignoring payloads).

    Two trees have equal signatures iff they are structurally identical,
    which makes Lemma 1's uniqueness claim directly testable.
    """
    if root.is_leaf:
        return ("L",)
    left_sig = haft_shape_signature(root.left) if root.left is not None else ("-",)
    right_sig = haft_shape_signature(root.right) if root.right is not None else ("-",)
    return ("N", left_sig, right_sig)
