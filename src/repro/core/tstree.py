"""Timestamp trees for version retrieval (Sec. 7.1) — core machinery.

For an archive node with ``k`` children, a binary tree over the
children's timestamps directs retrieval of version ``i`` to the ``α``
children that actually contain ``i`` while probing at most
``2α - 1 + 2α·log(k/α)`` tree nodes — or at most ``2k``, at which point
the search falls back to scanning all leaves, exactly the threshold
rule of the paper.

A tree is only worth its ``2k - 1`` nodes where a search can probe
fewer than ``k`` of them, so child lists shorter than
:data:`TREE_MIN_CHILDREN` never get one:
:meth:`repro.core.archive.Archive.relevant_children` scans them
directly (``k`` probes, counted as ``ProbeCount.short_scans``) and
builds, patches and searches trees only for wider lists.  The rule
depends on the child count alone, so every retrieval that walks a node
does — and counts — the same work.

One retrieval does not walk.  The first one a decoded tree serves reads
children that are still encoded straight off their block
(:meth:`repro.core.archive.Archive.retrieve`) and tests every child's
timestamp as it passes: ``k`` probes whatever ``k`` is, counted as
``short_scans`` below the threshold and as ``fallback_scans`` from it
on — such a list has no tree yet, and that read builds none.

This module holds the tree structure plus the build/patch/search
primitives; :class:`repro.core.archive.Archive` owns a lazily-built
cache of these trees keyed by its mutation counter, and
:class:`repro.indexes.timestamp_tree.TimestampTreeIndex` wraps that
cache with probe accounting for the Sec. 7.1 experiments.

``patch_timestamp_tree`` is what makes the trees cheap to keep current:
after a merge lands another version, leaf timestamps are recomputed in
place and internal unions are refreshed only along paths whose leaves
actually changed — no reallocation, no rebuild, and subtrees the merge
never touched are compared (cheaply, interval list against interval
list) and left alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .nodes import ArchiveNode
from .versionset import VersionSet

#: Child lists shorter than this are scanned, never given a tree.  The
#: paper bounds a search by ``2α - 1 + 2α·log(k/α)`` probes; its
#: smallest non-empty case, ``α = 1``, descends ``⌈log2 k⌉`` levels
#: probing both nodes of each: ``1 + 2·⌈log2 k⌉``, and every further
#: survivor adds to it.  That bound drops below a scan's ``k`` first at
#: ``k = 8`` (7 < 8; at ``k = 7`` it is 7, at ``k = 4`` 5 > 4).  Below
#: it a tree can win only by luck of its shape or on an empty answer
#: (``α = 0``: one probe), and then by fewer than eight membership
#: tests — never what building and patching ``2k - 1`` unions costs.
TREE_MIN_CHILDREN = 8


@dataclass
class TimestampTreeNode:
    """One node of a timestamp binary tree."""

    timestamp: VersionSet
    left: Optional["TimestampTreeNode"] = None
    right: Optional["TimestampTreeNode"] = None
    child_index: Optional[int] = None  # set on leaves: offset into children

    @property
    def is_leaf(self) -> bool:
        return self.child_index is not None


@dataclass
class ProbeCount:
    """Probe accounting for the retrieval cost analysis.

    A probe is a child or tree node *looked at*, whether or not a set
    was asked: a walk meets every child of a short list, asks only those
    that store a timestamp, and counts them all, as it always did.
    ``tree_probes`` counts timestamp-tree nodes examined,
    ``fallback_scans`` children scanned where a tree could have been
    asked — a search gave up on it, a ``guided=False`` reference
    retrieval never asks, or the list was still encoded and a first
    retrieval read it whole — and ``short_scans`` children of lists
    too short to have a tree (:data:`TREE_MIN_CHILDREN`): by design,
    not a budget spill, whoever scans them.
    """

    tree_probes: int = 0
    fallback_scans: int = 0
    short_scans: int = 0

    def total(self) -> int:
        return self.tree_probes + self.fallback_scans + self.short_scans

    def merge(self, other: "ProbeCount") -> None:
        self.tree_probes += other.tree_probes
        self.fallback_scans += other.fallback_scans
        self.short_scans += other.short_scans


def build_timestamp_tree(
    children: list[ArchiveNode], inherited: VersionSet
) -> Optional[TimestampTreeNode]:
    """Bottom-up pairing of leaves into a binary tree (Sec. 7.1)."""
    if not children:
        return None
    level: list[TimestampTreeNode] = [
        TimestampTreeNode(
            timestamp=child.effective_timestamp(inherited).copy(), child_index=index
        )
        for index, child in enumerate(children)
    ]
    while len(level) > 1:
        paired: list[TimestampTreeNode] = []
        for i in range(0, len(level) - 1, 2):
            left, right = level[i], level[i + 1]
            paired.append(
                TimestampTreeNode(
                    timestamp=left.timestamp.union(right.timestamp),
                    left=left,
                    right=right,
                )
            )
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0]


def patch_timestamp_tree(
    tree: Optional[TimestampTreeNode],
    children: list[ArchiveNode],
    inherited: VersionSet,
) -> bool:
    """Refresh a tree in place after the children's timestamps moved.

    Leaves are recomputed against the children's current effective
    timestamps; an internal node re-unions only when a leaf below it
    actually changed.  The caller guarantees the child *list* is the one
    the tree was built over (same length, same order) — a structural
    change requires :func:`build_timestamp_tree` instead.  Returns
    whether this node's timestamp changed.
    """
    if tree is None:
        return False
    if tree.is_leaf:
        assert tree.child_index is not None
        current = children[tree.child_index].effective_timestamp(inherited)
        if tree.timestamp == current:
            return False
        tree.timestamp = current.copy()
        return True
    left_changed = patch_timestamp_tree(tree.left, children, inherited)
    right_changed = patch_timestamp_tree(tree.right, children, inherited)
    if not (left_changed or right_changed):
        return False
    assert tree.left is not None
    refreshed = (
        tree.left.timestamp.union(tree.right.timestamp)
        if tree.right is not None
        else tree.left.timestamp.copy()
    )
    if refreshed == tree.timestamp:
        return False
    tree.timestamp = refreshed
    return True


def search_timestamp_tree(
    tree: Optional[TimestampTreeNode],
    version: int,
    child_count: int,
    probes: Optional[ProbeCount] = None,
) -> list[int]:
    """Indexes of children relevant to ``version``.

    Descends the tree counting probes; once ``2k`` tree nodes have been
    probed the remaining work cannot beat a plain scan, so the search
    falls back to scanning all leaves (the paper's threshold rule).
    Either way the answer is in child order: left before right, over
    leaves :func:`build_timestamp_tree` paired in that order.
    """
    if tree is None:
        return []
    budget = 2 * child_count
    # Budget against probes spent in THIS search: ``probes`` may be a
    # cumulative counter shared across a whole reconstruction, and
    # comparing the running total against one node's budget would make
    # every deep node spuriously fall back to a leaf scan.
    spent = 0
    result: list[int] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        spent += 1
        if spent > budget:
            # Fall back: scan every leaf once.
            result = _scan_leaves(tree, version, probes)
            break
        if version not in node.timestamp:
            continue
        if node.child_index is not None:
            result.append(node.child_index)
        else:
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)
    if probes is not None:
        probes.tree_probes += spent
    return result


def _scan_leaves(
    tree: TimestampTreeNode, version: int, probes: Optional[ProbeCount]
) -> list[int]:
    result: list[int] = []
    leaves = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.child_index is not None:
            leaves += 1
            if version in node.timestamp:
                result.append(node.child_index)
            continue
        if node.right is not None:
            stack.append(node.right)
        if node.left is not None:
            stack.append(node.left)
    if probes is not None:
        probes.fallback_scans += leaves
    return result


def tree_size(tree: Optional[TimestampTreeNode]) -> int:
    """Number of nodes in one tree (space accounting)."""
    count = 0
    stack = [tree] if tree is not None else []
    while stack:
        node = stack.pop()
        count += 1
        if node.left is not None:
            stack.append(node.left)
        if node.right is not None:
            stack.append(node.right)
    return count
