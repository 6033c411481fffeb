"""The temporal-history key index (Sec. 7.2).

For each keyed archive node, a sorted list of its children's key labels
with two offsets per entry: one to the child's own sorted list (the
*index offset*) and one to the child's timestamp (the *timestamp
offset* — here, the resolved effective timestamp).  Retrieving the
temporal history of an element given by an ``l``-step key path costs
one binary search per step: ``O(l log d)`` for maximum degree ``d``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

from ..core.archive import (
    Archive,
    ArchiveError,
    key_path_labels,
    missing_element_error,
)
from ..core.nodes import ArchiveNode
from ..core.versionset import VersionSet
from ..keys.annotate import KeyLabel


@dataclass
class IndexRecord:
    """One entry of a sorted child list (fixed-size record in Sec. 7.2)."""

    token: tuple  # the child's label sort token (the search key)
    label: KeyLabel
    child_list: Optional["SortedChildList"]  # the "index offset"
    timestamp: VersionSet  # the resolved "timestamp offset"


@dataclass
class SortedChildList:
    """The sorted list of one node's children records."""

    records: list[IndexRecord]

    def find(self, label: KeyLabel, comparisons: list[int]) -> Optional[IndexRecord]:
        """Binary search by label token, counting comparisons."""
        tokens = [record.token for record in self.records]
        target = label.sort_token()
        position = bisect.bisect_left(tokens, target)
        # bisect performs ceil(log2(n)) + O(1) comparisons.
        comparisons[0] += max(1, len(self.records)).bit_length()
        if position < len(self.records) and self.records[position].token == target:
            return self.records[position]
        return None


class KeyIndex:
    """Sorted child-key lists over a whole archive."""

    def __init__(self, archive: Archive) -> None:
        self.archive = archive
        self.refresh()

    def refresh(self) -> None:
        """Rebuild the sorted lists after the archive gained versions.

        ``history`` refreshes automatically whenever the archive's
        mutation counter has moved since the last build, so an index
        held across ``add_version`` calls never serves the old tree.
        """
        root_timestamp = self.archive.root.timestamp
        if root_timestamp is None:
            raise ArchiveError("Archive root carries no timestamp")
        self._built_at = self.archive.mutation_count
        self._root_list = self._build(self.archive.root, root_timestamp)

    def _build(self, node: ArchiveNode, inherited: VersionSet) -> SortedChildList:
        records: list[IndexRecord] = []
        timestamp = node.effective_timestamp(inherited)
        for child in node.children:
            child_timestamp = child.effective_timestamp(timestamp)
            records.append(
                IndexRecord(
                    token=child.label.sort_token(),
                    label=child.label,
                    child_list=(
                        self._build(child, timestamp) if child.children else None
                    ),
                    timestamp=child_timestamp.copy(),
                )
            )
        records.sort(key=lambda record: record.token)
        return SortedChildList(records=records)

    def _ensure_fresh(self) -> None:
        """Rebuild if the archive gained versions since the last build;
        silently serving the old lists would return stale answers."""
        if self._built_at != self.archive.mutation_count:
            self.refresh()

    def record_count(self) -> int:
        """Total index records — the index's space cost."""
        self._ensure_fresh()
        count = 0
        stack = [self._root_list]
        while stack:
            child_list = stack.pop()
            count += len(child_list.records)
            for record in child_list.records:
                if record.child_list is not None:
                    stack.append(record.child_list)
        return count

    def history(self, path: str) -> tuple[VersionSet, int]:
        """Existence timestamps of the element at a keyed path.

        Returns ``(timestamps, comparisons)`` where ``comparisons``
        counts binary-search probes — the ``O(l log d)`` the paper
        claims.  Path syntax matches :meth:`Archive.history`.
        """
        self._ensure_fresh()
        labels = key_path_labels(path, self.archive.spec)
        if not labels:
            raise ArchiveError(f"Empty history path {path!r}")
        comparisons = [0]
        current = self._root_list
        record: Optional[IndexRecord] = None
        for label in labels:
            if current is None:
                raise missing_element_error(label, path)
            record = current.find(label, comparisons)
            if record is None:
                raise missing_element_error(label, path)
            current = record.child_list
        assert record is not None
        return record.timestamp.copy(), comparisons[0]
