"""Timestamp trees for version retrieval (Sec. 7.1) — index facade.

The tree machinery itself (build, in-place patch, threshold search)
lives in :mod:`repro.core.tstree` and the trees are owned by the
archive, which builds them lazily and patches them as versions land.
:class:`TimestampTreeIndex` is the experiment-facing facade: it pins an
archive, reproduces :meth:`repro.core.archive.Archive.retrieve` with
probe accounting, and reports the naive-scan baseline so the cost model
of Sec. 7.1 can be verified experimentally.

Because the trees are archive-resident and keyed to the archive's
mutation counter, an index instance never serves a stale tree: versions
merged after the index was built are visible to the very next
``retrieve``.
"""

from __future__ import annotations

from typing import Optional

from ..core.archive import Archive
from ..core.tstree import (  # re-exported: the public home of these names
    ProbeCount,
    TimestampTreeNode,
    build_timestamp_tree,
    patch_timestamp_tree,
    search_timestamp_tree,
    tree_size,
)
from ..xmltree.model import Element

__all__ = [
    "ProbeCount",
    "TimestampTreeIndex",
    "TimestampTreeNode",
    "build_timestamp_tree",
    "patch_timestamp_tree",
    "search_timestamp_tree",
    "tree_size",
]


class TimestampTreeIndex:
    """Probe-accounted retrieval over an archive's timestamp trees.

    ``retrieve`` returns ``(document, probes)`` where ``probes`` counts
    the tree nodes examined — the quantity the paper bounds by
    ``2α - 1 + 2α·log(k/α)``.  The trees are shared with the archive's
    own retrieval fast path and stay current automatically.
    """

    def __init__(self, archive: Archive) -> None:
        self.archive = archive

    def tree_node_count(self) -> int:
        """Total tree nodes — the index's space cost.  Warms every lazy
        tree first so the count covers the whole archive."""
        return self.archive.warm_timestamp_trees()

    def retrieve(
        self, version: int, *, copy_content: bool = False
    ) -> tuple[Optional[Element], ProbeCount]:
        """Version reconstruction guided by the timestamp trees.

        Shares frontier content with the archive like
        :meth:`Archive.retrieve`; pass ``copy_content=True`` before
        mutating the returned document.
        """
        probes = ProbeCount()
        document = self.archive.retrieve(
            version, guided=True, copy_content=copy_content, probes=probes
        )
        return document, probes

    def naive_probe_count(self, version: int) -> int:
        """Probes a scan-all-children retrieval would make — the baseline
        the timestamp trees are compared against."""
        return self.archive.scan_probe_count(version)
