"""Index structures for efficient temporal queries (Sec. 7).

Timestamp binary trees accelerate version retrieval (Sec. 7.1); sorted
child-key lists accelerate temporal-history lookups (Sec. 7.2).
"""

from .keyindex import IndexRecord, KeyIndex, SortedChildList
from .timestamp_tree import (
    ProbeCount,
    TimestampTreeIndex,
    TimestampTreeNode,
    build_timestamp_tree,
    patch_timestamp_tree,
    search_timestamp_tree,
)

__all__ = [
    "IndexRecord",
    "KeyIndex",
    "ProbeCount",
    "SortedChildList",
    "TimestampTreeIndex",
    "TimestampTreeNode",
    "build_timestamp_tree",
    "patch_timestamp_tree",
    "search_timestamp_tree",
]
