"""The paper's primary contribution: the key-based merging archiver.

Interval timestamps (Sec. 2), Nested Merge (Sec. 4.2), fingerprints
(Sec. 4.3), further compaction (Example 4.3), the XML archive
representation (Fig. 5), version retrieval and element history (Sec. 7).
"""

from .archive import (
    Archive,
    ArchiveError,
    ArchiveOptions,
    ArchiveStats,
    ElementHistory,
    ROOT_TAG,
    STORAGE_ALTERNATIVES,
    STORAGE_ATTR,
    STORAGE_WEAVE,
    T_ATTR,
    T_TAG,
)
from .canonicalize import documents_equivalent, normalize_document
from .fingerprint import Fingerprinter
from .ingest import IngestSession
from .merge import (
    AttributeChangeError,
    MergeMemo,
    MergeOptions,
    MergeStats,
    build_archive_subtree,
    nested_merge,
)
from .nodes import Alternative, ArchiveNode, Weave, WeaveSegment
from .tempquery import (
    Change,
    ChangeReport,
    archive_diff,
    keyed_diff,
)
from .respec import checkpoint_archive, rearchive
from .tstree import (
    ProbeCount,
    TimestampTreeNode,
    build_timestamp_tree,
    patch_timestamp_tree,
    search_timestamp_tree,
)
from .versionset import VersionSet

__all__ = [
    "Alternative",
    "Archive",
    "ArchiveError",
    "ArchiveNode",
    "ArchiveOptions",
    "ArchiveStats",
    "AttributeChangeError",
    "ElementHistory",
    "Fingerprinter",
    "IngestSession",
    "MergeMemo",
    "MergeOptions",
    "MergeStats",
    "ROOT_TAG",
    "STORAGE_ALTERNATIVES",
    "STORAGE_ATTR",
    "STORAGE_WEAVE",
    "T_ATTR",
    "T_TAG",
    "VersionSet",
    "Change",
    "ChangeReport",
    "archive_diff",
    "keyed_diff",
    "Weave",
    "WeaveSegment",
    "ProbeCount",
    "TimestampTreeNode",
    "build_archive_subtree",
    "build_timestamp_tree",
    "documents_equivalent",
    "nested_merge",
    "patch_timestamp_tree",
    "search_timestamp_tree",
    "rearchive",
    "checkpoint_archive",
    "normalize_document",
]
