"""In-memory representation of an archive (Sec. 2, Fig. 4).

An archive is a tree of :class:`ArchiveNode` — keyed nodes annotated
with key values and timestamps.  A node whose ``timestamp`` is ``None``
inherits its parent's (the paper's timestamp inheritance).  *Frontier*
nodes (the deepest keyed nodes) do not have keyed children; their
content is stored either as

* a list of :class:`Alternative` — each a full copy of the node's
  content labelled with the versions during which it was current (plain
  Nested Merge; Fig. 4 stores John Doe's two salaries this way), or
* a :class:`Weave` — an SCCS-style line weave produced by *further
  compaction* (Example 4.3), where unchanged lines are shared between
  versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..keys.annotate import KeyLabel
from ..xmltree.model import Element, Text
from .versionset import VersionSet

ContentNode = Union[Element, Text]


@dataclass
class Alternative:
    """One value of a frontier node's content over a span of versions.

    ``timestamp is None`` is the single-alternative state — the content
    has been identical for the node's whole lifetime and inherits the
    node's timestamp ("every node in children(x) is not a timestamp
    node" in the paper's algorithm).
    """

    timestamp: Optional[VersionSet]
    content: list[ContentNode]


@dataclass
class WeaveSegment:
    """A run of consecutive content lines sharing one timestamp."""

    timestamp: VersionSet
    lines: list[str]


@dataclass
class Weave:
    """SCCS-style woven content of a frontier node (further compaction)."""

    segments: list[WeaveSegment] = field(default_factory=list)

    def lines_at(self, version: int) -> list[str]:
        """The content lines visible at ``version``."""
        lines: list[str] = []
        for segment in self.segments:
            if version in segment.timestamp:
                lines.extend(segment.lines)
        return lines

    def line_count(self) -> int:
        return sum(len(segment.lines) for segment in self.segments)


@dataclass
class ArchiveNode:
    """A keyed node of the archive.

    ``attributes`` holds the element's A-children as sorted
    ``(name, value)`` pairs.  The archiver requires them to be *stable*
    while the node lives: in well-keyed data attributes are key values
    (the paper's experimental specs key XMark items by their ``id``
    attribute), and the paper's merge assumes elements "do not contain
    attributes" beyond that.  A mutable attribute must be modelled as a
    keyed child element instead; Nested Merge raises otherwise.
    """

    label: KeyLabel
    timestamp: Optional[VersionSet] = None
    attributes: tuple[tuple[str, str], ...] = ()
    children: list["ArchiveNode"] = field(default_factory=list)
    alternatives: Optional[list[Alternative]] = None
    weave: Optional[Weave] = None

    @property
    def is_frontier(self) -> bool:
        return self.alternatives is not None or self.weave is not None

    def content_uniform(self) -> bool:
        """``True`` when this frontier node stores no explicit content
        timestamps: a single untimestamped alternative (the content has
        been identical for the node's whole lifetime) or an empty weave.
        Such content inherits the node's timestamp wholesale, so a merge
        of identical content is a no-op below the node."""
        if self.alternatives is not None:
            return len(self.alternatives) == 1 and self.alternatives[0].timestamp is None
        if self.weave is not None:
            return not self.weave.segments
        return False

    def children_at(self, version: int, probes=None) -> Optional[list[Element]]:
        """The reconstructed children alive at ``version``, from a node
        that can produce them without having child nodes built — a
        decoder's node whose children are still encoded.  ``None`` here
        and wherever ``children`` is the thing to walk; see
        :meth:`repro.core.archive.Archive.retrieve`."""
        return None

    def effective_timestamp(self, inherited: VersionSet) -> VersionSet:
        """This node's timestamp, inheriting from the parent when absent."""
        return self.timestamp if self.timestamp is not None else inherited

    def alternative_at(self, version: int) -> Optional[Alternative]:
        """The stored alternative whose content is current at ``version``
        (``None`` for weave nodes, internal nodes, or dead versions).
        An untimestamped alternative inherits the node's timestamp, so
        it answers for every version the node lives through."""
        if self.alternatives is None:
            return None
        for alternative in self.alternatives:
            if alternative.timestamp is None or version in alternative.timestamp:
                return alternative
        return None

    def exists_at(self, version: int, inherited: VersionSet) -> bool:
        return version in self.effective_timestamp(inherited)

    def find_child(self, label: KeyLabel) -> Optional["ArchiveNode"]:
        """Linear-scan lookup of a child by label (index-free path)."""
        for child in self.children:
            if child.label == label:
                return child
        return None

    def node_count(self) -> int:
        """Number of archive nodes in this subtree (frontier content
        counts the nodes of every stored alternative)."""
        count = 1
        for child in self.children:
            count += child.node_count()
        if self.alternatives:
            for alternative in self.alternatives:
                for item in alternative.content:
                    if isinstance(item, Element):
                        count += sum(1 for _ in item.iter())
                    else:
                        count += 1
        return count

    def timestamp_count(self) -> int:
        """Number of explicitly stored (non-inherited) timestamps."""
        count = 1 if self.timestamp is not None else 0
        for child in self.children:
            count += child.timestamp_count()
        if self.alternatives:
            count += sum(
                1 for alternative in self.alternatives if alternative.timestamp is not None
            )
        if self.weave:
            count += len(self.weave.segments)
        return count
