"""Streaming nested merge of a sorted archive with a sorted version
(Sec. 6.3).

Both inputs are key-sorted event streams on disk; the merge makes a
single pass through each, writing the new archive stream.  Memory use is
bounded by tree height plus one frontier node's content — the paper's
assumption that a root-to-leaf path fits in a page.

The logic is the paper's: compare labels of the current nodes; smaller
archive label → the element is absent from the new version, copy it out
with its timestamp terminated; smaller version label → a new element,
copy it out stamped with the new version number; equal labels → merge,
augmenting the timestamp and recursing.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator

from ..core.merge import MergeStats, merge_alternatives
from ..core.nodes import Alternative
from ..core.versionset import VersionSet
from .events import (
    Event,
    EventWriter,
    ExitEvent,
    FrontierEvent,
    IOStats,
    NodeEvent,
    PeekableEvents,
    read_events,
)


class StreamMergeError(ValueError):
    """Raised on malformed or incompatible event streams."""


def merge_archive_stream(
    archive_events: Iterator[Event],
    version_path: str,
    out_path: str,
    version_number: int,
    stats: IOStats,
    codec=None,
) -> MergeStats:
    """Merge a sorted version stream into a sorted archive stream.

    The archive side arrives as the events its owner read (and
    verified) — the stored stream's, or the empty archive's; ``codec``
    decodes the version file and encodes the output; the one-pass
    bounded-memory shape is unchanged (framed gzip streams decode
    incrementally).
    """
    from .integrity import TruncatedPayload

    merge_stats = MergeStats()
    archive = PeekableEvents(archive_events)
    version = PeekableEvents(read_events(version_path, stats, codec))
    try:
        with EventWriter(out_path, stats, codec) as writer:
            root = archive.next()
            if not isinstance(root, NodeEvent) or root.timestamp is None:
                raise StreamMergeError(
                    "Archive stream must open with a timestamped root"
                )
            timestamp = root.timestamp.copy()
            timestamp.add(version_number)
            writer.write(replace(root, timestamp=timestamp))
            _merge_children(
                archive, version, timestamp, version_number, writer, merge_stats
            )
            exit_event = archive.next()
            if not isinstance(exit_event, ExitEvent):
                raise StreamMergeError("Archive root not closed")
            writer.write(ExitEvent())
    except StopIteration:
        # A stream that ends mid-structure (events missing their exits)
        # is a truncated payload, not a programming error.
        raise TruncatedPayload(
            f"Event stream ends mid-structure merging the archive "
            f"with {version_path!r}"
        ) from None
    return merge_stats


def _merge_children(
    archive: PeekableEvents,
    version: PeekableEvents,
    inherited: VersionSet,
    number: int,
    writer: EventWriter,
    stats: MergeStats,
) -> None:
    while True:
        archive_head = archive.peek()
        version_head = version.peek()
        archive_live = isinstance(archive_head, (NodeEvent, FrontierEvent))
        version_live = isinstance(version_head, (NodeEvent, FrontierEvent))
        if not archive_live and not version_live:
            return
        if archive_live and (
            not version_live or archive_head.token() < version_head.token()
        ):
            _copy_terminated(archive, inherited, number, writer, stats)
        elif version_live and (
            not archive_live or version_head.token() < archive_head.token()
        ):
            _copy_inserted(version, number, writer, stats)
        else:
            _merge_node(archive, version, inherited, number, writer, stats)


def _copy_terminated(
    archive: PeekableEvents,
    inherited: VersionSet,
    number: int,
    writer: EventWriter,
    stats: MergeStats,
) -> None:
    """Archive-only subtree: terminate its timestamp, copy verbatim."""
    first = archive.next()
    assert isinstance(first, (NodeEvent, FrontierEvent))
    if first.timestamp is None:
        stats.nodes_terminated += 1
        first = replace(first, timestamp=inherited.without(number))
    writer.write(first)
    if isinstance(first, NodeEvent):
        depth = 1
        while depth:
            event = archive.next()
            if isinstance(event, NodeEvent):
                depth += 1
            elif isinstance(event, ExitEvent):
                depth -= 1
            writer.write(event)


def _copy_inserted(
    version: PeekableEvents,
    number: int,
    writer: EventWriter,
    stats: MergeStats,
) -> None:
    """Version-only subtree: stamp the root with {number}, copy."""
    stats.nodes_inserted += 1
    first = version.next()
    assert isinstance(first, (NodeEvent, FrontierEvent))
    writer.write(replace(first, timestamp=VersionSet([number])))
    if isinstance(first, NodeEvent):
        depth = 1
        while depth:
            event = version.next()
            if isinstance(event, NodeEvent):
                depth += 1
            elif isinstance(event, ExitEvent):
                depth -= 1
            writer.write(event)


def _merge_node(
    archive: PeekableEvents,
    version: PeekableEvents,
    inherited: VersionSet,
    number: int,
    writer: EventWriter,
    stats: MergeStats,
) -> None:
    archive_event = archive.next()
    version_event = version.next()
    stats.nodes_matched += 1
    if archive_event.attributes != version_event.attributes:
        from ..core.merge import AttributeChangeError

        raise AttributeChangeError(
            f"Attributes of <{archive_event.label}> changed between versions"
        )
    if archive_event.timestamp is not None:
        current = archive_event.timestamp.copy()
        current.add(number)
        merged_timestamp: VersionSet | None = current
    else:
        current = inherited
        merged_timestamp = None

    if isinstance(archive_event, FrontierEvent):
        if not isinstance(version_event, FrontierEvent):
            raise StreamMergeError(
                f"<{archive_event.label}> is a frontier in the archive but "
                f"not in the version"
            )
        (version_alternative,) = version_event.alternatives
        alternatives = [
            Alternative(timestamp=alt.timestamp, content=alt.content)
            for alt in archive_event.alternatives
        ]
        if merge_alternatives(
            alternatives, version_alternative.content, number, current
        ):
            stats.frontier_content_changes += 1
        writer.write(
            FrontierEvent(
                label=archive_event.label,
                attributes=archive_event.attributes,
                timestamp=merged_timestamp,
                alternatives=alternatives,
            )
        )
        return

    if not isinstance(version_event, NodeEvent):
        raise StreamMergeError(
            f"<{archive_event.label}> is internal in the archive but a "
            f"frontier in the version"
        )
    writer.write(replace(archive_event, timestamp=merged_timestamp))
    _merge_children(archive, version, current, number, writer, stats)
    archive_exit = archive.next()
    version_exit = version.next()
    if not isinstance(archive_exit, ExitEvent) or not isinstance(
        version_exit, ExitEvent
    ):
        raise StreamMergeError("Mismatched element nesting during stream merge")
    writer.write(ExitEvent())
