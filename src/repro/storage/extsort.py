"""External sorting of a version into a key-sorted event stream (Sec. 6.2).

A version is written out as *sorted runs*: partial trees of at most
``budget`` nodes, each internally sorted, with the root-to-node stem
duplicated across runs exactly as the paper describes (its Sec. 6.2
figure).  The runs are then k-way merged — ``(M/B) - 1`` at a time —
into a single sorted stream.
"""

from __future__ import annotations

import os

from ..keys.annotate import AnnotatedDocument
from .events import (
    Event,
    EventWriter,
    ExitEvent,
    FrontierEvent,
    IOStats,
    NodeEvent,
    PeekableEvents,
    read_events,
    version_events,
)


class _RunWriter:
    """Writes runs, re-opening the current stem at each run boundary."""

    def __init__(
        self, directory: str, prefix: str, stats: IOStats, codec=None
    ) -> None:
        self.directory = directory
        self.prefix = prefix
        self.stats = stats
        self.codec = codec
        self.paths: list[str] = []
        self._writer: EventWriter | None = None
        self._stem: list[NodeEvent] = []
        self._nodes_in_run = 0

    def _open_run(self) -> None:
        path = os.path.join(self.directory, f"{self.prefix}-run{len(self.paths)}.jsonl")
        self.paths.append(path)
        self._writer = EventWriter(path, self.stats, self.codec)
        self._nodes_in_run = len(self._stem)
        for event in self._stem:
            self._writer.write(event)

    def enter(self, event: NodeEvent) -> None:
        if self._writer is None:
            self._open_run()
        assert self._writer is not None
        self._writer.write(event)
        self._stem.append(event)
        self._nodes_in_run += 1

    def exit(self) -> None:
        # When the run was just rolled, its exits were already written;
        # only the logical stem needs popping.
        if self._writer is not None:
            self._writer.write(ExitEvent())
        self._stem.pop()

    def frontier(self, event: FrontierEvent) -> None:
        if self._writer is None:
            self._open_run()
        assert self._writer is not None
        self._writer.write(event)
        self._nodes_in_run += 1

    def maybe_roll(self, budget: int) -> None:
        """Close the current run at a subtree boundary when over budget."""
        if self._writer is not None and self._nodes_in_run >= budget:
            for _ in range(len(self._stem)):
                self._writer.write(ExitEvent())
            self._writer.close()
            self._writer = None

    def close(self) -> None:
        if self._writer is not None:
            for _ in range(len(self._stem)):
                self._writer.write(ExitEvent())
            self._writer.close()
            self._writer = None


def write_sorted_runs(
    document: AnnotatedDocument,
    directory: str,
    budget: int,
    stats: IOStats,
    prefix: str = "version",
    codec=None,
) -> list[str]:
    """Write the annotated version as sorted runs of ≤ ``budget`` nodes."""
    if budget < 2:
        raise ValueError("Run budget must allow at least a stem and one node")
    runs = _RunWriter(directory, prefix, stats, codec)
    for event in version_events(document):
        if isinstance(event, NodeEvent):
            runs.enter(event)
        elif isinstance(event, ExitEvent):
            runs.exit()
        else:
            runs.frontier(event)
            runs.maybe_roll(budget)
    runs.close()
    return runs.paths


def merge_event_streams(readers: list[PeekableEvents], writer: EventWriter) -> None:
    """K-way merge of sorted streams sharing a common root stem.

    Streams carrying the same internal node (a duplicated stem) have
    their child lists merged recursively; frontier nodes are atomic to
    one stream, so they are copied through.
    """
    # All streams must open with the same root node.
    roots = [reader.peek() for reader in readers]
    live = [reader for reader, root in zip(readers, roots) if root is not None]
    if not live:
        return
    first = live[0].peek()
    assert isinstance(first, (NodeEvent, FrontierEvent))
    if isinstance(first, FrontierEvent):
        assert len(live) == 1, "frontier root duplicated across runs"
        writer.write(live[0].next())
        return
    for reader in live:
        event = reader.next()
        assert isinstance(event, NodeEvent) and event.token() == first.token()
    writer.write(first)
    _merge_children(live, writer)
    for reader in live:
        exit_event = reader.next()
        assert isinstance(exit_event, ExitEvent)
    writer.write(ExitEvent())


def _merge_children(readers: list[PeekableEvents], writer: EventWriter) -> None:
    while True:
        heads: list[tuple[PeekableEvents, Event]] = []
        for reader in readers:
            event = reader.peek()
            if isinstance(event, (NodeEvent, FrontierEvent)):
                heads.append((reader, event))
        if not heads:
            return
        minimum = min(event.token() for _, event in heads)
        group = [
            reader for reader, event in heads if event.token() == minimum
        ]
        sample = next(event for _, event in heads if event.token() == minimum)
        if isinstance(sample, FrontierEvent):
            assert len(group) == 1, "frontier node duplicated across runs"
            writer.write(group[0].next())
            continue
        for reader in group:
            reader.next()
        writer.write(sample)
        _merge_children(group, writer)
        for reader in group:
            exit_event = reader.next()
            assert isinstance(exit_event, ExitEvent)
        writer.write(ExitEvent())


def sort_version(
    document: AnnotatedDocument,
    directory: str,
    budget: int,
    stats: IOStats,
    fan_in: int = 8,
    prefix: str = "version",
    codec=None,
) -> str:
    """Sorted runs + repeated ``fan_in``-way merges → one sorted stream.

    ``fan_in`` models the paper's ``(M/B) - 1`` merge arity; runs are
    merged in phases until one remains.  ``codec`` encodes every run and
    merge file at rest; the streaming readers/writers keep the merge's
    memory bound independent of it.
    """
    if fan_in < 2:
        raise ValueError("Merge fan-in must be at least 2")
    paths = write_sorted_runs(document, directory, budget, stats, prefix, codec)
    phase = 0
    while len(paths) > 1:
        merged_paths: list[str] = []
        for start in range(0, len(paths), fan_in):
            batch = paths[start : start + fan_in]
            out_path = os.path.join(
                directory, f"{prefix}-merge{phase}-{start // fan_in}.jsonl"
            )
            with EventWriter(out_path, stats, codec) as writer:
                merge_event_streams(
                    [PeekableEvents(read_events(path, stats, codec)) for path in batch],
                    writer,
                )
            merged_paths.append(out_path)
            for path in batch:
                os.remove(path)
        paths = merged_paths
        phase += 1
    return paths[0]
