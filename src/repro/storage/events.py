"""On-disk event streams for archives and versions (Sec. 6).

The external-memory archiver never holds an archive in memory; it works
on *event streams* — a document-order traversal with children sorted by
key label at every level, so two streams can be merged with memory
proportional to tree height only (the paper's assumption: a root-to-leaf
path fits in a page).  :func:`version_events` makes a version's stream;
:func:`read_events` reads a stored one, and every walk of it goes
through :class:`PeekableEvents`, which passes over a subtree one way
(:meth:`PeekableEvents.skip_subtree`).  No stream is read for a version
count: the archive's is its manifest's.

Stream format: one JSON array per line.

* ``["N", tag, key, attrs, ts]`` — enter an internal keyed node
  (``key`` = list of ``[path, value]`` pairs, ``ts`` = interval text or
  ``null`` for an inherited timestamp);
* ``["F", tag, key, attrs, ts, alternatives]`` — a whole frontier node;
  ``alternatives`` = list of ``[ts_or_null, [content...]]`` where each
  content item is ``["E", xml]`` or ``["T", text]``;
* ``["X"]`` — exit the current internal node.

I/O accounting wraps every reader/writer: bytes moved divided by the
page size ``B`` gives the page counts of the paper's analysis.  The
accounting stays in *logical* (decoded-text) bytes whatever the at-rest
codec, so the Sec. 6 page analysis is codec-independent; the honest
on-disk numbers live in ``ArchiveStats.disk_bytes``.

Readers and writers take an optional :class:`~repro.storage.codec.Codec`
— under a compressing codec the stream is framed gzip, written and read
through bounded-memory streaming handles, so the external sort/merge
never holds more than a frame of compressed history.
"""

from __future__ import annotations

import gzip
import json
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from ..core.nodes import Alternative, ArchiveNode, ContentNode
from ..core.versionset import VersionSet
from ..keys.annotate import AnnotatedDocument, KeyLabel
from ..xmltree.model import Element, Text
from ..xmltree.parser import parse_document
from ..xmltree.serializer import to_string
from .codec import get_codec
from .integrity import IntegrityError, TruncatedPayload

DEFAULT_PAGE_SIZE = 4096


@dataclass
class IOStats:
    """Byte/page accounting across the external archiver's phases."""

    bytes_read: int = 0
    bytes_written: int = 0
    page_size: int = DEFAULT_PAGE_SIZE

    def pages_read(self) -> int:
        return -(-self.bytes_read // self.page_size)

    def pages_written(self) -> int:
        return -(-self.bytes_written // self.page_size)

    def merge(self, other: "IOStats") -> None:
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written


@dataclass
class NodeEvent:
    """Enter an internal node."""

    label: KeyLabel
    attributes: tuple[tuple[str, str], ...]
    timestamp: Optional[VersionSet]

    def token(self) -> tuple:
        return self.label.sort_token()


@dataclass
class FrontierEvent:
    """A complete frontier node."""

    label: KeyLabel
    attributes: tuple[tuple[str, str], ...]
    timestamp: Optional[VersionSet]
    alternatives: list[Alternative]

    def token(self) -> tuple:
        return self.label.sort_token()


@dataclass
class ExitEvent:
    """Exit the current internal node."""


Event = Union[NodeEvent, FrontierEvent, ExitEvent]


# -- encoding -----------------------------------------------------------------


def _encode_content(content: list[ContentNode]) -> list[list[str]]:
    encoded: list[list[str]] = []
    for node in content:
        if isinstance(node, Text):
            encoded.append(["T", node.text])
        else:
            encoded.append(["E", to_string(node)])
    return encoded


def _decode_content(encoded: list[list[str]]) -> list[ContentNode]:
    content: list[ContentNode] = []
    for kind, payload in encoded:
        if kind == "T":
            content.append(Text(payload))
        else:
            content.append(parse_document(payload))
    return content


def encode_event(event: Event) -> str:
    if isinstance(event, ExitEvent):
        return '["X"]'
    ts = event.timestamp.to_text() if event.timestamp is not None else None
    key = [[path, value] for path, value in event.label.key]
    attrs = [[name, value] for name, value in event.attributes]
    if isinstance(event, NodeEvent):
        return json.dumps(["N", event.label.tag, key, attrs, ts])
    alternatives = [
        [
            alt.timestamp.to_text() if alt.timestamp is not None else None,
            _encode_content(alt.content),
        ]
        for alt in event.alternatives
    ]
    return json.dumps(["F", event.label.tag, key, attrs, ts, alternatives])


def decode_event(line: str) -> Event:
    data = json.loads(line)
    kind = data[0]
    if kind == "X":
        return ExitEvent()
    tag, key, attrs, ts = data[1], data[2], data[3], data[4]
    label = KeyLabel(tag=tag, key=tuple((p, v) for p, v in key))
    attributes = tuple((n, v) for n, v in attrs)
    timestamp = VersionSet.parse(ts) if ts is not None else None
    if kind == "N":
        return NodeEvent(label=label, attributes=attributes, timestamp=timestamp)
    alternatives = [
        Alternative(
            timestamp=VersionSet.parse(alt_ts) if alt_ts is not None else None,
            content=_decode_content(content),
        )
        for alt_ts, content in data[5]
    ]
    return FrontierEvent(
        label=label,
        attributes=attributes,
        timestamp=timestamp,
        alternatives=alternatives,
    )


# -- file I/O with accounting --------------------------------------------------


class EventWriter:
    """Writes an event stream to a file, counting logical bytes."""

    def __init__(self, path: str, stats: IOStats, codec=None) -> None:
        # ``get_codec`` is resolved at module scope (not per call) and
        # passes already-resolved Codec objects straight through, so a
        # backend handing its cached codec down pays no lookup here.
        self._handle = get_codec(codec).open_text_write(path)
        self._stats = stats

    def write(self, event: Event) -> None:
        line = encode_event(event) + "\n"
        self._handle.write(line)
        self._stats.bytes_written += len(line.encode("utf-8"))

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "EventWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_events(path: str, stats: IOStats, codec=None) -> Iterator[Event]:
    """Lazily iterate events from a stream file, counting logical bytes.

    Stream-layer failures (a gzip frame cut short, bytes that stopped
    being UTF-8) and lines that no longer parse as events are raised as
    the typed :class:`~repro.storage.integrity.IntegrityError` family —
    :class:`~repro.storage.integrity.TruncatedPayload` when the stream
    ends mid-frame — never as a bare ``EOFError``/``zlib.error``/
    ``json.JSONDecodeError`` from whatever layer happened to choke.
    """
    line_number = 0
    try:
        with get_codec(codec).open_text_read(path) as handle:
            for line in handle:
                line_number += 1
                stats.bytes_read += len(line.encode("utf-8"))
                if line.strip():
                    yield decode_event(line)
    except IntegrityError:
        raise
    except gzip.BadGzipFile as error:
        # A frame whose magic rotted away (BadGzipFile subclasses
        # OSError, so it must classify before real I/O errors pass).
        raise IntegrityError(
            f"Event stream {path!r} is undecodable near line "
            f"{line_number}: {error}"
        )
    except (EOFError, zlib.error) as error:
        raise TruncatedPayload(
            f"Event stream {path!r} ends mid-frame after line "
            f"{line_number}: {error}"
        )
    except (
        UnicodeDecodeError,
        json.JSONDecodeError,
        IndexError,
        KeyError,
        TypeError,
        ValueError,
    ) as error:
        raise IntegrityError(
            f"Event stream {path!r} is undecodable near line "
            f"{line_number}: {error}"
        )


#: :class:`PeekableEvents`' head before it is read.
_UNREAD = object()


class PeekableEvents:
    """A one-event lookahead over a stream, the one reader every walk
    of a stream goes through: the merges, the sort, the archive's
    materialization and :class:`~repro.query.exec.StreamCursor`.  A
    subtree is drained one way, :meth:`skip_subtree`; a stream that
    ends where an event is owed raises
    :class:`~repro.storage.integrity.TruncatedPayload`."""

    __slots__ = ("_events", "_head")

    def __init__(self, events: Iterable[Event]) -> None:
        self._events = iter(events)
        self._head: object = _UNREAD

    def peek(self) -> Optional[Event]:
        head = self._head
        if head is _UNREAD:
            head = self._head = next(self._events, None)
        return head

    def next(self) -> Event:
        event = self.peek()
        if event is None:
            raise TruncatedPayload("Event stream ends mid-structure")
        self._head = _UNREAD
        return event

    def skip_subtree(self, first: Event) -> Iterator[Event]:
        """Yield ``first``, just taken from this stream, and the rest of
        its subtree's events."""
        yield first
        if isinstance(first, NodeEvent):
            depth = 1
            while depth:
                event = self.next()
                if isinstance(event, NodeEvent):
                    depth += 1
                elif isinstance(event, ExitEvent):
                    depth -= 1
                yield event


# -- conversions to/from the in-memory archive ------------------------------------


def events_to_archive_node(events: PeekableEvents) -> ArchiveNode:
    """Rebuild one archive subtree from its events."""
    event = events.next()
    if isinstance(event, FrontierEvent):
        return ArchiveNode(
            label=event.label,
            timestamp=event.timestamp,
            attributes=event.attributes,
            alternatives=event.alternatives,
        )
    assert isinstance(event, NodeEvent)
    node = ArchiveNode(
        label=event.label, timestamp=event.timestamp, attributes=event.attributes
    )
    while not isinstance(events.peek(), ExitEvent):
        node.children.append(events_to_archive_node(events))
    events.next()  # consume the exit
    return node


def version_events(
    document: AnnotatedDocument, node: Optional[Element] = None
) -> Iterator[Event]:
    """The events of a key-annotated version (from ``node``, its root by
    default), children sorted by label at every level: what Sec. 6.2
    cuts into sorted runs."""
    if node is None:
        node = document.root
    label = document.label(node)
    assert label is not None
    attributes = tuple(sorted((a.name, a.value) for a in node.attributes))
    if document.is_frontier(node):
        content = [child.copy() for child in node.children]
        yield FrontierEvent(
            label=label,
            attributes=attributes,
            timestamp=None,
            alternatives=[Alternative(timestamp=None, content=content)],
        )
        return
    yield NodeEvent(label=label, attributes=attributes, timestamp=None)
    ordered = sorted(
        node.element_children(), key=lambda child: document.label(child).sort_token()
    )
    for child in ordered:
        yield from version_events(document, child)
    yield ExitEvent()
