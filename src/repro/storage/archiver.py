"""The external-memory archiver facade (Sec. 6).

:class:`ExternalArchiver` keeps the archive as a key-sorted event
stream on disk.  ``add_version`` runs the paper's three phases:

1. **Annotate** the incoming version with key values (Sec. 6.1);
2. **Sort** it into a stream via bounded-memory sorted runs and k-way
   merging (Sec. 6.2);
3. **Merge** the sorted version stream with the archive stream in one
   pass (Sec. 6.3).

The archive itself is never materialized in memory; ``retrieve`` streams
the archive and keeps only the requested version, and ``history`` and
``stats`` are likewise single-pass stream walks, so the whole
:class:`~repro.storage.backend.StorageBackend` surface runs in bounded
memory.  I/O is accounted in pages (``io_stats``) so the analysis of
Sec. 6 can be checked experimentally.
"""

from __future__ import annotations

import os
import re
from itertools import zip_longest
from typing import Iterable, Iterator, Optional

from ..core.archive import (
    Archive,
    ArchiveError,
    ArchiveOptions,
    ArchiveStats,
    ElementHistory,
    ROOT_TAG,
    _parse_history_path,
    missing_element_error,
)
from ..core.merge import MergeStats
from ..core.nodes import ArchiveNode
from ..core.tempquery import ChangeReport, archive_diff
from ..core.tstree import ProbeCount
from ..core.versionset import VersionSet
from ..indexes.keyindex import KeyIndex
from ..indexes.timestamp_tree import TimestampTreeIndex
from ..keys.annotate import KeyLabel, annotate_keys
from ..keys.spec import KeySpec
from ..xmltree.model import Element
from ..xmltree.serializer import to_string
from .backend import (
    Manifest,
    PartitionedBackend,
    RecodeReport,
    StorageBackend,
    mutation,
)
from .chunked import (
    ChunkedArchiver,
    ChunkedArchiverError,
    concatenate_parts,
    restore_key_order,
    route_to_owning_chunk,
)
from .events import (
    DEFAULT_PAGE_SIZE,
    Event,
    EventWriter,
    ExitEvent,
    FrontierEvent,
    IOStats,
    NodeEvent,
    PeekableEvents,
    archive_node_to_events,
    events_to_archive_node,
    read_events,
)
from .codec import CodecLike, get_codec
from .extmerge import merge_archive_stream
from .extsort import sort_version
from .integrity import IntegrityError, validate_policy, verify_file
from .txn import ArchiveTxn

#: The event stream's name inside the archive directory (and its key
#: in the checksum sidecar).
STREAM_NAME = "archive.jsonl"

#: Intermediate files of an interrupted annotate/sort/merge pass.
_SCRATCH_PATTERN = re.compile(r"^v\d+-(run|merge)\S*\.jsonl$")


def _empty_stream() -> list[Event]:
    """The stream of an archive with no versions: a bare root."""
    root = NodeEvent(
        label=KeyLabel(tag=ROOT_TAG, key=()), attributes=(), timestamp=VersionSet()
    )
    return [root, ExitEvent()]


class ExternalArchiver(StorageBackend):
    """A disk-resident archive with bounded-memory version merging."""

    kind = "external"

    def __init__(
        self,
        directory: "str | os.PathLike",
        spec: KeySpec,
        memory_budget: int = 10_000,
        fan_in: int = 8,
        page_size: int = DEFAULT_PAGE_SIZE,
        codec: CodecLike = None,
        verify: str = "always",
        workers: int = 1,
        recover: bool = True,
        cache_reads: bool = False,
        _manifest: Optional[Manifest] = None,
    ) -> None:
        """``memory_budget`` is the node budget of one sorted run — the
        paper's ``M``; ``fan_in`` models ``(M/B) - 1`` merge arity.
        ``codec`` encodes the event stream (and its scratch runs) at
        rest — framed gzip under the compressing codecs, so every pass
        still streams in bounded memory.  ``verify`` sets the stream's
        checksum policy for reads.  ``workers`` is accepted for
        interface uniformity with the chunked backend; the single
        event stream is merged sequentially by design.  ``recover=False``
        skips WAL recovery and the scratch sweep — for read-only
        snapshot opens running next to a live writer, whose in-flight
        staged commit and scratch files must not be touched.  A
        directory that holds no stream yet is the empty archive; the
        first commit writes one."""
        directory = os.path.abspath(os.fspath(directory))
        self.directory = directory
        self.storage_root = directory
        self.spec = spec
        self.memory_budget = memory_budget
        self.fan_in = fan_in
        self.workers = max(1, int(workers))
        self.verify = validate_policy(verify)
        self.io_stats = IOStats(page_size=page_size)
        os.makedirs(directory, exist_ok=True)
        self.archive_path = os.path.join(directory, STREAM_NAME)
        self._recover = recover
        #: Read-only handles cache the materialized stream (the
        #: :meth:`to_archive` product ``diff`` and fallback queries pay
        #: for) in the process-wide decoded-chunk cache, keyed by the
        #: stream's sidecar checksum; writers never do.
        self.cache_reads = cache_reads
        self._load_state(codec, _manifest)

    # -- bookkeeping ---------------------------------------------------------

    def _load_state(
        self, codec: CodecLike = None, manifest: Optional[Manifest] = None
    ) -> None:
        super()._load_state(codec, manifest)
        if self._recover:
            self._sweep_scratch()

    def _sweep_scratch(self) -> None:
        """Discard the sorted runs and merge intermediates of an
        interrupted annotate/sort/merge pass.  (The merged stream
        itself is written at its staging name, ``archive.jsonl.tmp``,
        which settling the commit log keeps or sweeps.)"""
        for name in os.listdir(self.directory):
            if _SCRATCH_PATTERN.match(name):
                os.remove(os.path.join(self.directory, name))

    def _bootstrap(self, txn: ArchiveTxn) -> None:
        staged = txn.staging(self.archive_path)
        with EventWriter(staged, self.io_stats, txn.codec) as writer:
            for event in _empty_stream():
                writer.write(event)
        txn.adopt(self.archive_path)

    def _part_name(self, part=STREAM_NAME) -> str:
        return STREAM_NAME

    def _verify_stream(self) -> None:
        """Check the event stream against its recorded checksum under
        the read policy, before any parse touches it."""
        if self.verify == "never":
            return
        if self.verify == "open" and STREAM_NAME in self._verified:
            return
        if STREAM_NAME in self._checksums.quarantined:
            raise IntegrityError(
                f"Event stream {STREAM_NAME!r} was quarantined by fsck "
                f"--repair; restore it from quarantine/ or re-ingest"
            )
        verify_file(
            STREAM_NAME, self.archive_path, self._checksums.entry(STREAM_NAME)
        )
        self._verified.add(STREAM_NAME)

    def _events(self, stats: IOStats) -> Iterator[Event]:
        """The stream's events, verified under the read policy before
        any parse touches it; the empty archive's while no stream is
        stored."""
        self._verify_stream()
        if not os.path.exists(self.archive_path):
            return iter(_empty_stream())
        return read_events(self.archive_path, stats, self.codec)

    def _root_timestamp(self) -> VersionSet:
        root = next(self._events(IOStats()))  # peek without accounting
        assert isinstance(root, NodeEvent) and root.timestamp is not None
        return root.timestamp

    @property
    def last_version(self) -> int:
        timestamp = self._root_timestamp()
        return timestamp.max_version() if timestamp else 0

    # -- the three phases ---------------------------------------------------------

    @mutation
    def add_version(self, document: Optional[Element]) -> MergeStats:
        """Annotate, sort and merge the next version (Sec. 6).

        The merged stream, the manifest and the checksum sidecar
        publish together behind one WAL record — a crash at any point
        recovers to the pre-version or post-version archive, never a
        stream whose checksum (or manifest) belongs to the other side.
        """
        number = self.last_version + 1
        with ArchiveTxn(self, number) as txn:
            out_path = txn.staging(self.archive_path)
            if document is None:
                self._stage_empty_version(number, out_path)
                merge_stats = MergeStats()
            else:
                annotated = annotate_keys(document, self.spec)  # Sec. 6.1
                version_path = sort_version(  # Sec. 6.2
                    annotated,
                    self.directory,
                    budget=self.memory_budget,
                    stats=self.io_stats,
                    fan_in=self.fan_in,
                    prefix=f"v{number}",
                    codec=self.codec,
                )
                merge_stats = merge_archive_stream(  # Sec. 6.3
                    self._events(self.io_stats),
                    version_path,
                    out_path,
                    number,
                    self.io_stats,
                    self.codec,
                )
                os.remove(version_path)
            txn.adopt(self.archive_path)
        return merge_stats

    def _stage_empty_version(self, number: int, out_path: str) -> None:
        events = self._events(self.io_stats)
        with EventWriter(out_path, self.io_stats, self.codec) as writer:
            root = next(events)
            assert isinstance(root, NodeEvent) and root.timestamp is not None
            timestamp = root.timestamp.copy()
            timestamp.add(number)
            from dataclasses import replace

            writer.write(replace(root, timestamp=timestamp))
            depth = 1
            for event in events:
                if isinstance(event, (NodeEvent, FrontierEvent)):
                    if depth == 1 and event.timestamp is None:
                        event = replace(event, timestamp=timestamp.without(number))
                    if isinstance(event, NodeEvent):
                        depth += 1
                elif isinstance(event, ExitEvent):
                    depth -= 1
                writer.write(event)

    # -- queries -------------------------------------------------------------------

    def retrieve(
        self, version: int, *, probes: Optional[ProbeCount] = None
    ) -> Optional[Element]:
        """Stream the archive, keeping only the requested version.

        ``probes`` is accepted for protocol uniformity but stays zero:
        the stream walk has no timestamp trees to probe.
        """
        events = PeekableEvents(self._events(self.io_stats))
        root = events.next()
        assert isinstance(root, NodeEvent) and root.timestamp is not None
        if version not in root.timestamp:
            raise ArchiveError(
                f"Version {version} not archived "
                f"(have {root.timestamp.to_text() or 'none'})"
            )
        result = self._reconstruct_children(events, version, root.timestamp)
        return result[0] if result else None

    def _reconstruct_children(
        self, events: PeekableEvents, version: int, inherited: VersionSet
    ) -> list[Element]:
        children: list[Element] = []
        while True:
            head = events.peek()
            if head is None or isinstance(head, ExitEvent):
                if head is not None:
                    events.next()
                return children
            event = events.next()
            assert isinstance(event, (NodeEvent, FrontierEvent))
            timestamp = (
                event.timestamp if event.timestamp is not None else inherited
            )
            relevant = version in timestamp
            if isinstance(event, FrontierEvent):
                if relevant:
                    element = Element(event.label.tag)
                    for name, value in event.attributes:
                        element.set_attribute(name, value)
                    for alternative in event.alternatives:
                        if (
                            alternative.timestamp is None
                            or version in alternative.timestamp
                        ):
                            for content in alternative.content:
                                element.append(content.copy())
                            break
                    children.append(element)
                continue
            if relevant:
                element = Element(event.label.tag)
                for name, value in event.attributes:
                    element.set_attribute(name, value)
                for child in self._reconstruct_children(events, version, timestamp):
                    element.append(child)
                children.append(element)
            else:
                # Irrelevant subtree: drain it without building anything.
                depth = 1
                while depth:
                    skipped = events.next()
                    if isinstance(skipped, NodeEvent):
                        depth += 1
                    elif isinstance(skipped, ExitEvent):
                        depth -= 1
        return children

    def history(self, path: str) -> ElementHistory:
        """Temporal history of a keyed element, in one stream pass.

        Each path step scans the current node's children events in
        order, draining unmatched subtrees without building anything —
        memory stays proportional to tree height, never archive size.
        """
        steps = _parse_history_path(path)
        if not steps:
            raise ArchiveError(f"Empty history path {path!r}")
        events = PeekableEvents(self._events(self.io_stats))
        root = events.next()
        if not isinstance(root, NodeEvent) or root.timestamp is None:
            raise ArchiveError("Archive stream carries no root timestamp")
        inherited = root.timestamp
        found = None
        for position, (tag, key_value) in enumerate(steps):
            target = KeyLabel(tag=tag, key=key_value).sort_token()
            found = None
            while True:
                head = events.peek()
                if head is None or isinstance(head, ExitEvent):
                    break
                event = events.next()
                assert isinstance(event, (NodeEvent, FrontierEvent))
                timestamp = (
                    event.timestamp if event.timestamp is not None else inherited
                )
                if event.label.sort_token() == target:
                    found = event
                    inherited = timestamp
                    break
                if isinstance(event, NodeEvent):
                    depth = 1  # drain the unmatched subtree
                    while depth:
                        skipped = events.next()
                        if isinstance(skipped, NodeEvent):
                            depth += 1
                        elif isinstance(skipped, ExitEvent):
                            depth -= 1
            if found is None:
                raise missing_element_error(
                    KeyLabel(tag=tag, key=key_value), path
                )
            if position < len(steps) - 1 and not isinstance(found, NodeEvent):
                raise missing_element_error(
                    KeyLabel(tag=steps[position + 1][0], key=steps[position + 1][1]),
                    path,
                )
        changes = None
        if isinstance(found, FrontierEvent):
            changes = []
            for alternative in found.alternatives:
                timestamp = (
                    alternative.timestamp.copy()
                    if alternative.timestamp is not None
                    else inherited.copy()
                )
                rendered = "".join(
                    to_string(c) if isinstance(c, Element) else c.text
                    for c in alternative.content
                )
                changes.append((timestamp, rendered))
        return ElementHistory(
            path=path, existence=inherited.copy(), changes=changes
        )

    def diff(self, from_version: int, to_version: int) -> ChangeReport:
        """Element-level changes between two versions.

        Materializes the stream once (the diff walks parent and child
        timestamps together, which a single forward pass cannot); the
        report matches the in-memory backend's exactly.
        """
        return archive_diff(self.to_archive(), from_version, to_version)

    def stats(self) -> ArchiveStats:
        """Size/shape counters, in one stream pass.

        Mirrors :meth:`Archive.stats` semantics — frontier content
        counts its nodes, ``stored_timestamps`` counts only explicit
        (non-inherited) timestamps — with ``serialized_bytes`` /
        ``raw_bytes`` the stream's logical (decoded) size and
        ``disk_bytes`` its at-rest size under the codec.
        """
        nodes = 0
        stored_timestamps = 0
        versions = 0
        first = True
        pass_stats = IOStats()  # logical bytes of this single pass
        for event in self._events(pass_stats):
            if isinstance(event, ExitEvent):
                continue
            if first:
                assert isinstance(event, NodeEvent)
                if event.timestamp is not None:
                    versions = len(event.timestamp)
                first = False
            nodes += 1
            if event.timestamp is not None:
                stored_timestamps += 1
            if isinstance(event, FrontierEvent):
                for alternative in event.alternatives:
                    if alternative.timestamp is not None:
                        stored_timestamps += 1
                    for item in alternative.content:
                        if isinstance(item, Element):
                            nodes += sum(1 for _ in item.iter())
                        else:
                            nodes += 1
        self.io_stats.merge(pass_stats)
        return self._handle_counters(
            ArchiveStats(
                versions=versions,
                nodes=nodes,
                stored_timestamps=stored_timestamps,
                serialized_bytes=pass_stats.bytes_read,
                raw_bytes=pass_stats.bytes_read,
                disk_bytes=self.archive_bytes(),
            )
        )

    def to_archive(self, options: Optional[ArchiveOptions] = None) -> Archive:
        """Materialize the stream into an in-memory :class:`Archive`.

        Used by ``diff`` and the equivalence tests; defeats the
        bounded-memory purpose otherwise — which is exactly why
        read-caching handles keep the materialized product in the
        decoded-chunk cache instead of paying the full stream pass per
        request (non-default ``options`` always materialize fresh: the
        options shape the product).
        """
        if options is not None:
            return self._materialize(options)
        return self._cached(STREAM_NAME, self.archive_bytes(), self._materialize)

    def _materialize(self, options: Optional[ArchiveOptions] = None) -> Archive:
        archive = Archive(self.spec, options)
        events = PeekableEvents(self._events(self.io_stats))
        root = events.next()
        assert isinstance(root, NodeEvent) and root.timestamp is not None
        archive.root = ArchiveNode(
            label=root.label, timestamp=root.timestamp.copy()
        )
        while not isinstance(events.peek(), ExitEvent):
            archive.root.children.append(events_to_archive_node(events))
        return archive

    def archive_bytes(self) -> int:
        """Current size of the on-disk archive stream."""
        if not os.path.exists(self.archive_path):
            return 0
        return os.path.getsize(self.archive_path)

    @mutation
    def recode(self, codec: CodecLike) -> RecodeReport:
        """Re-encode the event stream in place, in bounded memory.

        The stream is copied line-by-line from the old codec's reader
        into the new codec's writer (never materialized), verified by a
        second streaming pass comparing decoded lines, then published
        together with the manifest behind one WAL record.
        """
        target = get_codec(codec)
        old = self.codec
        before = self.archive_bytes()
        version_count = self.last_version  # read (and verify) old stream
        with ArchiveTxn(self, version_count, codec=target) as txn:
            if os.path.exists(self.archive_path):
                staged = txn.staging(self.archive_path)
                with old.open_text_read(self.archive_path) as source, \
                        target.open_text_write(staged) as sink:
                    for line in source:
                        sink.write(line)
                # Identity check: the staged stream must decode
                # line-for-line to the current stream before anything
                # publishes.
                with old.open_text_read(self.archive_path) as source, \
                        target.open_text_read(staged) as copy:
                    for original, recoded in zip_longest(source, copy):
                        if original != recoded:
                            raise ArchiveError(
                                f"Recode verification failed: {target.name} "
                                f"stream does not round-trip"
                            )
                txn.adopt(self.archive_path)
            else:  # nothing stored yet: the empty stream, in the new codec
                self._bootstrap(txn)
        return RecodeReport(
            path=self.directory,
            kind=self.kind,
            old_codec=old.name,
            new_codec=target.name,
            files=1,
            disk_bytes_before=before,
            disk_bytes_after=self.archive_bytes(),
        )


def archive_to_stream(
    archive: Archive, path: str, stats: IOStats, codec: CodecLike = None
) -> None:
    """Write an in-memory archive as a sorted event stream."""
    assert archive.root.timestamp is not None
    with EventWriter(path, stats, codec) as writer:
        writer.write(
            NodeEvent(
                label=archive.root.label,
                attributes=archive.root.attributes,
                timestamp=archive.root.timestamp,
            )
        )
        for child in archive.root.children:
            archive_node_to_events(child, writer)
        writer.write(ExitEvent())


class PersistentIngestor:
    """Batched ingestion into a partitioned persistent store, with live
    retrieval and history indexes.

    Runs against the :class:`~repro.storage.backend.PartitionedBackend`
    protocol rather than a concrete archiver: any backend that stores
    its archive as independently-loadable parts sharing the global
    version numbering (today :class:`ChunkedArchiver`; tomorrow a
    sharded multi-directory store) gets a
    :class:`~repro.indexes.keyindex.KeyIndex` (Sec. 7.2 history
    lookups) and a
    :class:`~repro.indexes.timestamp_tree.TimestampTreeIndex` (Sec. 7.1
    guided retrieval) kept current per part as batches flush, so
    queries between batches hit indexes instead of re-walking part
    archives.  The index cache holds each part's in-memory archive; the
    on-disk part files remain the durable source of truth and are
    re-adopted lazily after a restart.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        spec: Optional[KeySpec] = None,
        chunk_count: int = 8,
        options: Optional[ArchiveOptions] = None,
        *,
        backend: Optional[PartitionedBackend] = None,
    ) -> None:
        if backend is None:
            if directory is None or spec is None:
                raise ValueError(
                    "PersistentIngestor needs either a backend or a "
                    "directory plus key spec"
                )
            backend = ChunkedArchiver(directory, spec, chunk_count, options)
        self.backend = backend
        self._key_indexes: dict[int, KeyIndex] = {}
        self._timestamp_indexes: dict[int, TimestampTreeIndex] = {}
        #: Part adoptions (XML parses) retrieval skipped because the
        #: part's presence timestamp excluded the version (cumulative).
        self.chunks_pruned = 0

    @property
    def last_version(self) -> int:
        return self.backend.last_version

    def ingest_batch(self, documents: Iterable[Optional[Element]]) -> MergeStats:
        """Batch-merge versions; part indexes refresh as parts land."""
        return self.backend.ingest_batch(documents, on_chunk=self._index_part)

    def _index_part(self, index: int, archive: Archive) -> None:
        key_index = self._key_indexes.get(index)
        if key_index is None:
            self._key_indexes[index] = KeyIndex(archive)
        else:
            key_index.refresh(archive)
        timestamp_index = self._timestamp_indexes.get(index)
        if timestamp_index is None:
            self._timestamp_indexes[index] = TimestampTreeIndex(archive)
        else:
            timestamp_index.refresh(archive)

    def _adopt_part(self, index: int) -> bool:
        """Lazily index a part that exists on disk but not in the cache
        (e.g. after a restart)."""
        if index in self._timestamp_indexes:
            return True
        if not self.backend.part_exists(index):
            return False
        self._index_part(index, self.backend.load_part(index))
        return True

    def retrieve(
        self, version: int, *, copy_content: bool = False
    ) -> tuple[Optional[Element], ProbeCount]:
        """Concatenate per-part reconstructions in key order, guided by
        the timestamp trees; returns the probe accounting alongside.

        Unadopted parts whose presence timestamps exclude ``version``
        are pruned before their files are ever parsed — the part-level
        analogue of the timestamp trees' subtree pruning.

        The result shares frontier content with the cached part
        archives (which later batches flush back to disk); callers that
        intend to mutate the returned document must pass
        ``copy_content=True`` or they corrupt the cache.
        """
        if not 1 <= version <= self.last_version:
            raise ChunkedArchiverError(
                f"Version {version} not archived (have 1..{self.last_version})"
            )
        probes = ProbeCount()

        def parts():
            for index in range(self.backend.part_count):
                if index not in self._timestamp_indexes:
                    presence = self.backend.part_presence(index)
                    if presence is not None and version not in presence:
                        self.chunks_pruned += 1
                        continue
                if not self._adopt_part(index):
                    continue
                part, part_probes = self._timestamp_indexes[index].retrieve(
                    version, copy_content=copy_content
                )
                probes.merge(part_probes)
                yield part

        document = restore_key_order(
            concatenate_parts(parts()), self.backend.spec
        )
        return document, probes

    def history(self, path: str) -> ElementHistory:
        """Route a history query through the owning part's key index.

        The record step's key label hashes to the owning part, the only
        one adopted; its index's binary searches settle membership in
        ``O(l log d)`` and the part's archive — already cached by the
        index — supplies the full :class:`ElementHistory` including the
        ``changes`` content runs, matching
        :meth:`ChunkedArchiver.history`.
        """
        def attempt(index: int):
            if not self._adopt_part(index):
                return None
            return self._key_indexes[index].element_history(path)

        return route_to_owning_chunk(self.backend, attempt, path)

    def drop_caches(self) -> None:
        """Release the per-part index/archive caches.

        The caches trade the partitioned store's memory bound for query
        speed: every indexed part's archive stays in RAM.  Long-lived
        processes that have touched many parts can drop the caches and
        let :meth:`retrieve`/:meth:`history` re-adopt parts lazily from
        the durable part files.
        """
        self._key_indexes.clear()
        self._timestamp_indexes.clear()
