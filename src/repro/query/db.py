"""`ArchiveDB` — one queryable surface over every archive backend.

The paper's payoff is that a keyed archive is a *temporal database*,
not just compact storage.  This module is the door to it::

    import repro

    with repro.open("archive.xml") as db:
        db.versions()                                  # VersionSet
        db.at(3).select("/db/dept[name='finance']/emp")  # streaming elements
        db.at(3).select("//tel/text()")                # streaming strings
        db.between(2, 5).changes()                     # streaming Change records
        db.history("/db/dept[name=finance]")           # ElementHistory
        db.first_appearance("/db/dept[name=finance]")  # version number
        db.explain("/db/dept[name='x']/emp")           # the plan, human-readable

``repro.open`` accepts a path (any storage backend — the manifest
decides), an already-open :class:`~repro.storage.backend.StorageBackend`
or a bare in-memory :class:`~repro.core.archive.Archive`.  Queries are
compiled by :mod:`repro.query.plan` and executed by
:mod:`repro.query.exec` over the archive tree itself — key-equality
steps through the sorted child lists, version scoping through the
timestamp trees, chunk-presence pruning on the chunked backend, one
bounded-memory pass on the external stream — and only fall back to
materialize-then-evaluate when the plan says so (the ``fallback`` flag
and reason are on every result's ``stats``).
"""

from __future__ import annotations

import heapq
import os
import re
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Union

from ..core.archive import Archive, ArchiveError
from ..core.tempquery import ChangeReport
from ..core.versionset import VersionSet
from ..keys.spec import KeySpec
from ..storage.archiver import ExternalArchiver
from ..storage.backend import FileBackend, StorageBackend, open_archive
from ..storage.chunked import ChunkedArchiver
from ..storage.events import NodeEvent, PeekableEvents, read_events
from ..xmltree.model import Element
from ..xmltree.xpath import evaluate_steps
from .exec import MemoryCursor, StreamCursor, node_count, run_plan
from .plan import QueryPlan, compile_plan
from .result import CHANGES, ELEMENTS, STRINGS, QueryResult, QueryStats

Source = Union[str, "os.PathLike[str]", Archive, StorageBackend]


_QUOTED_VALUE = re.compile(r"=\s*(['\"])(.*?)\1")
_ELEMENT = itemgetter(3)  # of a chunk stream's (anchor, seq, chunk, element)


def _path_within(path: str, prefix: str) -> bool:
    """Step-boundary prefix match on keyed paths.

    ``path`` is within ``prefix`` when it is the prefix itself, a
    descendant step (``prefix + '/...'``), or the prefix with a key
    predicate appended (``/db/dept`` covers ``/db/dept[name=x]``) — a
    plain ``startswith`` would also leak sibling tags that merely
    extend the name (``.../sal`` matching ``.../salx``).  Quoted
    predicate values (``[name='finance']``, the ``select`` grammar) are
    normalized to the unquoted form :class:`Change` paths render, so
    the same expression works across both query modes.
    """
    prefix = _QUOTED_VALUE.sub(r"=\2", prefix).rstrip("/") or "/"
    if prefix == "/":
        return True
    if not path.startswith(prefix):
        return False
    remainder = path[len(prefix) :]
    return remainder == "" or remainder[0] in "/["


def open_db(
    source: Source,
    *,
    keys_file: Optional[str] = None,
    options=None,
    workers: int = 1,
) -> "ArchiveDB":
    """Open an :class:`ArchiveDB` over a path, backend or archive.

    A path — ``str`` or :class:`os.PathLike` — is routed through
    :func:`repro.storage.backend.open_archive` (backend auto-detected
    from the manifest); the database then owns the backend and
    ``close()`` releases it.  Backends and in-memory archives are
    wrapped without taking ownership.  ``workers`` is accepted and
    ignored: every chunk loop runs serially.
    """
    if isinstance(source, (Archive, StorageBackend)):
        return ArchiveDB(source)
    backend = open_archive(os.fspath(source), keys_file=keys_file, options=options)
    return ArchiveDB(backend, owns_backend=True)


class ArchiveDB:
    """The query facade over one archive, whatever its storage shape."""

    def __init__(
        self, source: Union[Archive, StorageBackend], *, owns_backend: bool = False
    ) -> None:
        if isinstance(source, Archive):
            self.backend: Optional[StorageBackend] = None
            self._archive: Optional[Archive] = source
        elif isinstance(source, StorageBackend):
            self.backend = source
            self._archive = None
        else:
            raise ArchiveError(
                f"ArchiveDB wraps an Archive or StorageBackend, "
                f"not {type(source).__name__}"
            )
        self._owns_backend = owns_backend

    # -- identity ----------------------------------------------------------

    @property
    def spec(self) -> KeySpec:
        if self._archive is not None:
            return self._archive.spec
        assert self.backend is not None
        return self.backend.spec

    @property
    def kind(self) -> str:
        """The storage shape queries run against."""
        return "memory" if self.backend is None else self.backend.kind

    @property
    def last_version(self) -> int:
        if self._archive is not None:
            return self._archive.last_version
        assert self.backend is not None
        return self.backend.last_version

    def versions(self) -> VersionSet:
        """Every archived version (they are contiguous from 1)."""
        last = self.last_version
        if last == 0:
            return VersionSet()
        return VersionSet.from_intervals([(1, last)])

    # -- scopes ------------------------------------------------------------

    def at(self, version: int) -> "VersionScope":
        """Scope queries to one archived version."""
        return VersionScope(self, version)

    def between(self, from_version: int, to_version: int) -> "RangeScope":
        """Scope queries to the changes between two versions."""
        return RangeScope(self, from_version, to_version)

    # -- temporal history (Sec. 7.2) ---------------------------------------

    def history(self, path: str):
        """Temporal history of the element at a keyed path."""
        if self._archive is not None:
            return self._archive.history(path)
        assert self.backend is not None
        return self.backend.history(path)

    def first_appearance(self, path: str) -> int:
        """The version in which the element at ``path`` first existed.

        Raises :class:`ArchiveError` when the path never existed.  The
        path resolves with one binary search per step over the sorted
        child lists (``O(l log d)``, the Sec. 7.2 index machinery).
        """
        existence = self.history(path).existence
        if not existence:
            raise ArchiveError(f"Element at {path!r} has an empty existence")
        return existence.min_version()

    def last_change(self, path: str) -> int:
        """The version in which the element's content last changed.

        For frontier elements this is the start of the current
        content's reign; elements without content changes report their
        first appearance.  Raises :class:`ArchiveError` when the path
        never existed.
        """
        history = self.history(path)
        if history.changes:
            current = history.changes[-1][0]
            if not current:
                raise ArchiveError(f"Element at {path!r} has an empty existence")
            return current.min_version()
        if not history.existence:
            raise ArchiveError(f"Element at {path!r} has an empty existence")
        return history.existence.min_version()

    # -- planning ----------------------------------------------------------

    def plan(self, expression: str) -> QueryPlan:
        return compile_plan(expression, self.spec)

    def explain(self, expression: str) -> list[str]:
        """The compiled plan, one human-readable line per step."""
        plan = self.plan(expression)
        lines = plan.describe()
        reason = self._fallback_reason(plan)
        if reason is not None:
            lines.append(f"  !! snapshot fallback on this backend: {reason}")
        return lines

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._owns_backend and self.backend is not None:
            self.backend.close()

    def __enter__(self) -> "ArchiveDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ArchiveDB(kind={self.kind!r}, versions={self.last_version})"

    # -- internals ---------------------------------------------------------

    def _memory_archive(self) -> Optional[Archive]:
        """The in-memory archive, when this source has one."""
        if self._archive is not None:
            return self._archive
        if isinstance(self.backend, FileBackend):
            return self.backend.archive
        return None

    def _counting_cache(self, stats: QueryStats, loader):
        """Run a backend load, folding its decoded-chunk cache traffic
        (hit/miss counter movement on the handle) into the query's
        stats.  A bare in-memory archive has no handle and no traffic."""
        backend = self.backend
        if backend is None:
            return loader()
        hits, misses = backend.cache_hits, backend.cache_misses
        result = loader()
        stats.cache_hits += backend.cache_hits - hits
        stats.cache_misses += backend.cache_misses - misses
        return result

    def _check_version(self, version: int) -> None:
        last = self.last_version
        if not 1 <= version <= last:
            raise ArchiveError(
                f"Version {version} is not in the archive (have 1..{last})"
                if last
                else f"Version {version} is not in the archive (it is empty)"
            )

    def _retrieve(self, version: int) -> Optional[Element]:
        if self._archive is not None:
            return self._archive.retrieve(version)
        assert self.backend is not None
        return self.backend.retrieve(version)

    def _diff(self, from_version: int, to_version: int) -> ChangeReport:
        if self._archive is not None:
            from ..core.tempquery import archive_diff

            return archive_diff(self._archive, from_version, to_version)
        assert self.backend is not None
        return self.backend.diff(from_version, to_version)

    def _fallback_reason(self, plan: QueryPlan) -> Optional[str]:
        """Why this plan cannot run over the archive tree here."""
        everywhere, partitioned = plan.fallbacks
        if everywhere is None and isinstance(self.backend, ChunkedArchiver):
            return partitioned
        return everywhere

    # -- query execution ---------------------------------------------------

    def _select(self, version: int, expression: str) -> QueryResult:
        self._check_version(version)
        plan = self.plan(expression)
        stats = QueryStats()
        reason = self._fallback_reason(plan)
        if reason is not None:
            elements = self._fallback_items(version, plan, stats, reason)
        else:
            memory = self._counting_cache(stats, self._memory_archive)
            if memory is not None:
                elements = self._memory_items(memory, plan, version, stats)
            elif isinstance(self.backend, ChunkedArchiver):
                elements = self._chunked_items(self.backend, plan, version, stats)
            elif isinstance(self.backend, ExternalArchiver):
                elements = self._stream_items(self.backend, plan, version, stats)
            else:  # an unknown future backend: correct, if unplanned
                elements = self._fallback_items(
                    version, plan, stats, "backend without a planned evaluation"
                )
        if plan.want_text:
            return QueryResult(map(Element.text_content, elements), STRINGS, stats, plan)
        return QueryResult(elements, ELEMENTS, stats, plan)

    def _fallback_items(
        self, version: int, plan: QueryPlan, stats: QueryStats, reason: str
    ) -> Iterator[Element]:
        stats.mark_fallback(reason)

        def generate() -> Iterator[Element]:
            snapshot = self._counting_cache(
                stats, lambda: self._retrieve(version)
            )
            if snapshot is None:
                return
            stats.nodes_materialized += node_count(snapshot)
            yield from evaluate_steps(snapshot, plan.raw_steps)

        return generate()

    def _memory_items(
        self, archive: Archive, plan: QueryPlan, version: int, stats: QueryStats
    ) -> Iterator[Element]:
        def generate() -> Iterator[Element]:
            root_timestamp = archive.root.timestamp
            if root_timestamp is None:
                raise ArchiveError("Archive root carries no timestamp")
            cursor = MemoryCursor(
                archive, archive.root, root_timestamp, version, stats
            )
            for _, element in run_plan(cursor, plan, stats):
                yield element

        return generate()

    def _chunked_items(
        self,
        backend: ChunkedArchiver,
        plan: QueryPlan,
        version: int,
        stats: QueryStats,
    ) -> Iterator[Element]:
        """Fan a plan out to the owning chunks and re-interleave.

        Chunks whose presence timestamps exclude the version are pruned
        before their XML is parsed.  Per-chunk result streams arrive in
        chunk-internal order as ``(anchor, seq, chunk, element)``; they
        are merged on those tuples — the top-level record's sort token
        first, never an element — so the global order matches a
        snapshot's (:func:`~repro.storage.chunked.restore_key_order`).
        Merging is a lazy k-way heap merge (none for a single live
        chunk), except under a fingerprinter — chunk order is then
        fingerprint order, not key order, so results are collected and
        sorted once.
        """

        def part_stream(index: int) -> Iterator[tuple[tuple, int, int, Element]]:
            archive = self._counting_cache(stats, lambda: backend.load_part(index))
            root_timestamp = archive.root.timestamp
            if root_timestamp is None:
                return
            cursor = MemoryCursor(archive, archive.root, root_timestamp, version, stats)
            # (anchor, seq, chunk) is unique: a merge never compares elements.
            for seq, (anchor, element) in enumerate(run_plan(cursor, plan, stats)):
                yield (anchor, seq, index, element)

        def live_indices(indices) -> list[int]:
            live = []
            for index in indices:
                if not backend.part_exists(index):
                    continue
                presence = backend.part_presence(index)
                if presence is not None and version not in presence:
                    stats.chunks_pruned += 1
                    continue
                live.append(index)
            return live

        def run_over(indices) -> Iterator[Element]:
            live = live_indices(indices)
            merged: Iterable[tuple[tuple, int, int, Element]]
            if backend.options.fingerprinter is not None:
                merged = sorted(item for index in live for item in part_stream(index))
            elif len(live) == 1:  # every routed keyed select: nothing to merge
                merged = part_stream(live[0])
            else:
                merged = heapq.merge(*map(part_stream, live))
            return map(_ELEMENT, merged)

        def generate() -> Iterator[Element]:
            # A key lookup at the step selecting a top-level record pins
            # the record's key value, and the hash router maps a key
            # value to exactly one chunk: the query opens that one alone.
            label = plan.steps[1].lookup_label
            if label is None:
                yield from run_over(range(backend.part_count))
                return
            owner = backend.chunk_index_for_label(label)
            produced = False
            for element in run_over([owner]):
                produced = True
                yield element
            if produced:
                stats.chunks_routed_past += backend.part_count - 1
                return
            # The routed chunk answered nothing.  A key value whose
            # stored canonical form differs from the predicate's text
            # (markup, escaping) hashes elsewhere, so an empty answer is
            # only trustworthy after the other chunks scan too — misses
            # cost a fan-out, hits open exactly one chunk.
            yield from run_over(
                index for index in range(backend.part_count) if index != owner
            )

        return generate()

    def _stream_items(
        self,
        backend: ExternalArchiver,
        plan: QueryPlan,
        version: int,
        stats: QueryStats,
    ) -> Iterator[Element]:
        def generate() -> Iterator[Element]:
            events = PeekableEvents(
                read_events(
                    backend.archive_path, backend.io_stats, backend.codec
                )
            )
            root = events.next()
            if not isinstance(root, NodeEvent) or root.timestamp is None:
                raise ArchiveError("Archive stream carries no root timestamp")
            cursor = StreamCursor(root, events, root.timestamp, version, stats)
            for _, element in run_plan(cursor, plan, stats):
                yield element

        return generate()


class VersionScope:
    """Queries against one archived version (``db.at(v)``)."""

    def __init__(self, db: ArchiveDB, version: int) -> None:
        self.db = db
        self.version = version

    def select(self, expression: str) -> QueryResult:
        """Evaluate an XPath expression at this version.

        Returns a streaming :class:`QueryResult` of elements (or of
        strings for a trailing ``text()`` step); answers are identical
        to evaluating the expression over ``snapshot()``, but the plan
        only materializes what it selects.
        """
        return self.db._select(self.version, expression)

    def snapshot(self) -> Optional[Element]:
        """The fully materialized version (``None`` if it was empty)."""
        self.db._check_version(self.version)
        return self.db._retrieve(self.version)

    def __repr__(self) -> str:
        return f"VersionScope(version={self.version}, db={self.db!r})"


class RangeScope:
    """Queries against a version interval (``db.between(a, b)``)."""

    def __init__(self, db: ArchiveDB, from_version: int, to_version: int) -> None:
        self.db = db
        self.from_version = from_version
        self.to_version = to_version

    def changes(self, path_prefix: Optional[str] = None) -> QueryResult:
        """Element-level changes between the two versions.

        Streams :class:`~repro.core.tempquery.Change` records (added /
        deleted / changed, identified by key path), computed through
        the timestamp-tree-guided diff walk.  ``path_prefix`` filters
        to changes at or beneath one keyed path (whole path steps:
        ``.../sal`` does not match a sibling ``.../salx``).
        """
        self.db._check_version(self.from_version)
        self.db._check_version(self.to_version)

        def generate():
            report = self.db._diff(self.from_version, self.to_version)
            for change in report.changes:
                if path_prefix is None or _path_within(change.path, path_prefix):
                    yield change

        return QueryResult(generate(), CHANGES)

    def report(self) -> ChangeReport:
        """The eager :class:`ChangeReport` (legacy shape)."""
        self.db._check_version(self.from_version)
        self.db._check_version(self.to_version)
        return self.db._diff(self.from_version, self.to_version)

    def __repr__(self) -> str:
        return (
            f"RangeScope({self.from_version}..{self.to_version}, db={self.db!r})"
        )
