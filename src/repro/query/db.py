"""`ArchiveDB` — one queryable surface over every archive backend.

The paper's payoff is that a keyed archive is a *temporal database*,
not just compact storage.  This module is the door to it::

    import repro

    with repro.open("archive.xml") as db:
        db.versions()                                  # VersionSet
        db.at(3).select("/db/dept[name='finance']/emp")  # streaming elements
        db.at(3).select("//tel/text()")                # streaming strings
        db.between(2, 5).changes()                     # Change records, key order
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
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Union

from ..core.archive import Archive, ArchiveError, ElementHistory, key_path_labels
from ..core.tempquery import ChangeReport, changes_in, history_in
from ..core.versionset import VersionSet
from ..keys.annotate import KeyLabel
from ..keys.spec import KeySpec
from ..storage.archiver import ExternalArchiver
from ..storage.backend import StorageBackend, open_archive
from ..storage.chunked import ChunkedArchiver
from ..xmltree.model import Element
from ..xmltree.xpath import evaluate_steps
from .exec import MemoryCursor, node_count, run_plan
from .plan import QueryPlan, compile_plan
from .result import CHANGES, ELEMENTS, STRINGS, QueryResult, QueryStats

Source = Union[str, "os.PathLike[str]", Archive, StorageBackend]


_ANCHOR, _ELEMENT = itemgetter(0), itemgetter(1)  # of ``run_plan``'s pairs


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

    def history(self, path: str) -> ElementHistory:
        """Temporal history of the element at a keyed path.

        ``path`` is a key path in either spelling — the paper's
        ``/db/dept[name=finance]/emp[fn=John, ln=Doe]`` or ``select``'s
        ``/db/dept[name='finance']/emp[fn='John'][ln='Doe']`` — read by
        the one path grammar and label rule; a value containing ``,`` or
        ``]`` is written quoted.  A step whose predicates do not pin its
        whole key, or test anything else, raises :class:`ArchiveError`
        naming it.  The external stream answers in one pass in memory
        bounded by the tree's height; every other source walks its parts
        (:func:`~repro.core.tempquery.history_in`), on ``chunked`` the
        record's owning chunk alone (:meth:`_route`).
        """
        if isinstance(self.backend, ExternalArchiver):
            return self.backend.history(path)
        stats = QueryStats()
        labels = key_path_labels(path, self.spec)
        return history_in(self._parts(stats, self._route(labels, stats)), path, labels)

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

    def _changes(
        self,
        from_version: int,
        to_version: int,
        prefix: Optional[str],
        stats: QueryStats,
    ) -> ChangeReport:
        versions = (from_version, to_version)
        scope = (
            key_path_labels(prefix, self.spec, open_last=True)
            if prefix is not None
            else []
        )
        parts = self._parts(stats, self._route(scope, stats, versions), versions)
        report = changes_in(parts, from_version, to_version, scope)
        stats.archive_nodes_visited += report.nodes_visited
        return report

    def _parts(
        self,
        stats: QueryStats,
        indices: Optional[Iterable[int]] = None,
        versions: tuple[int, ...] = (),
    ) -> list[Archive]:
        """The archives a query walks.

        One archive in memory (materialized) on ``external``; on
        ``chunked`` and ``file`` (its one chunk), the stored chunks among
        ``indices`` (every chunk when ``None``) whose presence holds
        one of ``versions`` (when given; the others are counted pruned),
        loaded through the decoded-chunk cache.  An absent chunk that
        fsck quarantined raises as it does in ``retrieve``
        (:meth:`~repro.storage.chunked.ChunkedArchiver.part_stored`), so
        no answer silently leaves its records out.
        """
        if self._archive is not None:
            return [self._archive]
        backend = self.backend
        if isinstance(backend, ExternalArchiver):
            return [self._counting_cache(stats, backend.to_archive)]
        assert isinstance(backend, ChunkedArchiver)
        parts = []
        for index in range(backend.part_count) if indices is None else indices:
            if not backend.part_stored(index):
                continue
            presence = backend.part_presence(index)
            if (
                versions
                and presence is not None
                and not any(version in presence for version in versions)
            ):
                stats.chunks_pruned += 1
                continue
            parts.append(
                self._counting_cache(stats, lambda: backend.load_part(index))
            )
        return parts

    def _partitioned(self) -> Optional[ChunkedArchiver]:
        """The backend, when it splits records over several chunks: one
        chunk (the whole-file layout) has nothing to route or merge."""
        backend = self.backend
        if isinstance(backend, ChunkedArchiver) and backend.part_count > 1:
            return backend
        return None

    def _route(
        self,
        labels: list[Union[KeyLabel, str]],
        stats: QueryStats,
        versions: tuple[int, ...] = (),
    ) -> Optional[list[int]]:
        """The one chunk that answers for a key path's ``labels``
        (:func:`~repro.core.archive.key_path_labels`) — or for a
        ``changes`` prefix's between two ``versions``, ``[]`` for none —
        or ``None`` for every chunk.  The record step (the second) names
        one record's label, hashed to its chunk as a keyed ``select``
        hashes ``plan.steps[1]``'s; a bare tag there reaches every
        chunk.  A prefix routes only while the owner holds records at
        both versions or at neither: otherwise its copy of the document
        shell flips where the document's may not, and every chunk is
        walked.
        """
        backend = self._partitioned()
        if backend is None:
            return None
        record = labels[1] if len(labels) > 1 else None
        if not isinstance(record, KeyLabel):
            return None
        owner = backend.chunk_index_for_label(record)
        if versions:
            mine = backend.part_presence(owner)
            if mine is None:
                if backend.part_exists(owner):
                    return None  # stored, presence unknown
            elif len({version in mine for version in versions}) > 1:
                return None
        stats.chunks_routed_past += backend.part_count - 1
        return [owner]

    def _fallback_reason(self, plan: QueryPlan) -> Optional[str]:
        """Why this plan cannot run over the archive tree here."""
        everywhere, partitioned = plan.fallbacks
        if everywhere is None and self._partitioned() is not None:
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
        elif isinstance(self.backend, ExternalArchiver):
            elements = self._stream_items(self.backend, plan, version, stats)
        else:
            elements = self._part_items(plan, version, stats)
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

    def _part_items(
        self, plan: QueryPlan, version: int, stats: QueryStats
    ) -> Iterator[Element]:
        """Run a plan over the parts (:meth:`_parts`), one
        :func:`~repro.query.exec.run_plan` each; on ``chunked``, over the
        owning chunk alone when the plan's record step is a key lookup,
        else over every chunk, re-interleaved.

        Chunks whose presence timestamps exclude the version are pruned
        before they are loaded.  Each part yields ``(anchor, element)``
        in its own document order, ``anchor`` being the sort token of the
        top-level record the element lives under; several parts merge on
        the anchors alone — a record lives in one chunk, so no two parts
        share one — lazily, a k-way heap merge that pulls one answer per
        part before it hands out the first, so the global order matches
        a snapshot's (:func:`~repro.storage.chunked.restore_key_order`).
        Under a fingerprinter a chunk's records are in fingerprint order,
        not key order, so the answers are collected and sorted once.
        """
        chunked = self._partitioned()

        def part_stream(archive: Archive) -> Iterator[tuple[tuple, Element]]:
            root_timestamp = archive.root.timestamp
            if root_timestamp is None:
                return iter(())
            cursor = MemoryCursor(archive, archive.root, root_timestamp, version, stats)
            return run_plan(cursor, plan, stats)

        def run_over(indices: Optional[Iterable[int]]) -> Iterator[Element]:
            streams = [
                part_stream(archive)
                for archive in self._parts(stats, indices, (version,))
            ]
            merged: Iterable[tuple[tuple, Element]]
            if chunked is not None and chunked.options.fingerprinter is not None:
                merged = sorted(
                    (item for stream in streams for item in stream), key=_ANCHOR
                )
            elif len(streams) == 1:  # every routed keyed select: nothing to merge
                merged = streams[0]
            else:
                merged = heapq.merge(*streams, key=_ANCHOR)
            return map(_ELEMENT, merged)

        def generate() -> Iterator[Element]:
            # A key lookup at the step selecting a top-level record pins
            # the record's key value, and the hash router maps a key
            # value to exactly one chunk: the query opens that one alone.
            label = plan.steps[1].lookup_label if chunked is not None else None
            if label is None:
                yield from run_over(None)
                return
            owner = chunked.chunk_index_for_label(label)
            produced = False
            for element in run_over([owner]):
                produced = True
                yield element
            if produced:
                stats.chunks_routed_past += chunked.part_count - 1
                return
            # The routed chunk answered nothing.  A key value whose
            # stored canonical form differs from the predicate's text
            # (markup, escaping) hashes elsewhere, so an empty answer is
            # only trustworthy after the other chunks scan too — misses
            # cost a fan-out, hits open exactly one chunk.
            yield from run_over(
                index for index in range(chunked.part_count) if index != owner
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
            cursor = backend._cursor(version, stats)
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
        deleted / changed, identified by key path) in key order on every
        backend, computed by the timestamp-tree-guided walk
        (:func:`~repro.core.tempquery.changes_in`).  ``path_prefix``
        keeps the changes at or beneath one key path, matched label by
        label (``.../sal`` does not match a sibling ``.../salx``; a last
        step without predicates covers every key of its tag), and prunes
        the walk to it: on ``chunked`` a prefix under one record opens
        the record's owning chunk alone.  Its steps are read as a
        :meth:`ArchiveDB.history` path's, refusals included.
        """
        self.db._check_version(self.from_version)
        self.db._check_version(self.to_version)
        stats = QueryStats()

        def generate():
            yield from self.db._changes(
                self.from_version, self.to_version, path_prefix, stats
            ).changes

        return QueryResult(generate(), CHANGES, stats)

    def report(self) -> ChangeReport:
        """The eager :class:`ChangeReport` (legacy shape)."""
        self.db._check_version(self.from_version)
        self.db._check_version(self.to_version)
        return self.db._changes(
            self.from_version, self.to_version, None, QueryStats()
        )

    def __repr__(self) -> str:
        return (
            f"RangeScope({self.from_version}..{self.to_version}, db={self.db!r})"
        )
