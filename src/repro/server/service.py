"""Snapshot-pinned reads and serialized writes over a directory of archives.

The concurrency model ``xarchd`` promises:

* **Single writer.**  Every ingest against one archive serializes
  through a per-archive :class:`threading.Lock` and publishes through
  the backend's existing WAL commit point, so at most one generation is
  ever in flight.

* **Snapshot-isolated readers.**  A read request *pins* the archive by
  opening a private, recovery-free backend (``open_archive(...,
  recover=False)``): the manifest read at open fixes the generation and
  version count, and the checksum sidecar read at open fixes the byte
  view every subsequent payload read is verified against.  The store is
  append-mostly — a published generation only extends timestamps and
  appends content — so an answer at any version the pin covers is
  byte-identical in every later generation.  Torn *logical* reads are
  therefore impossible; the only cross-generation race left is
  physical: a payload republished between the pin and a cache miss
  on it no longer hashes to the pinned checksum view and surfaces as
  :class:`~repro.storage.integrity.IntegrityError` although nothing is
  corrupt.  :meth:`ArchiveService.read` reconciles that race by
  re-pinning and retrying the whole (idempotent, generation-invariant)
  read a bounded number of times, then — last resort, since a writer
  publishing continuously can outrun lock-free retries — once more
  while holding the writer lock, where no publish can race it.  What
  still fails there is real corruption and propagates to the error
  taxonomy.

* **No reader-side recovery.**  A plain ``open_archive`` replays WAL
  recovery, which from a reader thread could roll back the writer's
  in-flight staged commit; the ``recover=False`` snapshot path skips it
  (the writer, which holds the lock, recovers on its own opens).

* **Shared pins.**  Requests that land on the same published
  generation share one open backend through a refcounted
  ``(archive, generation)`` LRU (:class:`_PinCache`) instead of
  re-opening per request; snapshot opens also share decoded chunks
  through the process-wide cache of :mod:`repro.storage.cache`.  A
  publish moves the generation, so new requests stop acquiring the old
  pin immediately; eviction waits for in-flight readers, then drops
  the backend's caches and closes it.  Which generation is published is
  itself remembered, per archive name, beside the ``(st_ino,
  st_mtime_ns, st_size)`` of the manifest file that said so: a request
  pays one ``stat`` of that file and, if nothing moved, neither resolves
  the name nor opens, parses and self-checks the manifest again.  Manifests
  are published by rename, so a new generation is a new inode whoever
  wrote it (this server, ``xarch add``, another process).  Should an
  entry ever outlive its generation (a reused inode within one
  timestamp tick), it names an older pin: answers from it are that
  generation's, still correct — a decoded-chunk cache hit answers from
  the tree that generation verified, never a mix — until its first
  miss on a re-published chunk fails the checksum and the reconcile
  below drops entry and pin.

Read callbacks must *fully materialize* their answer before returning
— the pin is released when the callback does, and laziness would leak
reads past it.  The HTTP layer streams the materialized answer to the
client afterwards; serialization cannot fail mid-stream.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, TypeVar

from ..query.db import ArchiveDB
from ..storage.backend import (
    Manifest,
    StorageBackend,
    manifest_location,
    open_archive,
    read_manifest,
)
from ..storage.integrity import IntegrityError, ManifestInconsistent
from ..xmltree.model import Element
from .errors import ApiError

T = TypeVar("T")

#: Sidecar suffixes that make a plain file *part of* an archive rather
#: than an archive itself, so the listing skips them.
_SIDECAR_SUFFIXES = (".manifest.json", ".keys", ".wal", ".tmp")

#: How many times a read re-pins before an IntegrityError is believed.
_RECONCILE_ATTEMPTS = 4


def _stamp(location: str) -> tuple[int, int, int]:
    """What tells one published manifest file from the next."""
    status = os.stat(location)
    return status.st_ino, status.st_mtime_ns, status.st_size


@dataclass
class Snapshot:
    """One pinned, read-only view of an archive.

    ``generation`` and ``last_version`` come from the manifest the
    backend read at open; every payload read through ``db`` verifies
    against the checksum view of the same open.  The attributes stay
    readable after :meth:`close` — only the backend is released.
    """

    name: str
    path: str
    generation: int
    last_version: int
    backend: StorageBackend
    db: ArchiveDB
    #: Set for snapshots served from the service's pin cache: releases
    #: the cache reference instead of closing the (shared) backend.
    release: Optional[Callable[[], None]] = field(
        default=None, repr=False, compare=False
    )
    #: Whether this pin was served from an already-open cached backend.
    cached: bool = field(default=False, compare=False)
    #: Seconds :meth:`ArchiveService.read` spent pinning and answering
    #: (the ``Server-Timing`` header).
    timing: tuple[float, float] = field(default=(0.0, 0.0), compare=False)

    def resolve_version(self, token: str) -> int:
        """A concrete version number for a request operand.

        ``"latest"`` resolves against the *pin*, so the answer stays on
        this snapshot's generation even if the writer publishes more
        versions mid-request.
        """
        if token == "latest":
            if self.last_version == 0:
                raise ApiError(
                    "version-not-archived",
                    f"Archive {self.name!r} is empty (no versions yet)",
                )
            return self.last_version
        try:
            return int(token)
        except ValueError:
            raise ApiError(
                "bad-request",
                f"Version operand {token!r} is neither an integer nor 'latest'",
            )

    def close(self) -> None:
        if self.release is not None:
            self.release()
        else:
            self.backend.close()


class _PinCache:
    """Refcounted LRU of open snapshot backends, one per
    ``(archive, generation)``.

    PR 9's reader path re-opened the archive — manifest, checksum
    sidecar, WAL probe — on *every* request, even when the pinned
    generation had not moved.  Concurrent readers at one generation now
    share a single open backend (safe: snapshot backends are read-only,
    and their decoded state is idempotent under the GIL), so repeat
    reads skip the open cost entirely and share decoded chunks through
    the process-wide cache.

    A new generation gets a new key, so stale entries stop being
    acquired the moment a publish lands; they are closed once their
    in-flight readers release them and the LRU trims past ``capacity``.
    Eviction calls the backend's ``drop_caches()`` before ``close()``
    so reader memory stays bounded by ``capacity`` live generations
    plus whatever the byte-budgeted decoded-chunk cache holds.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = max(0, int(capacity))
        self._lock = threading.Lock()
        #: ``(name, generation) -> [backend, db, refs]``
        self._entries: "OrderedDict[tuple[str, int], list]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def _close(entry: list) -> None:
        entry[0].drop_caches()
        entry[0].close()

    def _trim(self) -> None:
        # Close least-recently-used idle entries beyond capacity; busy
        # entries (refs > 0) cannot close and are skipped — the map may
        # briefly exceed capacity while every entry is in flight.
        while len(self._entries) > self.capacity:
            victim = None
            for key, entry in self._entries.items():
                if entry[2] == 0:
                    victim = key
                    break
            if victim is None:
                return
            entry = self._entries.pop(victim)
            self.evictions += 1
            self._close(entry)

    def acquire(self, key: tuple[str, int]) -> Optional[list]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            entry[2] += 1
            self.hits += 1
            return entry

    def install(self, key: tuple[str, int], backend: StorageBackend) -> list:
        """Adopt a freshly-opened backend (or join a racing install)."""
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                # Another thread installed the same pin while this one
                # was opening; join theirs and drop the duplicate open.
                existing[2] += 1
                self._entries.move_to_end(key)
                backend.close()
                return existing
            entry = [backend, ArchiveDB(backend), 1]
            self._entries[key] = entry
            self._trim()
            return entry

    def release(self, key: tuple[str, int], entry: list) -> None:
        with self._lock:
            entry[2] -= 1
            if self._entries.get(key) is not entry:
                # Evicted (or superseded) while in use: close once the
                # last in-flight reader lets go.
                if entry[2] == 0:
                    self._close(entry)
                return
            self._trim()

    def evict(self, name: str) -> None:
        """Drop every cached pin of one archive (reconcile path)."""
        with self._lock:
            doomed = [key for key in self._entries if key[0] == name]
            for key in doomed:
                entry = self._entries.pop(key)
                self.evictions += 1
                if entry[2] == 0:
                    self._close(entry)
                # else: release() closes it when the refcount drains.

    def clear(self) -> None:
        with self._lock:
            for entry in self._entries.values():
                if entry[2] == 0:
                    self._close(entry)
            self._entries.clear()


class ArchiveService:
    """Every served archive under one root directory, by name.

    An archive's *name* is its literal entry name under ``root`` — a
    file for the whole-file backend (``swissprot.xml``), a directory
    for the chunked/external backends (``omim-store``).  Names never
    contain path separators; anything resembling traversal is refused
    before it touches the filesystem.
    """

    def __init__(
        self,
        root: "str | os.PathLike",
        *,
        pin_cache_size: int = 8,
    ) -> None:
        root = os.path.abspath(os.fspath(root))
        if not os.path.isdir(root):
            raise ApiError(
                "bad-request", f"Server root {root!r} is not a directory"
            )
        self.root = root
        self._locks_guard = threading.Lock()
        self._writer_locks: dict[str, threading.Lock] = {}
        #: Open snapshot backends shared across reader requests at one
        #: ``(archive, generation)``; ``pin_cache_size=0`` restores the
        #: open-per-request behaviour.
        self.pins = _PinCache(pin_cache_size)
        #: What each served archive last published: ``name -> (path,
        #: manifest location, (st_ino, st_mtime_ns, st_size), Manifest)``.
        self._published: dict[str, tuple] = {}

    # -- naming ------------------------------------------------------------

    def _resolve(self, name: str) -> str:
        if (
            not name
            or name != os.path.basename(name)
            or name in (".", "..")
            or name.startswith(".")
        ):
            raise ApiError("bad-request", f"Invalid archive name {name!r}")
        path = os.path.join(self.root, name)
        if not self._is_archive(path):
            raise ApiError(
                "archive-not-found",
                f"No archive named {name!r} on this server",
            )
        return path

    @staticmethod
    def _is_archive(path: str) -> bool:
        """Whether ``path`` carries a manifest: nothing else is served
        (a bare stray file or directory under the root is not an
        archive, and neither is one of an archive's own sidecars)."""
        if os.path.isfile(path) and path.endswith(_SIDECAR_SUFFIXES):
            return False
        return os.path.exists(path) and os.path.exists(manifest_location(path))

    def list_archives(self) -> list[dict]:
        """Name, kind and published generation of every served archive."""
        records = []
        for entry in sorted(os.listdir(self.root)):
            path = os.path.join(self.root, entry)
            if not self._is_archive(path):
                continue
            manifest = read_manifest(path)
            if manifest is None:
                continue  # removed since the listing
            records.append(
                {
                    "name": entry,
                    "kind": manifest.kind,
                    "generation": manifest.generation,
                    "versions": manifest.version_count,
                    "codec": manifest.codec,
                }
            )
        return records

    # -- the reader path ---------------------------------------------------

    def _manifest(self, name: str) -> tuple[str, Optional[Manifest]]:
        """The archive's path and the manifest it has published: from
        ``_published`` when one ``stat`` finds the manifest file unmoved
        (module docstring), else resolved and read as ever.  The
        ``stat`` precedes the read, so a publish between the two leaves
        an entry that misses next time, never one that hides a generation.
        """
        memo = self._published.get(name)
        if memo is not None:
            try:
                if _stamp(memo[1]) == memo[2]:
                    return memo[0], memo[3]
            except OSError:
                pass
            self._published.pop(name, None)
        path = self._resolve(name)
        location = manifest_location(path)
        try:
            stamp = _stamp(location)
            manifest = read_manifest(path)
        except (OSError, ManifestInconsistent):
            return path, None
        if manifest is not None:
            self._published[name] = (path, location, stamp, manifest)
        return path, manifest

    def pin(self, name: str) -> Snapshot:
        """Pin a recovery-free snapshot of one archive.

        The published manifest names the generation; when the pin cache
        already holds an open backend for ``(name, generation)``, the
        request shares it (refcounted) instead of re-opening the
        archive.  Misses — and archives whose manifest does not read,
        whose generation cannot be pinned by key — open privately, the
        opened backend joining the cache on the miss path.
        """
        if self.pins.capacity == 0:
            path, manifest = self._resolve(name), None
        else:
            path, manifest = self._manifest(name)
        if manifest is not None:
            key = (name, manifest.generation)
            entry = self.pins.acquire(key)
            cached = entry is not None
            if entry is None:
                backend = open_archive(path, recover=False)
                # The writer may have published between the manifest
                # read and the open; key by what the open saw.
                key = (name, backend.generation)
                entry = self.pins.install(key, backend)
            backend, db, _ = entry
            return Snapshot(
                name=name,
                path=path,
                generation=backend.generation,
                last_version=backend.last_version,
                backend=backend,
                db=db,
                release=lambda: self.pins.release(key, entry),
                cached=cached,
            )
        backend = open_archive(path, recover=False)
        return Snapshot(
            name=name,
            path=path,
            generation=backend.generation,
            last_version=backend.last_version,
            backend=backend,
            db=ArchiveDB(backend),
        )

    def _read_once(
        self, name: str, fn: Callable[[Snapshot], T]
    ) -> tuple[Snapshot, T]:
        start = time.perf_counter()
        snapshot = self.pin(name)
        pinned = time.perf_counter()
        try:
            value = fn(snapshot)
        finally:
            snapshot.close()
        snapshot.timing = (pinned - start, time.perf_counter() - pinned)
        return snapshot, value

    def read(
        self, name: str, fn: Callable[[Snapshot], T]
    ) -> tuple[Snapshot, T]:
        """Run one fully-materializing read callback against a pin.

        Returns the snapshot (already closed) alongside the value, so
        the caller can report the generation the answer came from.  On
        :class:`IntegrityError` the read re-pins and retries — the
        checksum-reconcile loop described in the module docstring —
        because reads are generation-invariant for any version their
        pin covers.  After ``_RECONCILE_ATTEMPTS`` lock-free tries the
        final attempt runs under the writer lock, which separates real
        corruption (still fails, propagates) from a relentless writer
        (cannot race a locked read).
        """
        for attempt in range(_RECONCILE_ATTEMPTS):
            try:
                # The pin itself can race a publish too (sidecar read,
                # then a payload verified during open), so it sits
                # inside the retried block alongside the callback.
                return self._read_once(name, fn)
            except IntegrityError:
                # A cached pin whose byte view went stale must not be
                # handed to the retry (or any other reader) again, and
                # neither must the manifest that named it.
                self._published.pop(name, None)
                self.pins.evict(name)
                # Let an in-flight publish finish renaming before the
                # next pin re-reads manifest + checksums + payloads.
                time.sleep(0.005 * (attempt + 1))
        # A writer publishing continuously can outrun every lock-free
        # retry.  The last resort holds the writer lock across the pin
        # and the read, so no publish can race it — what fails here is
        # corruption, not a race, and propagates to the taxonomy.
        with self._writer_lock(name):
            return self._read_once(name, fn)

    # -- the writer path ---------------------------------------------------

    def _writer_lock(self, name: str) -> threading.Lock:
        with self._locks_guard:
            lock = self._writer_locks.get(name)
            if lock is None:
                lock = self._writer_locks[name] = threading.Lock()
            return lock

    def ingest(
        self, name: str, documents: Iterable[Optional[Element]]
    ) -> dict:
        """Merge a sequence of version documents under the writer lock.

        The backend opens with recovery enabled (the lock guarantees no
        other writer's commit can be in flight) and publishes the whole
        batch through one WAL commit, so concurrent readers observe the
        generation either entirely before or entirely after it.
        """
        documents = list(documents)
        if not documents:
            raise ApiError(
                "bad-request", "Ingest payload contained no versions"
            )
        path = self._resolve(name)
        with self._writer_lock(name):
            backend = open_archive(path)
            try:
                base = backend.last_version
                stats = backend.ingest_batch(iter(documents))
                return {
                    "ingested": stats.versions,
                    "base_version": base,
                    "last_version": backend.last_version,
                    "generation": backend.generation,
                    "merge": {
                        "nodes_matched": stats.nodes_matched,
                        "nodes_inserted": stats.nodes_inserted,
                        "frontier_content_changes": stats.frontier_content_changes,
                        "records_kept": stats.records_kept,
                        "nodes_kept": stats.nodes_kept,
                    },
                }
            finally:
                backend.close()
