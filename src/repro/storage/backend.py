"""The unified storage contract: one read/write surface per archive.

Three persistence strategies grew out of the paper's sections — the
whole-file archive the CLI speaks (Fig. 5 XML on disk), the key-hash
:class:`~repro.storage.chunked.ChunkedArchiver` (Sec. 5) and the
event-stream :class:`~repro.storage.archiver.ExternalArchiver`
(Sec. 6).  :class:`StorageBackend` is the protocol they all implement,
so ingestion, retrieval, temporal queries and the CLI are written once
against the contract and every future backend (sharded, cached,
service-fronted) plugs into the same seam.

Each archive is self-describing: a ``manifest.json`` (a sidecar
``<archive>.manifest.json`` for single-file archives) records the
backend kind, a fingerprint of the key specification and the version
count, so :func:`open_archive` can route a path to the right backend
without being told.  Durable backends publish every mutation through
the write-ahead commit log of :mod:`repro.storage.wal`: a crash at any
point leaves the archive readable at a version-count boundary, never a
torn mix of files.
"""

from __future__ import annotations

import abc
import functools
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Protocol

from ..core.archive import (
    Archive,
    ArchiveError,
    ArchiveOptions,
    ArchiveStats,
    ElementHistory,
)
from ..core.ingest import IngestSession
from ..core.merge import MergeStats
from ..core.tempquery import ChangeReport, archive_diff
from ..core.tstree import ProbeCount
from ..core.versionset import VersionSet
from ..keys.spec import KeySpec
from ..xmltree.model import Element
from .cache import chunk_cache
from .codec import Codec, CodecLike, get_codec, sniff_codec
from .integrity import (
    ManifestInconsistent,
    _self_digest,
    checksum_entry,
    validate_policy,
    verify_bytes,
)
from .wal import WriteAheadLog, atomic_write_text

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = 1

#: Per-version ingest progress callback: ``(version_number, stats)``.
OnVersion = Optional[Callable[[int, MergeStats], None]]


# -- the manifest -------------------------------------------------------------


@dataclass
class Manifest:
    """The self-describing header every archive carries on disk.

    ``generation`` is the archive's publication counter: it advances by
    one with every WAL commit that publishes new state (ingest batch,
    single version, recode), and the manifest carrying it publishes
    inside that same commit — so a manifest read *is* a consistent
    snapshot pin.  Readers that capture a generation can stream against
    it to completion: the store is append-mostly, so answers about
    versions the pinned generation already held never change under
    later publications.
    """

    kind: str
    key_spec_hash: str
    version_count: int
    codec: str = "raw"
    generation: int = 0
    format_version: int = MANIFEST_FORMAT
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        record = {
            "format": self.format_version,
            "kind": self.kind,
            "codec": self.codec,
            "generation": self.generation,
            "key_spec_hash": self.key_spec_hash,
            "version_count": self.version_count,
        }
        if self.extra:
            record["extra"] = self.extra
        # Self-checksum: a flipped bit in the manifest is detected as a
        # typed IntegrityError, not trusted as different metadata.
        record["sha256"] = _self_digest(record)
        return json.dumps(record, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        try:
            record = json.loads(text)
        except ValueError as error:
            raise ManifestInconsistent(f"Malformed archive manifest: {error}")
        if not isinstance(record, dict) or "kind" not in record:
            raise ManifestInconsistent(
                "Malformed archive manifest: no backend kind"
            )
        recorded = record.pop("sha256", None)
        if recorded is not None and _self_digest(record) != recorded:
            raise ManifestInconsistent(
                "Archive manifest fails its self-checksum (corrupt manifest)"
            )
        return cls(
            kind=record["kind"],
            key_spec_hash=record.get("key_spec_hash", ""),
            version_count=int(record.get("version_count", 0)),
            codec=record.get("codec", "raw"),
            generation=int(record.get("generation", 0)),
            format_version=int(record.get("format", MANIFEST_FORMAT)),
            extra=record.get("extra", {}),
        )


def key_spec_fingerprint(spec: KeySpec) -> str:
    """Content hash of a key specification (its textual form)."""
    return hashlib.sha256(str(spec).encode("utf-8")).hexdigest()


@dataclass
class RecodeReport:
    """What one :meth:`StorageBackend.recode` rewrite did."""

    path: str
    kind: str
    old_codec: str
    new_codec: str
    #: Payload files rewritten (chunk files, archive file or stream).
    files: int
    disk_bytes_before: int
    disk_bytes_after: int

    def __str__(self) -> str:
        return (
            f"recoded {self.kind} archive {self.path}: "
            f"{self.old_codec} -> {self.new_codec}, {self.files} file(s), "
            f"{self.disk_bytes_before} -> {self.disk_bytes_after} bytes on disk"
        )


def verify_recoded_document(text: str, encoded: bytes, codec: Codec) -> None:
    """Identity check before a recode publishes: the staged payload must
    decode to a document value-equal to the source.  Raises
    :class:`ArchiveError` instead of letting a lossy encode commit."""
    from ..xmltree.parser import parse_document
    from ..xmltree.value import value_equal

    decoded = codec.decode_document(encoded)
    if decoded != text and not value_equal(
        parse_document(decoded), parse_document(text)
    ):
        raise ArchiveError(
            f"Recode verification failed: {codec.name} round-trip does not "
            f"preserve the document"
        )


def manifest_location(path: "str | os.PathLike") -> str:
    """Where an archive at ``path`` keeps its manifest."""
    path = os.fspath(path)
    if os.path.isdir(path):
        return os.path.join(path, MANIFEST_NAME)
    return path + ".manifest.json"


def keys_location(path: "str | os.PathLike") -> str:
    """Where an archive at ``path`` keeps its key specification text."""
    path = os.fspath(path)
    if os.path.isdir(path):
        return os.path.join(path, "archive.keys")
    return path + ".keys"


def read_manifest(path: str) -> Optional[Manifest]:
    """The archive's manifest, or ``None`` for pre-manifest archives."""
    location = manifest_location(path)
    try:
        with open(location, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        return None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as error:
        raise ManifestInconsistent(
            f"Archive manifest {location!r} is not valid UTF-8 "
            f"(corrupt manifest): {error}"
        )
    return Manifest.from_json(text)


# -- the storage contract -----------------------------------------------------


def mutation(write):
    """Decorator for a backend's write methods; the one failure rule of
    every write, on every backend: *in-memory state moves only after
    the commit lands.*

    Whatever stops the decorated ``add_version``, ``ingest_batch``,
    ``recode`` or ``persist`` — a document Nested Merge rejects
    half-way, an I/O error or an injected fault at any write, fsync or
    rename — the handle forgets every decoded tree it may have merged
    into and reloads from what is durable
    (:meth:`StorageBackend._reload`) before the error reaches the
    caller.  It then reports the version count the disk holds, and its
    next write produces the bytes a freshly opened handle would.  A
    write that failed *after* its commit point is rolled forward by
    that reload, exactly as a reopen would roll it: the handle then
    reports the new version.
    """

    @functools.wraps(write)
    def guarded(self, *args, **kwargs):
        try:
            return write(self, *args, **kwargs)
        except BaseException as error:
            try:
                self._reload()
            except Exception as reload_error:
                # The disk will not be read back right now either.  The
                # write's own failure is the one to report; the trees
                # are gone already (``_load_state`` drops them first).
                error.add_note(
                    f"{type(self).__name__} could not reload its state "
                    f"afterwards ({reload_error!r}); reopen the archive"
                )
            raise

    return guarded


class StorageBackend(abc.ABC):
    """One archive's read/write surface, whatever its on-disk shape.

    Version numbers are global and monotonic (1-based); ``retrieve``
    returns ``None`` for an empty version; keyed siblings come back in
    key order from every backend, so retrievals are byte-identical
    across backends.  ``history``/``diff`` use the keyed-path syntax of
    :meth:`repro.core.archive.Archive.history`.
    """

    #: Manifest tag for this backend's on-disk layout.
    kind: str = "abstract"
    #: Whether ``retrieve`` fills a :class:`ProbeCount` when given one.
    supports_probes: bool = False

    spec: KeySpec
    #: Filesystem anchor of the archive — a directory or a single file;
    #: every backend sets it, and manifest placement derives from it.
    storage_root: str
    #: At-rest encoding of the archive's payload files (recorded in the
    #: manifest; plain sidecars — keys, presence, versions.txt — are
    #: never encoded).  Every backend sets it in ``__init__``.
    codec: Codec
    #: Publication counter: +1 per WAL commit that publishes new state.
    #: Loaded from the manifest at open, written back inside every
    #: commit — the snapshot pin concurrent readers anchor to.
    generation: int = 0

    @property
    @abc.abstractmethod
    def last_version(self) -> int:
        """The highest archived version number (0 when empty)."""

    @abc.abstractmethod
    def add_version(self, document: Optional[Element]) -> MergeStats:
        """Merge the next version (``None`` records an empty version)."""

    def ingest_batch(
        self, documents: Iterable[Optional[Element]], on_version: OnVersion = None
    ) -> MergeStats:
        """Merge a sequence of versions; ``on_version(number, stats)``
        fires per landed version where the backend merges
        version-at-a-time (batch-oriented backends may skip it)."""
        total = MergeStats()
        for document in documents:
            stats = self.add_version(document)
            total.accumulate(stats)
            total.versions += 1
            if on_version is not None:
                on_version(self.last_version, stats)
        return total

    @abc.abstractmethod
    def retrieve(
        self, version: int, *, probes: Optional[ProbeCount] = None
    ) -> Optional[Element]:
        """Reconstruct one version (``probes`` collected when supported)."""

    @abc.abstractmethod
    def history(self, path: str) -> ElementHistory:
        """Temporal history of the element at a keyed path."""

    @abc.abstractmethod
    def diff(self, from_version: int, to_version: int) -> ChangeReport:
        """Element-level changes between two archived versions."""

    @abc.abstractmethod
    def stats(self) -> ArchiveStats:
        """Size/shape counters of the archive."""

    @abc.abstractmethod
    def recode(self, codec: CodecLike) -> RecodeReport:
        """Rewrite the archive's payload files under another codec.

        Atomic and identity-verified: every re-encoded payload is
        staged through the write-ahead log, checked to decode back to
        the same document (or stream) it was encoded from, and
        published together with the manifest recording the new codec —
        a crash at any point leaves the archive wholly in the old or
        wholly in the new encoding, never a mix.  Recoding to the
        current codec is a no-op rewrite and still verifies.
        """

    def manifest(self) -> Manifest:
        """The manifest describing this backend's current state."""
        return Manifest(
            kind=self.kind,
            key_spec_hash=key_spec_fingerprint(self.spec),
            version_count=self.last_version,
            codec=self.codec.name,
            generation=self.generation,
            extra=self._manifest_extra(),
        )

    def _manifest_extra(self) -> dict:
        return {}

    def manifest_path(self) -> str:
        return manifest_location(self.storage_root)

    def write_manifest(self) -> None:
        """Publish the manifest alone (atomic on its own).

        Backends whose mutations publish several files stage the
        manifest inside their WAL commit instead and use this only at
        archive-creation time."""
        text = self.manifest().to_json()
        atomic_write_text(self.manifest_path(), text)
        self._on_manifest_written(text)

    def _on_manifest_written(self, text: str) -> None:
        """Hook for backends that track the manifest in their checksum
        sidecar (the sidecar must follow a standalone manifest write)."""

    def _reload(self) -> None:
        manifest = self._load_state()
        if manifest is not None:
            # A recode that died mid-publish rolls forward on recovery.
            self.codec = get_codec(manifest.codec)

    @abc.abstractmethod
    def _load_state(self) -> "Optional[Manifest]":
        """(Re)read every piece of in-memory state from what is durable
        — settling an interrupted commit first, on handles that run
        recovery — and drop decoded trees; returns the manifest found.
        Constructors call it once; :meth:`_reload` after a failed write
        (see :func:`mutation`).
        """

    def db(self):
        """An :class:`~repro.query.db.ArchiveDB` facade over this
        backend — the planned, index-aware query surface (temporal
        XPath, change streams, history) every backend shares."""
        from ..query.db import ArchiveDB  # local: query builds on storage

        return ArchiveDB(self)

    def drop_caches(self) -> None:
        """Drop decoded in-memory state held by this handle.

        The next read reloads from disk (or hits the process-wide
        decoded-chunk cache, whose size the LRU budget bounds).  The
        server calls this when it evicts a pinned snapshot so long-lived
        reader handles never pin decoded trees of their own."""

    def close(self) -> None:
        """Release resources; the archive stays durable on disk."""

    def __enter__(self) -> "StorageBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PartitionedBackend(Protocol):
    """A backend whose archive is stored as independently-loadable
    parts sharing the global version numbering — the contract
    :class:`~repro.storage.archiver.PersistentIngestor` maintains its
    per-part key and timestamp-tree indexes against.
    """

    spec: KeySpec

    @property
    def last_version(self) -> int: ...

    @property
    def part_count(self) -> int: ...

    def part_exists(self, index: int) -> bool: ...

    def load_part(self, index: int) -> Archive: ...

    def part_presence(self, index: int) -> Optional[VersionSet]: ...

    def chunk_index_for_label(self, label) -> int: ...

    def ingest_batch(
        self,
        documents: Iterable[Optional[Element]],
        on_chunk: Optional[Callable[[int, Archive], None]] = None,
        on_version: OnVersion = None,
    ) -> MergeStats: ...


# -- the whole-file backend ---------------------------------------------------


class FileBackend(StorageBackend):
    """The CLI's original persistence path behind the protocol: one
    Fig. 5 ``<T>``-tagged XML file holding the whole archive.

    The archive is loaded lazily and persisted after every mutation
    through the write-ahead log — the XML and the manifest sidecar
    publish together, so a crash leaves both at the same version count.
    The simplest backend, and the fastest for archives that fit in
    memory; the chunked and external backends take over beyond that.
    """

    kind = "file"
    supports_probes = True

    def __init__(
        self,
        path: "str | os.PathLike",
        spec: KeySpec,
        options: Optional[ArchiveOptions] = None,
        codec: CodecLike = None,
        verify: str = "always",
        workers: int = 1,
        recover: bool = True,
        cache_reads: bool = False,
    ) -> None:
        self.path = os.path.abspath(os.fspath(path))
        #: Accepted for interface uniformity with the chunked backend;
        #: a single-file archive has no independent parts to fan out.
        self.workers = max(1, int(workers))
        self.storage_root = self.path
        self.spec = spec
        self.options = options or ArchiveOptions()
        self.verify = validate_policy(verify)
        self._wal = WriteAheadLog(self.path + ".wal")
        self._recover = recover
        #: Read-only handles share the decoded archive through the
        #: process-wide decoded-chunk cache; write paths always work on
        #: a privately-owned instance (see ``_ensure_private_archive``).
        self.cache_reads = cache_reads
        self.cache_hits = 0
        self.cache_misses = 0
        self._load_state()
        # An explicit codec wins; otherwise an existing file's magic
        # bytes decide (new archives start raw).
        self.codec = (
            get_codec(codec) if codec is not None else sniff_codec(self.path)
        )

    def _load_state(self) -> Optional[Manifest]:
        """(Re)read what is durable; returns the manifest.

        Run by the constructor and again after any failed write: an
        interrupted commit is settled first (on handles that recover),
        the payload checksum and the generation come from the manifest,
        and the in-memory archive is dropped, to be decoded again from
        the settled file on next use.
        """
        self._archive: Optional[Archive] = None
        self._archive_shared = False
        if self._recover:
            self._wal.recover(
                stray_tmps=(self.path + ".tmp", self.manifest_path() + ".tmp")
            )
        # The payload's recorded checksum lives in the manifest (the
        # whole-file backend has exactly one payload, so no sidecar).
        manifest = read_manifest(self.path)
        self._payload_checksum: Optional[dict] = (
            manifest.extra.get("payload") if manifest is not None else None
        )
        self.generation = manifest.generation if manifest is not None else 0
        self._verified = False
        return manifest

    def _read_payload(self) -> Optional[bytes]:
        """The verified at-rest bytes, or ``None`` when nothing is stored.

        The payload is verified against the manifest's recorded
        checksum under the backend's ``verify`` policy before the codec
        touches it — corruption surfaces as a typed
        :class:`~repro.storage.integrity.IntegrityError`, not a decode
        failure."""
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return None
        if self.verify != "never" and not (self.verify == "open" and self._verified):
            verify_bytes(os.path.basename(self.path), data, self._payload_checksum)
            self._verified = True
        return data

    def _read_text(self) -> Optional[str]:
        """The decoded archive XML (``None`` when nothing is stored)."""
        data = self._read_payload()
        if data is None:
            return None
        return self.codec.decode_document(data)

    def _cache_token(self):
        """Staleness token for the payload's cache key (``None``: skip).

        The manifest-recorded sha256 when present (precise: every
        publish rewrites it), the generation otherwise (coarser), no
        caching for bare pre-manifest files."""
        if self._payload_checksum and self._payload_checksum.get("sha256"):
            return self._payload_checksum["sha256"]
        if self.generation > 0:
            return ("gen", self.generation)
        return None

    @property
    def archive(self) -> Archive:
        """The in-memory archive, loaded from disk on first use.

        Read-caching handles may hand back an instance shared with
        other handles through the decoded-chunk cache — fine for every
        read (retrieval copy-on-writes content out), never for
        mutation, which goes through :meth:`_ensure_private_archive`.
        """
        if self._archive is None:
            data = self._read_payload()
            if data is None:
                self._archive = Archive(self.spec, self.options)
                return self._archive
            key = None
            cache = None
            if self.cache_reads:
                token = self._cache_token()
                cache = chunk_cache()
                if token is not None and cache.enabled:
                    key = (self.path, 0, token)
                    cached = cache.get(key)
                    if cached is not None:
                        self.cache_hits += 1
                        self._archive = cached
                        self._archive_shared = True
                        return cached
                    self.cache_misses += 1
            self._archive = self.codec.decode_archive(
                data, self.spec, self.options
            )
            if key is not None:
                cache.put(key, self._archive, len(data))
                self._archive_shared = True  # shared with the cache now
        return self._archive

    def _ensure_private_archive(self) -> Archive:
        """A privately-owned archive instance, for mutation.

        Writers mutate the decoded archive in place, which must never
        touch an instance other readers share through the cache — so a
        shared (or not-yet-loaded) archive is decoded fresh, bypassing
        the cache entirely."""
        if self._archive is None or self._archive_shared:
            data = self._read_payload()
            self._archive = (
                self.codec.decode_archive(data, self.spec, self.options)
                if data is not None
                else Archive(self.spec, self.options)
            )
            self._archive_shared = False
        return self._archive

    def drop_caches(self) -> None:
        self._archive = None
        self._archive_shared = False

    def _manifest_extra(self) -> dict:
        if self._payload_checksum is not None:
            return {"payload": self._payload_checksum}
        return {}

    @mutation
    def persist(self) -> None:
        """Publish the encoded archive and manifest in one atomic commit."""
        self._publish(self.codec)

    def _publish(self, codec: Codec, encoded: Optional[bytes] = None) -> None:
        """Commit the archive encoded under ``codec`` plus its manifest;
        checksum, generation and codec move once that has landed."""
        if encoded is None:
            encoded = codec.encode_archive(self.archive)
        checksum = checksum_entry(encoded)
        manifest = self.manifest()
        manifest.codec = codec.name
        manifest.generation += 1
        manifest.extra = {"payload": checksum}
        commit = self._wal.begin()
        try:
            commit.stage(self.path, encoded)
            commit.stage(self.manifest_path(), manifest.to_json())
        except BaseException:
            commit.abort()  # staging failed: nothing durable yet
            raise
        # A failure *during* commit must not abort: WAL recovery (run
        # by ``_reload``, or by the next open) decides roll-back vs
        # roll-forward.
        commit.commit(meta={"version_count": self.last_version})
        self._payload_checksum = checksum
        self.generation += 1
        self.codec = codec
        if self.cache_reads:
            # Stale-token entries would only age out of the LRU; a
            # read-caching handle that writes drops them eagerly so the
            # budget isn't spent on unreachable generations.
            chunk_cache().invalidate(self.path)

    @property
    def last_version(self) -> int:
        return self.archive.last_version

    @mutation
    def add_version(self, document: Optional[Element]) -> MergeStats:
        stats = self._ensure_private_archive().add_version(document)
        self._publish(self.codec)
        return stats

    @mutation
    def ingest_batch(
        self, documents: Iterable[Optional[Element]], on_version: OnVersion = None
    ) -> MergeStats:
        """Batch under a shared fingerprint memo; one publish at the end."""
        session = IngestSession(self._ensure_private_archive())
        for document in documents:
            stats = session.add(document)
            if on_version is not None:
                on_version(self.archive.last_version, stats)
        self._publish(self.codec)
        return session.stats

    def retrieve(
        self, version: int, *, probes: Optional[ProbeCount] = None
    ) -> Optional[Element]:
        return self.archive.retrieve(version, probes=probes)

    def scan_probe_count(self, version: int) -> int:
        """The full-scan baseline ``--probes`` reports against."""
        return self.archive.scan_probe_count(version)

    def history(self, path: str) -> ElementHistory:
        return self.archive.history(path)

    def diff(self, from_version: int, to_version: int) -> ChangeReport:
        return archive_diff(self.archive, from_version, to_version)

    def stats(self) -> ArchiveStats:
        stats = self.archive.stats()
        stats.raw_bytes = stats.serialized_bytes
        try:
            stats.disk_bytes = os.path.getsize(self.path)
        except OSError:
            stats.disk_bytes = stats.raw_bytes  # never persisted yet
        stats.generation = self.generation
        stats.cache_hits = self.cache_hits
        stats.cache_misses = self.cache_misses
        stats.cache_evictions = chunk_cache().evictions
        return stats

    @mutation
    def recode(self, codec: CodecLike) -> RecodeReport:
        """Re-encode the archive file in place (WAL-staged, verified)."""
        target = get_codec(codec)
        old = self.codec
        before = os.path.getsize(self.path) if os.path.exists(self.path) else 0
        # The in-memory archive (loaded under the old codec) is
        # unchanged by this; only the at-rest encoding moves.
        encoded = target.encode_archive(self.archive)
        verify_recoded_document(self.archive.to_xml_string(), encoded, target)
        self._publish(target, encoded)
        return RecodeReport(
            path=self.path,
            kind=self.kind,
            old_codec=old.name,
            new_codec=target.name,
            files=1,
            disk_bytes_before=before,
            disk_bytes_after=os.path.getsize(self.path),
        )


# -- opening and creating archives --------------------------------------------

BACKEND_KINDS = ("file", "chunked", "external")


def detect_backend_kind(path: "str | os.PathLike") -> str:
    """The backend kind stored at ``path``.

    The manifest decides when present; pre-manifest archives fall back
    to layout sniffing (an ``archive.jsonl`` stream is external, chunk
    files are chunked, a plain file is a whole-file archive).
    """
    path = os.fspath(path)
    if os.path.isdir(path):
        manifest = read_manifest(path)
        if manifest is not None:
            return manifest.kind
        if os.path.exists(os.path.join(path, "archive.jsonl")):
            return "external"
        if (
            os.path.exists(os.path.join(path, "versions.txt"))
            # A pending commit log means a chunked archive crashed
            # mid-publish before its manifest landed; opening it runs
            # the recovery that completes (or rolls back) the commit.
            or os.path.exists(os.path.join(path, "wal.json"))
            or any(
                name.startswith("chunk-") and name.endswith(".xml")
                for name in os.listdir(path)
            )
        ):
            return "chunked"
        raise ArchiveError(f"{path!r} is not an archive directory")
    if os.path.isfile(path):
        manifest = read_manifest(path)
        return manifest.kind if manifest is not None else "file"
    raise ArchiveError(f"No archive at {path!r}")


def _load_spec_text(
    path: str, keys_file: "Optional[str | os.PathLike]"
) -> str:
    location = os.fspath(keys_file) if keys_file is not None else keys_location(path)
    try:
        with open(location, "r", encoding="utf-8") as handle:
            return handle.read()
    except FileNotFoundError:
        raise ArchiveError(
            f"Key specification {location!r} not found "
            f"(run 'xarch init' or pass --keys)"
        )


def _infer_chunk_count(path: str) -> int:
    """Best-effort chunk count for pre-manifest chunked directories."""
    highest = -1
    for name in os.listdir(path):
        if name.startswith("chunk-") and name.endswith(".xml"):
            try:
                highest = max(highest, int(name[len("chunk-") : -len(".xml")]))
            except ValueError:
                continue
    return highest + 1 if highest >= 0 else 8


def _sniff_backend_codec(path: str, kind: str) -> Codec:
    """Codec of a manifest-less archive, from its payload magic bytes."""
    if kind == "file":
        return sniff_codec(path)
    if kind == "external":
        return sniff_codec(os.path.join(path, "archive.jsonl"))
    for name in sorted(os.listdir(path)):
        if name.startswith("chunk-") and name.endswith(".xml"):
            return sniff_codec(os.path.join(path, name))
    return get_codec(None)


def open_archive(
    path: "str | os.PathLike",
    spec: Optional[KeySpec] = None,
    *,
    keys_file: "Optional[str | os.PathLike]" = None,
    options: Optional[ArchiveOptions] = None,
    verify: str = "always",
    on_corrupt: str = "raise",
    workers: int = 1,
    recover: bool = True,
    cache_reads: Optional[bool] = None,
) -> StorageBackend:
    """Open an existing archive, auto-detecting its backend and codec.

    ``spec`` (or the key text at ``keys_file`` / the archive's keys
    sidecar) supplies the key specification; when the archive carries a
    manifest, the spec is checked against the recorded fingerprint so a
    wrong keys file fails loudly instead of mis-merging.  The at-rest
    codec comes from the manifest, falling back to magic-byte sniffing
    for manifest-less layouts.

    ``verify`` sets the checksum policy for reads (``"always"``,
    ``"open"`` — once per file per handle — or ``"never"``);
    ``on_corrupt`` sets the chunked backend's per-chunk degradation
    policy (``"raise"`` or ``"skip"`` corrupt chunks during retrieval).
    ``workers`` sets the chunk-loop parallelism (a runtime knob, never
    recorded in the manifest): batch ingest, recode and chunk query
    fan-out on the chunked backend run per-chunk work in a process
    pool when it is above 1.
    ``recover=False`` opens without running WAL recovery — required for
    read-only snapshot opens that run concurrently with a live writer,
    where replaying (or rolling back) the writer's in-flight staged
    commit from a reader thread would corrupt the publication protocol.
    ``cache_reads`` opts the handle into the process-wide decoded-chunk
    cache (:mod:`repro.storage.cache`); the default follows ``recover``
    — snapshot opens (``recover=False``) are read handles and share
    decoded chunks, recovery-running opens are write-capable and don't.
    """
    from .archiver import ExternalArchiver  # local: avoids an import cycle
    from .chunked import ChunkedArchiver

    path = os.fspath(path)
    kind = detect_backend_kind(path)
    # Settle any interrupted commit before reading the manifest: a
    # crash mid-publish (of a batch or a recode) may have left the
    # manifest — and the codec/chunk-count it records — staged but not
    # yet renamed.
    if recover:
        if os.path.isdir(path):
            WriteAheadLog(os.path.join(path, "wal.json")).recover(
                stray_tmps=[
                    os.path.join(path, name)
                    for name in os.listdir(path)
                    if name.endswith(".tmp")
                ]
            )
        else:
            WriteAheadLog(path + ".wal").recover(
                stray_tmps=(path + ".tmp", manifest_location(path) + ".tmp")
            )
    if spec is None:
        from ..keys.keyparser import parse_key_spec

        spec = parse_key_spec(_load_spec_text(path, keys_file))
    manifest = read_manifest(path)
    if manifest is not None and manifest.key_spec_hash:
        if manifest.key_spec_hash != key_spec_fingerprint(spec):
            raise ManifestInconsistent(
                f"Key specification does not match the one {path!r} was "
                f"created with (manifest fingerprint mismatch)"
            )
    codec = (
        get_codec(manifest.codec)
        if manifest is not None
        else _sniff_backend_codec(path, kind)
    )
    if cache_reads is None:
        cache_reads = not recover
    if kind == "file":
        return FileBackend(
            path,
            spec,
            options,
            codec=codec,
            verify=verify,
            workers=workers,
            recover=recover,
            cache_reads=cache_reads,
        )
    if kind == "chunked":
        if manifest is not None and "chunk_count" in manifest.extra:
            chunk_count = int(manifest.extra["chunk_count"])
        else:
            chunk_count = _infer_chunk_count(path)
        return ChunkedArchiver(
            path,
            spec,
            chunk_count,
            options,
            codec=codec,
            verify=verify,
            on_corrupt=on_corrupt,
            workers=workers,
            recover=recover,
            cache_reads=cache_reads,
        )
    if kind == "external":
        if options is not None and options.compaction:
            # Reject loudly, exactly like create_archive: silently
            # ignoring the flag would hand back a non-compacted archive.
            raise ArchiveError("The external backend does not store weaves")
        return ExternalArchiver(
            path,
            spec,
            codec=codec,
            verify=verify,
            workers=workers,
            recover=recover,
            cache_reads=cache_reads,
        )
    raise ArchiveError(f"Unknown backend kind {kind!r} in {path!r} manifest")


def _clear_archive(path: str) -> None:
    """Remove an existing archive so ``force`` recreation starts empty.

    Deletes only what is recognizably an archive: a plain file (plus
    its manifest/keys/WAL sidecars) or a directory whose layout
    :func:`detect_backend_kind` accepts.  A populated directory that is
    *not* an archive is refused rather than destroyed.
    """
    import shutil

    if os.path.isfile(path):
        for target in (
            path,
            manifest_location(path),
            keys_location(path),
            path + ".wal",
        ):
            if os.path.exists(target):
                os.remove(target)
        return
    try:
        detect_backend_kind(path)
    except ArchiveError:
        raise ArchiveError(
            f"{path!r} exists and is not an archive; refusing to overwrite it"
        )
    shutil.rmtree(path)


def create_archive(
    path: "str | os.PathLike",
    spec_text: str,
    kind: str = "file",
    *,
    chunk_count: int = 8,
    options: Optional[ArchiveOptions] = None,
    force: bool = False,
    codec: CodecLike = None,
    workers: int = 1,
) -> StorageBackend:
    """Create an empty archive of the given backend kind at ``path``.

    Writes the keys sidecar and the manifest (recording the chosen
    at-rest ``codec``), so every later :func:`open_archive` needs only
    the path.
    """
    from ..keys.keyparser import parse_key_spec

    from .archiver import ExternalArchiver  # local: avoids an import cycle
    from .chunked import ChunkedArchiver

    path = os.fspath(path)
    if kind not in BACKEND_KINDS:
        raise ArchiveError(
            f"Unknown backend kind {kind!r} (choose from {', '.join(BACKEND_KINDS)})"
        )
    at_rest = get_codec(codec)  # validate before touching the disk
    spec = parse_key_spec(spec_text)
    occupied = (
        os.path.isfile(path)
        or (os.path.isdir(path) and bool(os.listdir(path)))
    )
    if occupied and not force:
        raise ArchiveError(f"{path!r} exists (use --force)")
    if occupied:
        _clear_archive(path)  # force: reinitialize, don't adopt
    if kind == "external" and options is not None and options.compaction:
        raise ArchiveError("The external backend does not store weaves")
    if kind == "file" and os.path.isdir(path):
        raise ArchiveError(
            f"{path!r} is a directory; pick a directory backend "
            f"(--backend chunked|external) or a file path"
        )
    backend: StorageBackend
    if kind == "file":
        backend = FileBackend(path, spec, options, codec=at_rest, workers=workers)
        backend.persist()
    elif kind == "chunked":
        os.makedirs(path, exist_ok=True)
        backend = ChunkedArchiver(
            path, spec, chunk_count, options, codec=at_rest, workers=workers
        )
        backend.write_manifest()
    else:
        os.makedirs(path, exist_ok=True)
        backend = ExternalArchiver(path, spec, codec=at_rest, workers=workers)
        backend.write_manifest()
    from .wal import atomic_write_text

    atomic_write_text(keys_location(path), spec_text)
    return backend
