"""The unified storage contract: one read/write surface per archive.

Two engines write archives.  The key-hash
:class:`~repro.storage.chunked.ChunkedArchiver` (Sec. 5) merges every
version into per-chunk trees in one loop; the whole-file archive the CLI
speaks (Fig. 5 XML on disk, :class:`~repro.storage.chunked.FileBackend`)
is its layout with one chunk.  The event-stream
:class:`~repro.storage.archiver.ExternalArchiver` (Sec. 6) merges a
stream instead, and reads it through one reader
(:class:`~repro.storage.events.PeekableEvents`, under the query
layer's :class:`~repro.query.exec.StreamCursor`), verified against its
recorded checksum before every pass.  Both take ``last_version`` from
the manifest's ``version_count``.  :class:`StorageBackend` is the
protocol they implement, so ingestion, retrieval, temporal queries and
the CLI are written once against the contract and every future backend
(sharded, cached, service-fronted) plugs into the same seam.

Each archive is self-describing: a ``manifest.json`` (a sidecar
``<archive>.manifest.json`` for single-file archives) records the
backend kind, the at-rest codec, a fingerprint of the key specification
and the version count, so :func:`open_archive` routes a path to the
right backend without being told.  A path whose payloads have lost
their manifest is refused rather than guessed at, by that function and
by every backend's constructor alike (``xarch fsck --repair`` rebuilds
the manifest).

Every write of every backend, archive creation included, is one
:class:`~repro.storage.txn.ArchiveTxn`: the payloads and the manifest,
which carries their checksum table, publish together behind one
write-ahead record, and in-memory state moves only once that has
landed.  Every open settles an interrupted commit first, through the
one :func:`settle` below.  A crash at any point leaves the archive
readable at a version-count boundary, never a torn mix of files.
"""

from __future__ import annotations

import abc
import functools
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from ..core.archive import (
    Archive,
    ArchiveError,
    ArchiveOptions,
    ArchiveStats,
)
from ..core.merge import MergeStats
from ..core.tstree import ProbeCount
from ..keys.spec import KeySpec
from ..xmltree.model import Element
from .cache import chunk_cache
from .codec import RAW, Codec, CodecLike, get_codec
from .integrity import ChecksumSidecar, ManifestInconsistent, _self_digest
from .legacy import current_manifest, retire
from .txn import ArchiveTxn
from .wal import WriteAheadLog, wal_location

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = 1

#: Per-version ingest progress callback: ``(version_number, stats)``.
OnVersion = Optional[Callable[[int, MergeStats], None]]

#: What a decoded-chunk cache miss loads (:meth:`StorageBackend._cached`):
#: the decoded tree and its at-rest bytes (``None`` when nothing is stored).
Loaded = tuple[Archive, Optional[int]]


# -- the manifest -------------------------------------------------------------


@dataclass
class Manifest:
    """The self-describing header every archive carries on disk.

    ``generation`` is the archive's publication counter: it advances by
    one with every WAL commit that publishes new state (ingest batch,
    single version, recode) and with every manifest ``fsck --repair``
    rewrites, and the manifest carrying it publishes inside that same
    commit — so a manifest read *is* a consistent snapshot pin.
    Readers that capture a generation can stream against
    it to completion: the store is append-mostly, so answers about
    versions the pinned generation already held never change under
    later publications.

    ``checksums`` and ``quarantined`` are the commit's checksum table
    (:class:`~repro.storage.integrity.ChecksumSidecar`): the recorded
    ``{"sha256", "bytes"}`` of every payload file, and the names fsck
    moved aside.  The manifest is thus the one record of a commit, and
    its self-checksum covers the table.

    ``extra`` holds what only one layout needs, and whatever it holds
    is therefore as atomic and as checksummed as the manifest: the
    chunked layout's ``chunk_count`` and ``presence`` — chunk index to
    the versions at which the chunk has records, which with
    ``version_count`` is everything a chunked read needs before it
    opens a chunk.  A store an earlier release wrote is read as today's
    manifest through one door, :mod:`repro.storage.legacy`.
    """

    kind: str
    key_spec_hash: str
    version_count: int
    codec: str = "raw"
    generation: int = 0
    format_version: int = MANIFEST_FORMAT
    extra: dict = field(default_factory=dict)
    checksums: Optional[dict] = None
    quarantined: list = field(default_factory=list)

    def checksum_table(self) -> Optional[ChecksumSidecar]:
        """The checksum table this manifest carries (``None``: none)."""
        if self.checksums is None:
            return None
        return ChecksumSidecar(self.checksums, self.quarantined)

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
        if self.checksums is not None:
            record["checksums"] = self.checksums
            record["quarantined"] = sorted(self.quarantined)
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
        # Every manifest ever written carries the field: without it
        # nothing vouches for the rest, and a flipped bit in the key
        # name must not switch the check off.
        recorded = record.pop("sha256", None)
        if recorded is None or _self_digest(record) != recorded:
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
            checksums=record.get("checksums"),
            quarantined=list(record.get("quarantined", ())),
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


def commit_log(path: "str | os.PathLike") -> tuple[WriteAheadLog, list[str]]:
    """The write-ahead log of the archive at ``path``, and the staging
    files an interrupted commit could have left beside it."""
    path = os.fspath(path)
    wal = WriteAheadLog(wal_location(path))
    if os.path.isdir(path):
        return wal, [
            os.path.join(path, name)
            for name in os.listdir(path)
            if name.endswith(".tmp")
        ]
    return wal, [
        target + ".tmp"
        for target in (path, manifest_location(path), keys_location(path), wal.path)
    ]


def settle(path: "str | os.PathLike") -> str:
    """Finish or drop whatever commit was interrupted at ``path`` (see
    :meth:`~repro.storage.wal.WriteAheadLog.recover`).  Every
    write-capable open runs this once, before reading anything; so do
    a handle's reload after a failed write and ``fsck --repair``."""
    wal, stray_tmps = commit_log(path)
    return wal.recover(stray_tmps=stray_tmps)


def has_commit_record(path: "str | os.PathLike") -> bool:
    """Whether a commit's write-ahead record lies at ``path`` — on a
    path that may not be an archive, the one proof that the staging
    files beside it are an interrupted commit's, to finish or drop.
    Without it :func:`open_archive` and :func:`create_archive` touch
    nothing that is already there."""
    return os.path.exists(wal_location(path))


def read_manifest(path: str) -> Optional[Manifest]:
    """The archive's manifest, or ``None`` when there is none."""
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

    Whatever stops the decorated ``add_version``, ``ingest_batch`` or
    ``recode`` — a document Nested Merge rejects half-way, an I/O error
    or an injected fault at any write, fsync or rename — the handle
    forgets every decoded tree it may have merged into and reloads from
    what is durable (:meth:`StorageBackend._load_state`) before the
    error reaches the caller.  It then reports the version count the
    disk holds, and its next write produces the bytes a freshly opened
    handle would.  A write that failed *after* its commit point is
    rolled forward by that reload, exactly as a reopen would roll it:
    the handle then reports the new version.
    """

    @functools.wraps(write)
    def guarded(self, *args, **kwargs):
        try:
            return write(self, *args, **kwargs)
        except BaseException as error:
            try:
                self._load_state()
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
    across backends.  Temporal questions (``history``, ``changes``) are
    answered over the backend's archive by :meth:`db`, the
    :class:`~repro.query.db.ArchiveDB` facade.
    """

    #: Manifest tag for this backend's on-disk layout.
    kind: str = "abstract"
    #: Whether ``retrieve`` fills a :class:`ProbeCount` when given one.
    supports_probes: bool = False

    spec: KeySpec
    #: Filesystem anchor of the archive — a directory or a single file;
    #: every backend sets it, absolute, once (a later ``chdir`` moves
    #: nothing), and manifest placement and cache keys derive from it.
    storage_root: str
    #: At-rest encoding of the archive's payload files (recorded in the
    #: manifest; the plain files — keys and manifest — are never
    #: encoded): the constructor's explicit codec, else the
    #: manifest's, else raw.
    codec: Codec = RAW
    #: The manifest's version count (0: the empty archive).
    _version_count: int
    #: Publication counter: +1 per commit.  Loaded from the manifest at
    #: open, written back inside every commit — the snapshot pin
    #: concurrent readers anchor to.
    generation: int = 0
    #: Recorded SHA-256 and size of every payload file, by file name,
    #: as the manifest carries them; replaced as a whole when a commit
    #: lands.
    _checksums: ChecksumSidecar
    #: The files of an older layout the manifest read at open replaces,
    #: which this handle's first commit removes (:mod:`.legacy`).
    _retired: list[str]
    #: Whether the handle settles interrupted commits when it (re)loads.
    #: Snapshot handles (``False``) write nothing when they open, and
    #: they alone read through the process-wide decoded-chunk cache.
    _recover: bool
    #: The decoded-chunk cache traffic of *this handle* (cumulative;
    #: query execution reads the counters as before/after deltas).
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def last_version(self) -> int:
        """The highest archived version number (0 when empty): the
        manifest's ``version_count``."""
        return self._version_count

    @abc.abstractmethod
    def add_version(self, document: Optional[Element]) -> MergeStats:
        """Merge the next version (``None`` records an empty version)."""

    def ingest_batch(
        self, documents: Iterable[Optional[Element]], on_version: OnVersion = None
    ) -> MergeStats:
        """Merge a sequence of versions; ``on_version(number, stats)``
        fires once per version, in order, once the commit holding it has
        landed.  Here: one commit per version."""
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

    def manifest(
        self, version_count: int, codec: Codec, checksums: ChecksumSidecar
    ) -> Manifest:
        """The manifest of this archive's next commit."""
        return Manifest(
            kind=self.kind,
            key_spec_hash=key_spec_fingerprint(self.spec),
            version_count=version_count,
            codec=codec.name,
            generation=self.generation + 1,
            extra=self._manifest_extra(),
            checksums=dict(checksums.entries),
            quarantined=sorted(checksums.quarantined),
        )

    def _manifest_extra(self) -> dict:
        return {}

    def manifest_path(self) -> str:
        return manifest_location(self.storage_root)

    def _create(self, spec_text: Optional[str] = None) -> None:
        """Publish the empty archive — keys file, what :meth:`_bootstrap`
        stages and the manifest — as one transaction."""
        with ArchiveTxn(self, 0) as txn:
            if spec_text is not None:
                txn.put_uncovered(keys_location(self.storage_root), spec_text)
            self._bootstrap(txn)

    def _bootstrap(self, txn: ArchiveTxn) -> None:
        """Stage the payload an archive of this kind holds while empty."""

    def _adopt(self, manifest: Optional[Manifest]) -> None:
        """Take over the state a manifest is the record of: the one
        read at open, as today's (``None`` at a path that holds no
        payload yet: the empty archive), or the one a commit of this
        handle has just published.  The checksum table is in place by
        then."""
        if manifest is None:
            self.generation = self._version_count = 0
        else:
            self.generation = manifest.generation
            self._version_count = manifest.version_count

    @abc.abstractmethod
    def _holds_payload(self) -> bool:
        """Whether a payload file of this layout lies at the path."""

    def _load_state(
        self, codec: CodecLike = None, manifest: Optional[Manifest] = None
    ) -> None:
        """(Re)read every piece of in-memory state from what is durable:
        drop the decoded trees, settle an interrupted commit (on handles
        that write), read the manifest, which carries the checksum table
        — an older layout's as today's (:mod:`.legacy`).  A handle that
        writes removes the files of an older layout it finds beside a
        manifest of today's.  A path that holds payloads and no manifest
        is refused, as :func:`open_archive` refuses it: nothing is
        counted off the payloads (``xarch fsck --repair`` derives the
        manifest); one that holds neither is the empty archive.

        Constructors call it once, with their explicit codec if any (and
        the manifest :func:`open_archive` has read, unless settling moves
        it); :func:`mutation` calls it after a failed write, when the
        settled manifest alone decides the codec — a recode that died
        mid-publish rolls forward.
        """
        self.drop_caches()
        if self._recover and settle(self.storage_root) == "rolled-forward":
            manifest = None
        if manifest is None:
            manifest = read_manifest(self.storage_root)
        if manifest is None and self._holds_payload():
            raise _no_manifest(self.storage_root)
        self._retired = []
        if manifest is not None:
            current, retired = current_manifest(self.storage_root, manifest)
            if current != manifest:
                self._retired = retired
            elif self._recover:
                retire(self.storage_root, retired)
            manifest = current
        self._checksums = (manifest and manifest.checksum_table()) or ChecksumSidecar()
        if codec is None and manifest is not None:
            codec = manifest.codec
        if codec is not None:
            self.codec = get_codec(codec)
        self._adopt(manifest)

    # -- the decoded-chunk cache ---------------------------------------------

    def _part_name(self, part) -> str:
        """The checksum-table name of one cacheable part's payload."""
        raise NotImplementedError

    def _cache_token(self, part):
        """Staleness token for a part's cache key (``None``: don't cache).

        The recorded sha256 is the precise token — a commit that
        republishes the part rewrites its checksum, and only bytes
        hashed against this very checksum are ever filed under it
        (:meth:`_cached`), so a hit hands back exactly what a read of
        this handle would have decoded.  Layouts without a
        recorded checksum fall back to the manifest generation (coarser:
        any commit invalidates the whole archive's entries); with
        neither, the part is not cached.
        """
        entry = self._checksums.entry(self._part_name(part))
        if entry is not None and entry.get("sha256"):
            return entry["sha256"]
        if self.generation > 0:
            return ("gen", self.generation)
        return None

    def _cache_key(self, part):
        """The decoded-chunk cache key of a part, or ``None`` when this
        handle's read of it does not go through the cache: a handle that
        settles commits may write, and never shares what it decodes."""
        if self._recover or not chunk_cache().enabled:
            return None
        token = self._cache_token(part)
        if token is None:
            return None
        return (self.storage_root, part, token)

    def _cached(self, part, load: Callable[[], Loaded]) -> Archive:
        """One part's decoded tree, asked of the decoded-chunk cache
        before anything touches the disk.

        The key comes from what the handle holds (:meth:`_cache_key`),
        so a hit costs a dict lookup: no stat, no read, no hash.  A miss
        runs ``load`` — the backend's read, hashed against the checksum
        the tree is filed under, then its decode — which returns the
        tree and its at-rest size (``None`` when nothing is stored).
        What was stored is installed, costed at its size plus the
        decoded body it keeps alive (``Archive.body_bytes``).  What
        comes back may be shared with other readers: fine for every
        read, never for mutation."""
        key = self._cache_key(part)
        if key is None:
            return load()[0]
        cache = chunk_cache()
        archive = cache.get(key)
        if archive is not None:
            self.cache_hits += 1
            return archive
        self.cache_misses += 1
        archive, size = load()
        if size is not None:
            cache.put(key, archive, size + archive.body_bytes)
        return archive

    def _handle_counters(self, stats: ArchiveStats) -> ArchiveStats:
        """Fill in what only the handle knows about itself."""
        stats.generation = self.generation
        stats.cache_hits = self.cache_hits
        stats.cache_misses = self.cache_misses
        stats.cache_evictions = chunk_cache().evictions
        return stats

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


# -- opening and creating archives --------------------------------------------

BACKEND_KINDS = ("file", "chunked", "external")


def _no_manifest(path: str) -> ArchiveError:
    if not os.path.exists(path):
        return ArchiveError(f"No archive at {path!r}")
    return ManifestInconsistent(
        f"{path!r} carries no archive manifest: it is not an archive, or "
        f"lost its manifest (run 'xarch fsck --repair' to rebuild it)"
    )


def detect_backend_kind(path: "str | os.PathLike") -> str:
    """The backend kind stored at ``path``, as its manifest records it.

    Nothing is inferred from the files lying there: a path without a
    manifest is not an archive this code opens (``xarch fsck --repair``
    rebuilds a lost manifest from what the payloads still prove).
    """
    path = os.fspath(path)
    manifest = read_manifest(path)
    if manifest is None:
        raise _no_manifest(path)
    return manifest.kind


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


def open_archive(
    path: "str | os.PathLike",
    spec: Optional[KeySpec] = None,
    *,
    keys_file: "Optional[str | os.PathLike]" = None,
    options: Optional[ArchiveOptions] = None,
    on_corrupt: str = "raise",
    workers: int = 1,
    recover: bool = True,
) -> StorageBackend:
    """Open an existing archive; its manifest names backend and codec.

    ``spec`` (or the key text at ``keys_file`` / the archive's keys
    sidecar) supplies the key specification; it is checked against the
    fingerprint the manifest records, so a wrong keys file fails loudly
    instead of mis-merging.

    Every read hashes a covered payload before it decodes it, and a
    covered payload that is missing raises; a decoded-chunk cache hit
    decodes nothing and so reads and hashes nothing.  ``on_corrupt``
    sets the chunked backend's per-chunk degradation policy
    (``"raise"`` or ``"skip"`` corrupt chunks during retrieval): ``"skip"``
    is the way to read a damaged store before ``xarch fsck --repair``.
    ``workers`` is accepted and ignored: every chunk loop runs serially.
    ``recover=False`` opens without running WAL recovery — required for
    read-only snapshot opens that run concurrently with a live writer,
    where replaying (or rolling back) the writer's in-flight staged
    commit from a reader thread would corrupt the publication protocol.
    Snapshot opens are read handles and share decoded chunks through the
    process-wide cache (:mod:`repro.storage.cache`); recovery-running
    opens are write-capable and don't.
    """
    from .archiver import ExternalArchiver  # local: avoids an import cycle
    from .chunked import ChunkedArchiver, FileBackend

    path = os.fspath(path)
    manifest = read_manifest(path)
    if manifest is None and recover and has_commit_record(path):
        # The one state with a commit to settle and no manifest yet is
        # a create_archive that died while publishing.  Every other
        # interrupted commit is the constructor's to settle: kind, chunk
        # count and key fingerprint, all this function takes from the
        # manifest it reads first, are the same on both sides of one.
        settle(path)
        manifest = read_manifest(path)
    if manifest is None:
        raise _no_manifest(path)
    kind = manifest.kind
    if spec is None:
        from ..keys.keyparser import parse_key_spec

        spec = parse_key_spec(_load_spec_text(path, keys_file))
    if manifest.key_spec_hash and manifest.key_spec_hash != key_spec_fingerprint(
        spec
    ):
        raise ManifestInconsistent(
            f"Key specification does not match the one {path!r} was "
            f"created with (manifest fingerprint mismatch)"
        )
    shared = dict(recover=recover, _manifest=manifest)
    if kind == "file":
        return FileBackend(path, spec, options, **shared)
    if kind == "chunked":
        if "chunk_count" not in manifest.extra:
            raise ManifestInconsistent(
                f"The manifest of {path!r} records no chunk count "
                f"(run 'xarch fsck --repair')"
            )
        return ChunkedArchiver(
            path,
            spec,
            int(manifest.extra["chunk_count"]),
            options,
            on_corrupt=on_corrupt,
            **shared,
        )
    if kind == "external":
        if options is not None and options.compaction:
            # Reject loudly, exactly like create_archive: silently
            # ignoring the flag would hand back a non-compacted archive.
            raise ArchiveError("The external backend does not store weaves")
        return ExternalArchiver(path, spec, **shared)
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
            wal_location(path),
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


def _abandoned_creation(directory: str) -> bool:
    """Whether ``directory`` holds nothing, or only staging files under
    the names an empty archive is made of — what a
    :func:`create_archive` killed before its commit record leaves
    behind.  The next creation stages over them; no other file is
    taken for a leftover."""
    from .archiver import STREAM_NAME  # local: avoids an import cycle

    made_of = {
        os.path.basename(keys_location(directory)),
        os.path.basename(wal_location(directory)),
        MANIFEST_NAME,
        STREAM_NAME,
    }
    return all(
        name.endswith(".tmp") and name[: -len(".tmp")] in made_of
        for name in os.listdir(directory)
    )


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

    One transaction publishes the keys sidecar, the manifest (recording
    the chosen at-rest ``codec`` and the checksum table) and whatever
    payload the kind holds while empty — so a creation that is
    interrupted leaves either nothing or the whole empty archive, and
    every later :func:`open_archive` needs only the path.  ``workers``
    is accepted and ignored, as by :func:`open_archive`.
    """
    from ..keys.keyparser import parse_key_spec

    from .archiver import ExternalArchiver  # local: avoids an import cycle
    from .chunked import ChunkedArchiver, FileBackend

    path = os.fspath(path)
    if kind not in BACKEND_KINDS:
        raise ArchiveError(
            f"Unknown backend kind {kind!r} (choose from {', '.join(BACKEND_KINDS)})"
        )
    at_rest = get_codec(codec)  # validate before touching the disk
    spec = parse_key_spec(spec_text)
    if has_commit_record(path):
        # A commit that was interrupted here — the creation's own, when
        # there is no archive yet — is finished or dropped first.
        settle(path)
    occupied = os.path.isfile(path) or (
        os.path.isdir(path) and not _abandoned_creation(path)
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
        backend = FileBackend(path, spec, options, codec=at_rest)
    elif kind == "chunked":
        backend = ChunkedArchiver(path, spec, chunk_count, options, codec=at_rest)
    else:
        backend = ExternalArchiver(path, spec, codec=at_rest)
    backend._create(spec_text)
    return backend
