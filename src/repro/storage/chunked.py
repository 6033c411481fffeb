"""The chunked archiver — the paper's own memory workaround (Sec. 5).

Before building the full external-memory machinery of Sec. 6, the
paper's experiments coped with 256 MB of RAM by *hashing the data into
chunks based on the values of keys*: "An incoming version is
partitioned in the same manner, and we apply our archiver to the
corresponding chunks of the archive and the incoming version.  Since we
never merge elements with different key values, we can obtain the
archive of the whole data by merging ... chunk by chunk, and
concatenating the results."

:class:`ChunkedArchiver` reproduces that scheme: top-level records are
partitioned by a hash of their key value into ``chunk_count`` buckets,
each bucket is archived independently (one on-disk XML archive per
chunk), and queries fan out to the owning chunk.  A read holds one
chunk at a time plus one version's worth of records; a write-capable
handle that appends version after version also keeps the chunk trees it
last published, the encoded blocks of what stood still in them and a
memo of the records alive in them, up to the decoded-chunk cache budget
(``REPRO_CHUNK_CACHE_BYTES``; ``0`` keeps none and restores the
largest-chunk bound), so the next append decodes nothing it encoded
itself, annotates and merges only the records that arrive changed, and
re-encodes only what it changed.

The memo knows *records* — the children of the document root, the
level this module partitions at (OMIM's and Swiss-Prot's ``Record``
lists).  An incoming version is digested record by record before
anything else; what a held tree's memo confirms costs that digest and
nothing more.  Data whose root has a few large children instead (XMark's
``site``: six regions and lists) confirms one only when a whole child
stood still, and otherwise pays the digest pass on top of the full
annotate and merge — as does any version in which every record changed
(measured at 0…+2 % of such an append at 80 records,
``benchmarks/results/e2e_kept_memo_pr22.txt``).

Beside the chunk files the directory holds the manifest, which carries
the version count, the checksum table and, per chunk, the versions at
which the chunk has records (*presence*: retrieval prunes on it before
opening a chunk).  Stores written before the manifest carried the map
keep presence in ``chunk-NNNN.presence`` sidecars and the count in
``versions.txt``, and older stores the table in ``checksums.json``;
they are read as they are, and their first commit through this code
moves all of it into the manifest and unlinks the files.
"""

from __future__ import annotations

import hashlib
import os
from typing import Callable, Iterable, Iterator, Optional

from ..core.archive import (
    Archive,
    ArchiveOptions,
    ArchiveStats,
)
from ..core.merge import Kept, MergeStats, RecordEntry, annotate_version
from ..core.tstree import ProbeCount
from ..core.versionset import VersionSet
from ..keys.annotate import (
    AnnotatedDocument,
    KeyLabel,
    KeyViolationError,
    annotate_keys,
    compute_key_value,
)
from ..keys.spec import KeySpec
from ..xmltree.model import Element
from .backend import (
    Loaded,
    Manifest,
    OnVersion,
    RecodeReport,
    StorageBackend,
    mutation,
    verify_recoded_document,
)
from .cache import chunk_cache
from .codec import CodecError, CodecLike, get_codec
from .integrity import (
    IntegrityError,
    ManifestInconsistent,
    validate_policy,
)
from .txn import ArchiveTxn
from .xbin import kept_bytes

#: Per-chunk degradation policies for reads over damaged archives.
ON_CORRUPT_POLICIES = ("raise", "skip")


class ChunkedArchiverError(ValueError):
    """Raised on misconfiguration or unusable documents."""


def concatenate_parts(parts) -> Optional[Element]:
    """Concatenate per-chunk reconstructions under one root shell.

    ``parts`` yields each chunk's reconstruction (``None`` for chunks
    without content at the version); the first non-``None`` part
    donates the root tag and attributes — the paper's "concatenating
    the results".  Shared by every chunk-partitioned reader.
    """
    result: Optional[Element] = None
    for part in parts:
        if part is None:
            continue
        if result is None:
            result = Element(part.tag)
            for attr in part.attributes:
                result.set_attribute(attr.name, attr.value)
        for child in part.children:
            result.append(child)
    return result


def restore_key_order(document: Optional[Element], spec: KeySpec) -> Optional[Element]:
    """Re-sort a concatenated reconstruction's records into key order.

    Hash partitioning scatters a version's records across chunks, so
    plain concatenation returns them grouped by chunk.  Every in-chunk
    reconstruction already emits keyed siblings in key order, and depth
    beyond the record level stays within one chunk — re-sorting the
    top-level records is therefore enough to make chunked retrievals
    byte-identical to the other backends.  Documents whose top level is
    not fully keyed are returned untouched.

    Cost: one key-value evaluation per top-level record — the labels
    being sorted and nothing beneath them.
    """
    if document is None or not document.children:
        return document
    if spec.key_for((document.tag,)) is None:
        return document
    tokens = []
    for child in document.children:
        if not isinstance(child, Element):
            return document
        key = spec.key_for((document.tag, child.tag))
        if key is None:
            return document
        try:
            value = compute_key_value(child, key)
        except KeyViolationError:
            return document  # unlabelable record: keep chunk order
        tokens.append(KeyLabel(tag=child.tag, key=value).sort_token())
    order = sorted(range(len(tokens)), key=tokens.__getitem__)
    document.children[:] = [document.children[i] for i in order]
    return document


def _chunk_presence_of(archive: Archive) -> VersionSet:
    """Union of the top-level record roots' effective timestamps — the
    versions at which the chunk contributes anything to a retrieval."""
    root_timestamp = archive.root.timestamp
    if root_timestamp is None:
        return VersionSet()
    presence = VersionSet()
    for child in archive.root.children:
        presence = presence.union(child.effective_timestamp(root_timestamp))
    return presence


def chunk_index_for_label(label, chunk_count: int) -> int:
    """The chunk, of ``chunk_count``, that a top-level record with this
    key label hashes to — the routing function of the partition scheme."""
    digest = hashlib.sha256(str(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % chunk_count


class ChunkedArchiver(StorageBackend):
    """Archive per key-hash chunk; concatenate for the full picture.

    ``record_depth`` selects the partitioning level: 1 partitions the
    children of the document root (the paper's record level for OMIM
    and Swiss-Prot, whose roots hold a flat list of ``Record``
    elements).

    Every mutation is one :class:`~repro.storage.txn.ArchiveTxn`: chunk
    files and the manifest (version count, presence map and checksum
    table) publish together — a crash mid-batch recovers to
    the pre-batch archive (or, if publication had begun, completes it)
    instead of a torn mix.

    **Writer-held trees.**  After ``add_version`` publishes, the handle
    keeps each merged chunk tree under the SHA-256 it just recorded for
    the chunk's bytes, and on the tree (``Archive.kept``) the encoded
    bytes of every framed children block the ``xbin`` encoder wrote.
    The next ``add_version`` still reads every chunk file and verifies
    it against the checksum table; it skips the decode, and only when the
    verified checksum is the held one.  Nested Merge then drops the
    kept block of every node it changes anything beneath, and the
    encoder copies the blocks that are left (:mod:`repro.storage.xbin`):
    the chunk's bytes are those a fresh handle would write.

    Beside the blocks each held tree keeps its *record memo*
    (:class:`~repro.core.merge.Kept`): the next ``add_version`` digests
    the incoming records before Annotate Keys and asks the memos of the
    trees it is about to be handed; a record one of them confirmed at
    the last version goes to that tree's chunk unannotated and is
    merged by extending the timestamps the memo names.  A tree decoded
    afresh has no memo, merges in full and fills one.  ``ingest_batch``
    gives each chunk's tree a memo of its own for the length of the
    batch.

    Held trees are private to the handle — they never enter the shared
    :func:`~repro.storage.cache.chunk_cache`, and reads through this
    handle do not use them — are costed like its entries (at-rest size
    plus the encoded body), their kept blocks by their length and their
    memo by its entries against that cache's budget, and are dropped,
    blocks, memo and all, by ``close()``, ``drop_caches()``,
    ``ingest_batch``, ``recode`` and any failed write (see
    :func:`~repro.storage.backend.mutation`).
    """

    kind = "chunked"
    supports_probes = True

    def __init__(
        self,
        directory: "str | os.PathLike",
        spec: KeySpec,
        chunk_count: int = 8,
        options: Optional[ArchiveOptions] = None,
        codec: CodecLike = None,
        verify: str = "always",
        on_corrupt: str = "raise",
        recover: bool = True,
        cache_reads: bool = False,
        _manifest: Optional[Manifest] = None,
    ) -> None:
        if chunk_count < 1:
            raise ChunkedArchiverError("Need at least one chunk")
        if on_corrupt not in ON_CORRUPT_POLICIES:
            raise ChunkedArchiverError(
                f"Unknown on_corrupt policy {on_corrupt!r} "
                f"(choose from {', '.join(ON_CORRUPT_POLICIES)})"
            )
        directory = os.path.abspath(os.fspath(directory))
        self.directory = directory
        self.storage_root = directory
        self.spec = spec
        self.chunk_count = chunk_count
        self.options = options or ArchiveOptions()
        self.verify = validate_policy(verify)
        #: What :meth:`retrieve` does with a chunk that fails integrity
        #: or decode checks: ``"raise"`` propagates, ``"skip"`` serves
        #: the healthy chunks and counts the skip.
        self.on_corrupt = on_corrupt
        #: Chunk loads retrieval skipped because the chunk's presence
        #: timestamp excluded the requested version (cumulative).
        self.chunks_pruned = 0
        #: Chunks retrieval skipped as corrupt under ``on_corrupt="skip"``.
        self.chunks_skipped_corrupt = 0
        #: Read-only handles (``open_archive(..., recover=False)``) share
        #: decoded chunks through the process-wide
        #: :func:`~repro.storage.cache.chunk_cache`; write-capable
        #: handles never do — a writer mutates its decoded archive in
        #: place, which must not leak into other readers' views (what
        #: it keeps between appends lives in ``_held``, its own).
        self.cache_reads = cache_reads
        os.makedirs(directory, exist_ok=True)
        self._recover = recover
        self._load_state(codec, _manifest)

    def _adopt(self, manifest: Optional[Manifest]) -> None:
        super()._adopt(manifest)
        recorded = manifest.extra.get("presence") if manifest is not None else None
        #: Chunk index -> the versions at which the chunk has records,
        #: as the manifest carries it; ``None`` on a store from before
        #: it did, whose sidecars and ``versions.txt`` are read instead.
        self._presence: Optional[dict[int, VersionSet]] = None
        if recorded is None:
            self._version_count = self._load_version_count()
            return
        self._presence = {
            int(index): VersionSet.parse(text) for index, text in recorded.items()
        }
        self._version_count = manifest.version_count
        if self._recover:
            # The commit that moved the map — this handle's, or one it
            # has just rolled forward — left these behind; nothing reads
            # them any more.
            for path in self._sidecar_paths():
                if os.path.exists(path):
                    os.remove(path)

    def drop_caches(self) -> None:
        #: Writer-held trees: chunk index -> (the sha256 this handle's
        #: last commit recorded for the chunk file, the tree it encoded).
        self._held: dict[int, tuple[str, Archive]] = {}

    def close(self) -> None:
        self.drop_caches()

    # -- chunk file plumbing ----------------------------------------------------

    def _chunk_path(self, index: int) -> str:
        return os.path.join(self.directory, self._part_name(index))

    def _presence_path(self, index: int) -> str:
        return os.path.join(self.directory, f"chunk-{index:04d}.presence")

    def _meta_path(self) -> str:
        return os.path.join(self.directory, "versions.txt")

    def _sidecar_paths(self) -> list[str]:
        """The files a store from before the presence map keeps it, and
        the version count, in."""
        paths = [self._presence_path(index) for index in range(self.chunk_count)]
        return paths + [self._meta_path()]

    def _verify_payload(self, path: str, data: bytes) -> bool:
        """Check one read against the checksum table under the verify
        policy; whether it hashed the bytes."""
        return self._checksums.verify(
            os.path.basename(path), data, self.verify, self._verified
        )

    def _check_absent(self, path: str) -> None:
        """A file is missing: fine for legacy/lazy files, a typed error
        when the checksum table says it should exist (or fsck moved it
        to quarantine)."""
        if self.verify != "never":
            self._refuse_absent(path)

    def _refuse_absent(self, path: str) -> None:
        """:meth:`_check_absent` whatever the verify policy."""
        name = os.path.basename(path)
        if name in self._checksums.quarantined:
            raise IntegrityError(
                f"Payload {name!r} was quarantined by fsck --repair; "
                f"restore it from quarantine/ or re-ingest"
            )
        if self._checksums.covers(name):
            raise ManifestInconsistent(
                f"Payload {name!r} is recorded in the checksum table "
                f"but missing on disk"
            )

    def _load_version_count(self) -> int:
        try:
            with open(self._meta_path(), "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            self._check_absent(self._meta_path())
            return 0
        self._verify_payload(self._meta_path(), data)
        return int(data.decode("utf-8").strip() or "0")

    def read_part_payload(self, index: int) -> Optional[bytes]:
        """Verified at-rest bytes of a stored chunk (``None`` when absent).

        The raw bytes verify against the checksum table *before*
        anything decodes them, so corruption surfaces as a typed
        :class:`~repro.storage.integrity.IntegrityError`, never a
        confusing decode failure.  Every decode of a stored chunk starts
        from these bytes.
        """
        return self._read_part(index)[0]

    def _read_part(self, index: int) -> tuple[Optional[bytes], bool]:
        """:meth:`read_part_payload`, and whether the read hashed."""
        path = self._chunk_path(index)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            self._check_absent(path)
            return None, False
        return data, self._verify_payload(path, data)

    def _read_for_write(self, index: int) -> Optional[bytes]:
        """:meth:`read_part_payload` for a write, which must neither
        skip nor recreate a chunk whose history it cannot read: a
        missing chunk the checksum table covers (or fsck quarantined)
        raises under every verify policy."""
        data = self.read_part_payload(index)
        if data is None:
            self._refuse_absent(self._chunk_path(index))
        return data

    def _read_chunk_text(self, index: int) -> Optional[str]:
        """Decoded XML text of a stored chunk (``None`` when absent)."""
        data = self.read_part_payload(index)
        if data is None:
            return None
        return self.codec.decode_document(data)

    def _part_name(self, part) -> str:
        return f"chunk-{part:04d}.xml"

    def _empty_chunk(self) -> Archive:
        """What an absent chunk holds: nothing, at every version so far
        (chunk timestamps stay globally aligned)."""
        archive = Archive(self.spec, self.options)
        for _ in range(self._version_count):
            archive.add_version(None)
        return archive

    def _decode_chunk(self, index: int) -> Loaded:
        """One cold load of a stored chunk: read, verify, decode."""
        data, hashed = self._read_part(index)
        if data is None:
            return self._empty_chunk(), None, False
        archive = self.codec.decode_archive(data, self.spec, self.options)
        return archive, len(data), hashed

    def _load_chunk(self, index: int, for_write: bool = False) -> Archive:
        if not for_write:
            return self._cached(index, lambda: self._decode_chunk(index))
        data = self._read_for_write(index)
        if data is None:
            return self._empty_chunk()
        # Checked out, not peeked at: the writer merges into the tree
        # in place, so from here on it is held by nobody.
        held = self._held.pop(index, None)
        if held is not None and held[0] == self._cache_token(index):
            return held[1]
        return self.codec.decode_archive(data, self.spec, self.options)

    def _manifest_extra(self) -> dict:
        extra: dict = {"chunk_count": self.chunk_count}
        if self._presence is not None:  # every commit carries the map on
            extra["presence"] = {
                str(index): presence.to_text()
                for index, presence in self._presence.items()
            }
        return extra

    def _bootstrap(self, txn: ArchiveTxn) -> None:
        txn.extra["presence"] = {}

    def _carry_presence(self, txn: ArchiveTxn) -> dict[str, str]:
        """The presence map of ``txn``'s manifest, for the write to
        overwrite the entries of the chunks it merges.

        On a store from before the map this is the commit that moves it:
        the map is read off the sidecars, and they and ``versions.txt``
        leave the checksum table (and, once it has landed, the
        directory: :meth:`_adopt`).
        """
        carried = self._manifest_extra().get("presence")
        if carried is None:
            carried = {}
            for index in range(self.chunk_count):
                presence = self.chunk_presence(index)
                if presence is not None:
                    carried[str(index)] = presence.to_text()
            for path in self._sidecar_paths():
                txn.checksums.forget(os.path.basename(path))
        txn.extra["presence"] = carried
        return carried

    def chunk_presence(self, index: int) -> Optional[VersionSet]:
        """Versions at which the chunk actually stores records.

        Read off the manifest this handle loaded, so retrieval can prune
        whole chunks whose timestamps exclude the target version
        *before* opening them.  Every chunk shares the global version
        numbering via locally-empty versions, so the chunk archive's own
        root timestamp never excludes anything — the presence set is the
        union of the top-level record roots' effective timestamps
        instead.  ``None`` when unknown (a chunk the map does not name).
        """
        if self._presence is not None:
            return self._presence.get(index)
        # A store from before the map: the chunk's ``.presence`` sidecar.
        path = self._presence_path(index)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            # A missing presence sidecar is always safe to degrade on —
            # ``None`` makes readers parse the chunk instead of pruning
            # — so it is an fsck finding, not a read error.  Corrupt
            # *contents* still raise: they could prune wrongly.
            return None
        self._verify_payload(path, data)
        return VersionSet.parse(data.decode("utf-8"))

    # -- partitioning --------------------------------------------------------------

    def chunk_index_for_label(self, label) -> int:
        """The chunk a top-level record with this key label hashes to.

        The routing function of the partition scheme, exposed so keyed
        point queries (the facade's partition-level key lookups) can
        open only the owning chunk instead of fanning out to all of
        them.
        """
        return chunk_index_for_label(label, self.chunk_count)

    def _chunk_of(self, record: Element, annotated) -> int:
        label = annotated.label(record)
        if label is None:
            raise ChunkedArchiverError(
                f"Top-level record <{record.tag}> is unkeyed; chunking "
                f"requires keyed records"
            )
        return self.chunk_index_for_label(label)

    def _partition(
        self,
        document: Element,
        memos: Optional[list[dict[int, RecordEntry]]] = None,
    ) -> dict[int, AnnotatedDocument]:
        """One version's records, split by owning chunk.

        *Annotate Keys* runs here, once, over the whole version — every
        key-violation, coverage and sibling-uniqueness error is raised
        before a chunk is loaded or a byte staged — and each chunk gets
        a shell over the caller's own record nodes under that one label
        table: no second scan per chunk, and no copies (Nested Merge
        copies what it keeps; the caller's document is left as it was).

        With ``memos`` — the record memos of the trees this handle
        holds, or none for a batch — the version is digested first and
        only the records no memo confirms are annotated
        (:func:`~repro.core.merge.annotate_version`); a confirmed record
        is routed by the label its archive node carries, which is the
        one that routed it there.
        """
        if memos is None:
            annotated = annotate_keys(document, self.spec)
        else:
            annotated = annotate_version(
                document, self.spec, memos, self._version_count
            )
        parts: dict[int, AnnotatedDocument] = {}
        for record in document.element_children():
            index = self._chunk_of(record, annotated)
            part = parts.get(index)
            if part is None:
                part = parts[index] = annotated.shell()
            part.root.children.append(record)
        return parts

    # -- public API -----------------------------------------------------------------

    @property
    def last_version(self) -> int:
        return self._version_count

    @property
    def part_count(self) -> int:
        """Independently-loadable parts: the chunks, stored or not."""
        return self.chunk_count

    def part_exists(self, index: int) -> bool:
        """Whether the chunk is stored: any chunk the checksum table
        covers is, without a look at the disk (a covered chunk that has
        gone missing raises on its first uncached load); only an
        uncovered one — a legacy store's, or one never written — is
        looked for."""
        return self._checksums.covers(self._part_name(index)) or os.path.exists(
            self._chunk_path(index)
        )

    def part_stored(self, index: int) -> bool:
        """:meth:`part_exists` for a read: an absent chunk that fsck
        quarantined raises :class:`~repro.storage.integrity.IntegrityError`
        (under any verify policy but ``"never"``), so no answer quietly
        leaves its records out; a lazy one is not stored."""
        if self.part_exists(index):
            return True
        self._check_absent(self._chunk_path(index))
        return False

    def load_part(self, index: int) -> Archive:
        return self._load_chunk(index)

    def part_presence(self, index: int) -> Optional[VersionSet]:
        return self.chunk_presence(index)

    def _stage_chunks(
        self,
        txn: ArchiveTxn,
        chunks: Iterable[tuple[int, Archive]],
        check: Optional[Callable[[int, bytes], None]] = None,
    ) -> dict[int, dict]:
        """The commit tail of every chunk loop: encode, check, stage.

        ``chunks`` yields ``(index, tree)`` in chunk-index order, each
        tree merged or decoded on this thread as it is asked for; one
        :meth:`~repro.storage.codec.Codec.encode_archives` call in the
        codec ``txn`` commits to encodes them all (``xbin`` deflates one
        chunk on its pool while this thread merges the next).  Only once
        every payload is in hand — and ``check(index, payload)`` has
        passed on each, when given — are they staged through
        :meth:`ArchiveTxn.put`, here and in chunk-index order, so a
        failure anywhere before stages nothing and the fault seam sees
        the same operations in the same order whatever the pool does.
        Returns each staged chunk's new checksum-table entry.
        """
        indexes: list[int] = []

        def trees() -> Iterator[Archive]:
            for index, tree in chunks:
                indexes.append(index)
                yield tree

        payloads = txn.codec.encode_archives(trees())
        if check is not None:
            for index, payload in zip(indexes, payloads):
                check(index, payload)
        return {
            index: txn.put(self._chunk_path(index), payload)
            for index, payload in zip(indexes, payloads)
        }

    @mutation
    def add_version(self, document: Optional[Element]) -> MergeStats:
        """Partition the version, merge every chunk it touches, encode
        them in one call and stage the payloads in chunk order
        (:meth:`_stage_chunks`); all chunk files publish atomically
        behind one WAL record.

        Chunks with no records this version still advance their version
        counter (as an empty version) so timestamps align.  Whether a
        chunk is stored is the checksum table's word
        (:meth:`part_exists`): a covered chunk whose file has gone
        raises :class:`~repro.storage.integrity.ManifestInconsistent`
        before anything is staged, under every verify policy.
        """
        total = MergeStats()
        # What the held trees and what they keep may cost.
        room = chunk_cache().max_bytes
        memos = None
        if room > 0:
            # Of the trees ``_load_chunk`` is going to hand out.
            memos = [
                tree.kept.records
                for index, (sha256, tree) in self._held.items()
                if tree.kept is not None and sha256 == self._cache_token(index)
            ]
        parts = self._partition(document, memos) if document is not None else {}
        trees: dict[int, Archive] = {}
        number = self._version_count + 1
        with ArchiveTxn(self, number) as txn:
            presence = self._carry_presence(txn)

            def merged() -> Iterator[tuple[int, Archive]]:
                for index in range(self.chunk_count):
                    part = parts.get(index)
                    if part is None and not self.part_exists(index):
                        continue  # nothing stored, nothing new: stay lazy
                    archive = self._load_chunk(index, for_write=True)
                    if room > 0 and archive.kept is None:
                        archive.kept = Kept()  # a tree that may be held keeps
                    total.accumulate(archive.add_version(part))
                    presence[str(index)] = _chunk_presence_of(archive).to_text()
                    trees[index] = archive
                    yield index, archive

            staged = self._stage_chunks(txn, merged())
        held: dict[int, tuple[str, Archive]] = {}
        for index, archive in trees.items():
            room -= staged[index]["bytes"] + archive.body_bytes + kept_bytes(archive)
            if room >= 0:
                held[index] = (staged[index]["sha256"], archive)
        self._held = held
        total.versions = 1
        return total

    @mutation
    def ingest_batch(
        self,
        documents: Iterable[Optional[Element]],
        on_version: OnVersion = None,
    ) -> MergeStats:
        """Merge a whole sequence of versions chunk-major.

        Where a loop over :meth:`add_version` loads, re-parses and
        re-serializes every chunk *per version*, the batch path digests,
        annotates and partitions all versions up front (every key error
        is raised before a chunk loads), then touches each chunk exactly
        once: read and verify, decode, merge the chunk's slice of every
        version through :meth:`Archive.add_versions
        <repro.core.archive.Archive.add_versions>` — a loop under a
        record memo that lives for the batch, so a record a version
        brings back unchanged is confirmed, not descended.  The merged
        trees go to one encode call as they are made and their payloads
        are staged in chunk order once all are in hand
        (:meth:`_stage_chunks`), so a failed merge stages nothing.  No
        tree is held afterwards.

        The chunk-major order trades memory for I/O: the whole batch's
        partitions stay in memory until their chunks are processed, so
        peak memory is one chunk tree, the bodies the pool has yet to
        deflate and the payloads it has, plus the *batch's* records,
        rather than the single version the per-version loop holds.
        Callers on the paper's 256 MB budget bound it by ingesting in
        slices —
        consecutive ``ingest_batch`` calls produce chunk files identical
        to one big batch (and to a per-version loop).

        ``on_version`` is accepted for protocol uniformity but never
        fires: the chunk-major order merges each version's records
        chunk by chunk, so no per-version stats exist to report.
        """
        partitions = [
            self._partition(document, []) if document is not None else {}
            for document in documents
        ]
        self._held = {}  # the batch republishes every chunk it touches
        total = MergeStats()
        number = self._version_count + len(partitions)
        with ArchiveTxn(self, number) as txn:
            presence = self._carry_presence(txn)

            def merged() -> Iterator[tuple[int, Archive]]:
                for index in range(self.chunk_count):
                    if not self.part_exists(index) and not any(
                        index in parts for parts in partitions
                    ):
                        continue  # never stored, never mentioned: stay lazy
                    archive = self._load_chunk(index, for_write=True)
                    # Versions without records for this chunk are empty
                    # versions locally, keeping timestamps globally aligned.
                    total.accumulate(
                        archive.add_versions(parts.get(index) for parts in partitions)
                    )
                    presence[str(index)] = _chunk_presence_of(archive).to_text()
                    yield index, archive

            self._stage_chunks(txn, merged())
        total.versions = len(partitions)
        return total

    def retrieve(
        self, version: int, *, probes: Optional[ProbeCount] = None
    ) -> Optional[Element]:
        """Concatenate the per-chunk reconstructions, in key order.

        Chunks whose presence timestamps exclude ``version`` are pruned
        before their XML is parsed (counted in ``chunks_pruned``); the
        chunks that do load reconstruct tree-guided via
        :meth:`Archive.retrieve`, accumulating into ``probes`` when
        given.  The concatenation is re-sorted into key order so the
        result is byte-identical to the other backends'.
        """
        if not 1 <= version <= self._version_count:
            raise ChunkedArchiverError(
                f"Version {version} not archived (have 1..{self._version_count})"
            )

        def parts():
            for index in range(self.chunk_count):
                try:
                    # A covered chunk that went missing raises in its
                    # load instead, unless cached.
                    if not self.part_stored(index):
                        continue
                    presence = self.chunk_presence(index)
                    if presence is not None and version not in presence:
                        self.chunks_pruned += 1
                        continue
                    part = self._load_chunk(index).retrieve(version, probes=probes)
                except (IntegrityError, CodecError):
                    if self.on_corrupt == "skip":
                        # Degrade gracefully: serve the healthy chunks.
                        self.chunks_skipped_corrupt += 1
                        continue
                    raise
                yield part

        return restore_key_order(concatenate_parts(parts()), self.spec)

    def scan_probe_count(self, version: int) -> int:
        """Summed full-scan baseline across the stored chunks."""
        total = 0
        for index in range(self.chunk_count):
            if self.part_exists(index):
                total += self._load_chunk(index).scan_probe_count(version)
        return total

    def stats(self) -> ArchiveStats:
        """Aggregated size/shape counters across the chunk archives.

        Every chunk stores its own copy of the archive root and of the
        document shell (the record parent); ``nodes`` folds those
        duplicates into a single logical occurrence so the count equals
        the other backends' for the same archive.  ``stored_timestamps``
        and ``serialized_bytes`` count what this representation actually
        stores — the per-chunk shells each carry a timestamp, so both
        run higher than the single-file encoding.
        """
        nodes = 1
        stored_timestamps = 1
        raw_bytes = 0
        seen_shells: set[tuple] = set()
        for index in range(self.chunk_count):
            text = self._read_chunk_text(index)
            if text is None:
                continue
            raw_bytes += len(text.encode("utf-8"))
            archive = Archive.from_xml_string(text, self.spec, self.options)
            if archive.root.timestamp is not None:
                stored_timestamps += archive.root.timestamp_count() - 1
            for shell in archive.root.children:
                token = shell.label.sort_token()
                nodes += shell.node_count()
                if token in seen_shells:
                    nodes -= 1  # the shell itself is shared, not repeated
                else:
                    seen_shells.add(token)
        return self._handle_counters(
            ArchiveStats(
                versions=self._version_count,
                nodes=nodes,
                stored_timestamps=stored_timestamps,
                serialized_bytes=raw_bytes,
                raw_bytes=raw_bytes,
                disk_bytes=self.total_bytes(),
            )
        )

    def total_bytes(self) -> int:
        """Summed on-disk size of all chunk files (the paper concatenates)."""
        total = 0
        for index in range(self.chunk_count):
            path = self._chunk_path(index)
            if os.path.exists(path):
                total += os.path.getsize(path)
        return total

    @mutation
    def recode(self, codec: CodecLike) -> RecodeReport:
        """Re-encode every chunk file in one atomic, verified commit.

        The chunk files and the manifest (recording the new codec, and
        the presence map as it was) publish together behind one WAL
        record, so a crash mid-recode recovers to wholly-old or
        wholly-new encodings.  Every chunk is decoded, then all are
        re-encoded in one call and verified (:meth:`_stage_chunks`)
        before the first is staged, so a chunk that fails the identity
        check stages nothing.  A missing chunk the checksum table
        covers raises rather than being left out.
        """
        target = get_codec(codec)
        old = self.codec
        before = self.total_bytes()
        self._held = {}  # every chunk file is about to be rewritten
        # The Fig. 5 document each old payload holds: the staged payload
        # must re-emit it — codecs that store binary records (xbin) take
        # part in the identity check via their re-emission.
        texts: dict[int, str] = {}

        def decoded() -> Iterator[tuple[int, Archive]]:
            for index in range(self.chunk_count):
                payload = self._read_for_write(index)
                if payload is None:
                    continue
                archive = old.decode_archive(payload, self.spec, self.options)
                texts[index] = archive.to_xml_string()
                yield index, archive

        def check(index: int, encoded: bytes) -> None:
            verify_recoded_document(texts.pop(index), encoded, target)

        with ArchiveTxn(self, self._version_count, codec=target) as txn:
            self._carry_presence(txn)  # an old store's recode moves it too
            staged = self._stage_chunks(txn, decoded(), check)
        return RecodeReport(
            path=self.directory,
            kind=self.kind,
            old_codec=old.name,
            new_codec=target.name,
            files=len(staged),
            disk_bytes_before=before,
            disk_bytes_after=self.total_bytes(),
        )
