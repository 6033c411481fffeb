"""The chunked archiver — the paper's own memory workaround (Sec. 5),
and the one engine every archive but the event stream is written by.

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
chunk), and queries fan out to the owning chunk.  The whole-file
archive (:class:`FileBackend`) is the same scheme with one chunk, whose
payload is the archive file itself: with nothing to route, the one
chunk takes every version whole.

There is one merge loop (:meth:`ChunkedArchiver.ingest_batch`;
``add_version`` is that loop over one document).  It walks the versions
in order: each is digested against the record memos of the chunk trees
the call holds, annotated where no memo confirms a record, routed, and
merged into every chunk it touches; one commit publishes them all.  A
version whose root holds no records goes whole to chunk 0, so every
version's document shell is stored somewhere.

A read holds one chunk at a time plus one version's worth of records.
A write holds the tree of every chunk its versions touch until its
commit, an append and a batch alike: a batch reads a generator one
document at a time, so its peak is those trees plus one version's
records, whatever its length, and the one-chunk-at-a-time bound of
Sec. 5 is a bound on reads, not writes.  A stored chunk no version
touched is padded with empty versions at the commit, one at a time.
Afterwards a write-capable handle keeps the chunk trees it last
published, the encoded blocks of what stood still in them and a memo of
the records alive in them, up to the decoded-chunk cache budget
(``REPRO_CHUNK_CACHE_BYTES``; ``0`` keeps none, and each tree goes once
its payload is encoded), so the next write decodes nothing it encoded
itself, annotates and merges only the records that arrive changed, and
re-encodes only what it changed.  A one-chunk store's tree is the whole
archive, which every read decodes whole: its handle keeps it whatever
the budget — the tree its last write published or, before one, the one
a read decoded for itself — and its reads answer from it.

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
opening a chunk; a chunk the map does not name is opened).  This module
knows that layout alone: a store an earlier release wrote is read
through :func:`~repro.storage.legacy.current_manifest` as the manifest
today's writer would publish for it, and its first commit publishes
that manifest.  The whole-file layout records no presence map: its
manifest is the one it has always written, and nothing of it is
pruned.
"""

from __future__ import annotations

import hashlib
import os
from typing import Callable, Iterable, Iterator, Optional

from ..core.archive import (
    Archive,
    ArchiveError,
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
from .integrity import IntegrityError, ManifestInconsistent
from .txn import ArchiveTxn
from .xbin import kept_bytes

#: Per-chunk degradation policies for reads over damaged archives.
ON_CORRUPT_POLICIES = ("raise", "skip")


class ChunkedArchiverError(ArchiveError):
    """Raised on misconfiguration or unusable documents."""


def concatenate_parts(parts) -> Optional[Element]:
    """Concatenate per-chunk reconstructions under one root shell.

    ``parts`` yields each chunk's reconstruction (``None`` for chunks
    without content at the version); the first non-``None`` part
    donates the root tag and attributes — the paper's "concatenating
    the results".  With :func:`restore_key_order` it rebuilds, from the
    parts' elements alone, what :meth:`ChunkedArchiver.retrieve`
    returns.
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
    being sorted and nothing beneath them.  A reader that holds the
    chunk trees needs none: it reads the same tokens off the stored
    labels (:meth:`ChunkedArchiver.retrieve`).
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


def chunk_files(directory: str) -> dict[int, str]:
    """Chunk index -> file name, of the chunk files in ``directory``."""
    found = {}
    for name in os.listdir(directory):
        if name.startswith("chunk-") and name.endswith(".xml"):
            try:
                found[int(name[len("chunk-") : -len(".xml")])] = name
            except ValueError:
                continue
    return found


class ChunkedArchiver(StorageBackend):
    """Archive per key-hash chunk; concatenate for the full picture.

    ``chunk_count`` is how many chunks the children of the document
    root hash into (the paper's record level for OMIM and Swiss-Prot,
    whose roots hold a flat list of ``Record`` elements).

    Every mutation is one :class:`~repro.storage.txn.ArchiveTxn`: chunk
    files and the manifest (version count, presence map and checksum
    table) publish together — a crash mid-batch recovers to
    the pre-batch archive (or, if publication had begun, completes it)
    instead of a torn mix.

    **Writer-held trees.**  After a write publishes, the handle keeps
    each merged chunk tree under the SHA-256 it just recorded for the
    chunk's bytes, and on the tree (``Archive.kept``) the encoded bytes
    of every framed children block the ``xbin`` encoder wrote.  The
    next write still reads every chunk file it merges into and verifies
    it against the checksum table; it skips the decode, and only when
    the verified checksum is the held one.  Nested Merge then drops the
    kept block of every node it changes anything beneath, and the
    encoder copies the blocks that are left (:mod:`repro.storage.xbin`):
    the chunk's bytes are those a fresh handle would write.

    Beside the blocks each tree keeps its *record memo*
    (:class:`~repro.core.merge.Kept`): every version is digested before
    Annotate Keys and asks the memos of the trees the write holds; a
    record one of them confirmed at the version before goes to that
    tree's chunk unannotated and is merged by extending the timestamps
    the memo names.  A tree decoded afresh has no memo, merges in full
    and fills one for the rest of the write.

    Held trees are private to the handle — they never enter the shared
    :func:`~repro.storage.cache.chunk_cache`, and reads through this
    handle do not use them — are costed like its entries (at-rest size
    plus the encoded body), their kept blocks by their length and their
    memo by its entries against that cache's budget, and are dropped,
    blocks, memo and all, by ``close()``, ``drop_caches()``, ``recode``
    and any failed write (see :func:`~repro.storage.backend.mutation`).
    One chunk is the exception: its tree is the whole archive, held
    whatever the budget (without blocks or memo at ``0``), reads answer
    from it, and a read that decodes it outside the shared cache holds
    it for the next read and write.
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
        on_corrupt: str = "raise",
        recover: bool = True,
        _manifest: Optional[Manifest] = None,
    ) -> None:
        if chunk_count < 1:
            raise ChunkedArchiverError("Need at least one chunk")
        if on_corrupt not in ON_CORRUPT_POLICIES:
            raise ChunkedArchiverError(
                f"Unknown on_corrupt policy {on_corrupt!r} "
                f"(choose from {', '.join(ON_CORRUPT_POLICIES)})"
            )
        self.storage_root = os.path.abspath(os.fspath(directory))
        self._open_root(self.storage_root)
        self.spec = spec
        self.chunk_count = chunk_count
        self.options = options or ArchiveOptions()
        #: What :meth:`retrieve` does with a chunk that fails integrity
        #: or decode checks: ``"raise"`` propagates, ``"skip"`` serves
        #: the healthy chunks and counts the skip.
        self.on_corrupt = on_corrupt
        #: Chunk loads retrieval skipped because the chunk's presence
        #: timestamp excluded the requested version (cumulative).
        self.chunks_pruned = 0
        #: Chunks retrieval skipped as corrupt under ``on_corrupt="skip"``.
        self.chunks_skipped_corrupt = 0
        #: Snapshot handles (``open_archive(..., recover=False)``) share
        #: decoded chunks through the process-wide
        #: :func:`~repro.storage.cache.chunk_cache`; write-capable
        #: handles never do — a writer mutates its decoded archive in
        #: place, which must not leak into other readers' views (what
        #: it keeps between appends lives in ``_held``, its own).
        self._recover = recover
        self._load_state(codec, _manifest)

    def _open_root(self, root: str) -> None:
        """Take ``root`` as the chunk directory, made if missing."""
        self.directory = root
        os.makedirs(root, exist_ok=True)

    def _adopt(self, manifest: Optional[Manifest]) -> None:
        super()._adopt(manifest)
        recorded = manifest.extra.get("presence", {}) if manifest is not None else {}
        #: Chunk index -> the versions at which the chunk has records,
        #: as the manifest carries it.
        self._presence: dict[int, VersionSet] = {
            int(index): VersionSet.parse(text) for index, text in recorded.items()
        }

    def _holds_payload(self) -> bool:
        return bool(chunk_files(self.directory))

    def drop_caches(self) -> None:
        #: Writer-held trees: chunk index -> (the sha256 this handle's
        #: last commit recorded for the chunk file, the tree it encoded).
        self._held: dict[int, tuple[str, Archive]] = {}

    def close(self) -> None:
        self.drop_caches()

    # -- chunk file plumbing ----------------------------------------------------

    def _chunk_path(self, index: int) -> str:
        return os.path.join(self.directory, self._part_name(index))

    def _check_absent(self, path: str) -> None:
        """A chunk file is missing: fine for a lazy chunk, a typed error
        when the checksum table says it should exist (or fsck moved it
        to quarantine)."""
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

    def read_part_payload(self, index: int) -> Optional[bytes]:
        """Verified at-rest bytes of a stored chunk (``None`` when absent).

        The raw bytes verify against the checksum table *before*
        anything decodes them, so corruption surfaces as a typed
        :class:`~repro.storage.integrity.IntegrityError`, never a
        confusing decode failure.  Every decode of a stored chunk starts
        from these bytes.  A missing chunk the checksum table covers (or
        fsck quarantined) raises, so neither a read nor a write skips or
        recreates a chunk whose history it cannot read.
        """
        path = self._chunk_path(index)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            self._check_absent(path)
            return None
        self._checksums.verify(os.path.basename(path), data)
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
        data = self.read_part_payload(index)
        if data is None:
            return self._empty_chunk(), None
        archive = self.codec.decode_archive(data, self.spec, self.options)
        return archive, len(data)

    def _holding(self, index: int) -> Optional[Archive]:
        """The tree this handle holds for chunk ``index``, if it is the
        one the checksum table names."""
        held = self._held.get(index)
        if held is None or held[0] != self._cache_token(index):
            return None
        return held[1]

    def _load_chunk(self, index: int, for_write: bool = False) -> Archive:
        if not for_write:
            if self.chunk_count > 1:
                return self._cached(index, lambda: self._decode_chunk(index))
            # One chunk is the whole archive, which every read decodes
            # whole: a read answers from the tree the handle holds, and
            # the handle holds what a read decodes for itself.
            tree = self._holding(index)
            if tree is None:
                if self._cache_key(index) is not None:
                    return self._cached(index, lambda: self._decode_chunk(index))
                tree, size = self._decode_chunk(index)
                if size is not None:
                    self._held[index] = (self._cache_token(index), tree)
            return tree
        data = self.read_part_payload(index)
        if data is None:
            return self._empty_chunk()
        # Checked out, not peeked at: the writer merges into the tree
        # in place, so from here on it is held by nobody.
        tree = self._holding(index)
        self._held.pop(index, None)
        if tree is not None:
            return tree
        return self.codec.decode_archive(data, self.spec, self.options)

    def _manifest_extra(self) -> dict:
        return {
            "chunk_count": self.chunk_count,
            "presence": {
                str(index): presence.to_text()
                for index, presence in self._presence.items()
            },
        }


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
        memos: Iterable[dict[int, RecordEntry]] = (),
        last_version: int = 0,
    ) -> dict[int, AnnotatedDocument]:
        """One version's records, split by owning chunk.

        The version is digested and *Annotate Keys* runs here, once,
        over the whole of it (:func:`~repro.core.merge.annotate_version`)
        — every key-violation, coverage and sibling-uniqueness error is
        raised before a chunk is loaded or a byte staged — and each
        chunk gets a shell over the caller's own record nodes under that
        one label table: no second scan per chunk, and no copies (Nested
        Merge copies what it keeps; the caller's document is left as it
        was).  A record one of ``memos`` — the record memos of the trees
        the write holds — confirmed at ``last_version`` is not annotated:
        it is routed by the label its archive node carries, which is the
        one that routed it there.

        With one chunk there is nothing to route, and a version whose
        root holds no records has nothing to route by: either goes
        whole to chunk 0, which so stores every version's shell.
        """
        annotated = annotate_version(document, self.spec, list(memos), last_version)
        records = list(document.element_children())
        if self.chunk_count == 1 or not records:
            return {0: annotated}
        parts: dict[int, AnnotatedDocument] = {}
        for record in records:
            index = self._chunk_of(record, annotated)
            part = parts.get(index)
            if part is None:
                part = parts[index] = annotated.shell()
            part.root.children.append(record)
        return parts

    # -- public API -----------------------------------------------------------------

    @property
    def part_count(self) -> int:
        """Independently-loadable parts: the chunks, stored or not."""
        return self.chunk_count

    def part_exists(self, index: int) -> bool:
        """Whether the chunk is stored: any chunk the checksum table
        covers is, without a look at the disk (a covered chunk that has
        gone missing raises on its first uncached load); only an
        uncovered one — a pre-integrity store's, or one never written —
        is looked for."""
        return self._checksums.covers(self._part_name(index)) or os.path.exists(
            self._chunk_path(index)
        )

    def part_stored(self, index: int) -> bool:
        """:meth:`part_exists` for a read: an absent chunk that fsck
        quarantined raises :class:`~repro.storage.integrity.IntegrityError`,
        so no answer quietly leaves its records out; a lazy one is not
        stored."""
        if self.part_exists(index):
            return True
        self._check_absent(self._chunk_path(index))
        return False

    def load_part(self, index: int) -> Archive:
        return self._load_chunk(index)

    def part_presence(self, index: int) -> Optional[VersionSet]:
        """Versions at which the chunk actually stores records.

        Read off the manifest this handle loaded, so retrieval can prune
        whole chunks whose timestamps exclude the target version
        *before* opening them.  Every chunk shares the global version
        numbering via locally-empty versions, so the chunk archive's own
        root timestamp never excludes anything — the presence set is the
        union of the top-level record roots' effective timestamps
        instead.  ``None`` when unknown (a chunk the map does not name).
        """
        return self._presence.get(index)

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

    def add_version(self, document: Optional[Element]) -> MergeStats:
        """:meth:`ingest_batch` over one document."""
        return self.ingest_batch((document,))

    @mutation
    def ingest_batch(
        self,
        documents: Iterable[Optional[Element]],
        on_version: OnVersion = None,
    ) -> MergeStats:
        """Merge versions in order and publish them in one commit — the
        one merge loop of every chunked and whole-file archive.

        ``documents`` is read one at a time.  Each version is digested
        against the record memos of the chunk trees the call holds,
        annotated and routed (:meth:`_partition`), and merged into each
        chunk it touches.  A chunk is loaded the first time the call
        needs it — its held tree when the handle holds one — and keeps
        a record memo for the rest of the call; versions that brought it
        no records are merged in as empty versions before its next one,
        so timestamps stay globally aligned.  The last version merges as
        :meth:`_stage_chunks` asks for the trees, so encoding one chunk
        overlaps merging the next.  Every chunk stored or touched is
        staged, and one :class:`~repro.storage.txn.ArchiveTxn` publishes
        them with the manifest; a failure anywhere stages nothing (see
        :func:`~repro.storage.backend.mutation`).  Whether a chunk is
        stored is the checksum table's word (:meth:`part_exists`): a
        covered chunk whose file has gone raises
        :class:`~repro.storage.integrity.ManifestInconsistent` before
        anything is staged.

        Afterwards the handle holds the trees it staged, in chunk order,
        while they fit the decoded-chunk cache budget (with a budget of
        ``0`` it holds none — each goes once encoded — and the encoder
        keeps no block; one chunk's tree is held all the same).
        ``on_version(number, stats)`` then fires once per version, in
        order, with that version's :class:`MergeStats` summed over the
        chunks it touched.
        """
        room = chunk_cache().max_bytes
        # Trees whose memos route records: the held trees ``_load_chunk``
        # is going to hand out, then every tree the call loads.
        memo_trees: dict[int, Archive] = {}
        if room > 0:
            memo_trees = {
                index: tree
                for index, (sha256, tree) in self._held.items()
                if tree.kept is not None and sha256 == self._cache_token(index)
            }
        trees: dict[int, Archive] = {}
        merges: list[MergeStats] = []
        number = self._version_count
        parts: dict[int, AnnotatedDocument] = {}  # the last version's, unmerged

        def tree(index: int, upto: int) -> Archive:
            """Chunk ``index``'s tree for this call, holding every
            version up to ``upto``."""
            archive = trees.get(index)
            if archive is None:
                archive = self._load_chunk(index, for_write=True)
                if archive.kept is None:
                    archive.kept = Kept()
                trees[index] = archive
            for _ in range(archive.last_version, upto):
                archive.add_version(None)
            return archive

        def merge(index: int, part: AnnotatedDocument) -> Archive:
            archive = tree(index, number - 1)
            merges[-1].accumulate(archive.add_version(part))
            return archive

        for document in documents:
            for index, part in parts.items():
                merge(index, part)
            parts = {}
            if document is not None:
                held = {**memo_trees, **trees}.values()
                memos = [archive.kept.records for archive in held]
                parts = self._partition(document, memos, number)
            number += 1
            merges.append(MergeStats())
        with ArchiveTxn(self, number) as txn:
            # The presence map of the commit's manifest (a whole-file
            # one has none), to overwrite the entries of merged chunks.
            txn.extra.update(self._manifest_extra())
            presence = txn.extra.get("presence", {})

            def merged() -> Iterator[tuple[int, Archive]]:
                for index in range(self.chunk_count):
                    part = parts.get(index)
                    if part is not None:
                        archive = merge(index, part)
                    elif index in trees or self.part_exists(index):
                        archive = tree(index, number)
                    else:
                        continue  # nothing stored, nothing new: stay lazy
                    presence[str(index)] = _chunk_presence_of(archive).to_text()
                    if room <= 0:
                        archive.kept = None  # nothing is kept: encode keeps no block
                        if self.chunk_count > 1:
                            del trees[index]  # nor held: it goes once encoded
                    yield index, archive

            staged = self._stage_chunks(txn, merged())
        self._held = {}
        for index in sorted(trees):
            archive = trees[index]
            room -= staged[index]["bytes"] + archive.body_bytes + kept_bytes(archive)
            if room >= 0 or self.chunk_count == 1:
                self._held[index] = (staged[index]["sha256"], archive)
        total = MergeStats()
        first = number - len(merges) + 1
        for offset, stats in enumerate(merges):
            stats.versions = 1
            total.accumulate(stats)
            if on_version is not None:
                on_version(first + offset, stats)
        return total

    def retrieve(
        self, version: int, *, probes: Optional[ProbeCount] = None
    ) -> Optional[Element]:
        """Concatenate the per-chunk reconstructions, in key order.

        Chunks whose presence timestamps exclude ``version`` are pruned
        before their XML is parsed (counted in ``chunks_pruned``); the
        chunks that do load reconstruct tree-guided
        (:meth:`Archive.retrieve_ranked`, accumulating into ``probes``
        when given), each handing back beside its records their plain
        label sort tokens, read off the stored labels.  Several chunks'
        records are merged by those tokens — one sort, which also
        orders a fingerprinter's chunks, stored in fingerprint order —
        so the result is byte-identical to the other backends'; one
        chunk's reconstruction is the answer as it is.  No key value is
        recomputed from an element: :func:`restore_key_order` does that
        for callers that hold only elements.
        """
        if not 1 <= version <= self._version_count:
            raise ChunkedArchiverError(
                f"Version {version} not archived (have 1..{self._version_count})"
            )
        ranked = self.chunk_count > 1
        documents: list[Element] = []
        ranks: list[tuple] = []
        for index in range(self.chunk_count):
            mine: Optional[list[tuple]] = [] if ranked else None
            try:
                # A covered chunk that went missing raises in its
                # load instead, unless cached.
                if not self.part_stored(index):
                    continue
                presence = self.part_presence(index)
                if presence is not None and version not in presence:
                    self.chunks_pruned += 1
                    continue
                part = self._load_chunk(index).retrieve_ranked(version, probes, mine)
            except (IntegrityError, CodecError):
                if self.on_corrupt == "skip":
                    # Degrade gracefully: serve the healthy chunks.
                    self.chunks_skipped_corrupt += 1
                    continue
                raise
            if part is None:
                continue
            if not ranked:
                return part
            documents.append(part)
            ranks += mine
        if not documents:
            return None
        # The first part's element is this call's own: it becomes the
        # shell, as :func:`concatenate_parts` takes the first part's.
        document = documents[0]
        records = [record for part in documents for record in part.children]
        order = sorted(range(len(ranks)), key=ranks.__getitem__)
        document.children = [records[position] for position in order]
        return document

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
                payload = self.read_part_payload(index)
                if payload is None:
                    continue
                archive = old.decode_archive(payload, self.spec, self.options)
                texts[index] = archive.to_xml_string()
                yield index, archive

        def check(index: int, encoded: bytes) -> None:
            verify_recoded_document(texts.pop(index), encoded, target)

        with ArchiveTxn(self, self._version_count, codec=target) as txn:
            staged = self._stage_chunks(txn, decoded(), check)
        return RecodeReport(
            path=self.storage_root,
            kind=self.kind,
            old_codec=old.name,
            new_codec=target.name,
            files=len(staged),
            disk_bytes_before=before,
            disk_bytes_after=self.total_bytes(),
        )


class FileBackend(ChunkedArchiver):
    """The whole-file archive: the chunked layout with one chunk.

    Chunk 0's payload is the archive file at ``path`` itself — one
    Fig. 5 ``<T>``-tagged document in the archive's codec — with the
    manifest, the key specification and the write-ahead log beside it
    (``path.manifest.json``, ``path.keys``, ``path.wal``).  Merge,
    commit, reads, stats and recode are :class:`ChunkedArchiver`'s; this
    class says where the files live and reads the manifest this layout
    has always written, which carries no presence map and no chunk
    count: the version count is the manifest's, and nothing is pruned.
    """

    kind = "file"

    def __init__(
        self,
        path: "str | os.PathLike",
        spec: KeySpec,
        options: Optional[ArchiveOptions] = None,
        codec: CodecLike = None,
        recover: bool = True,
        _manifest: Optional[Manifest] = None,
    ) -> None:
        super().__init__(
            path, spec, 1, options, codec, recover=recover, _manifest=_manifest
        )

    # -- where the files live ----------------------------------------------------

    def _open_root(self, root: str) -> None:
        self.path = root

    def _chunk_path(self, index: int) -> str:
        return self.path

    def _part_name(self, part) -> str:
        return os.path.basename(self.path)

    def _holds_payload(self) -> bool:
        return os.path.exists(self.path)

    def _bootstrap(self, txn: ArchiveTxn) -> None:
        txn.put(self.path, self.codec.encode_archive(self._empty_chunk()))

    # -- the manifest it has always written --------------------------------------

    def _manifest_extra(self) -> dict:
        return {}
