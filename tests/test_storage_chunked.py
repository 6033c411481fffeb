"""Tests for the chunked archiver (storage.chunked) — the paper's
Sec. 5 memory workaround."""

import json
import os
import shutil

import pytest

import repro
from repro.core import (
    Archive,
    ArchiveError,
    ArchiveOptions,
    Change,
    documents_equivalent,
)
from repro.data import OmimGenerator, omim_key_spec
from repro.data.omim import OMIM_KEY_TEXT, OmimChangeRates
from repro.keys import parse_key_spec
from repro.keys.annotate import KeyLabel
from repro.storage import (
    ChunkedArchiver,
    ChunkedArchiverError,
    CrashPoint,
    FaultInjector,
    create_archive,
    fsck_archive,
    inject,
    open_archive,
    read_manifest,
    restore_key_order,
)
from repro.storage import xbin
from repro.storage.cache import chunk_cache, reset_chunk_cache
from repro.storage.chunked import _chunk_presence_of, concatenate_parts
from repro.storage.codec import get_codec
from repro.storage.integrity import IntegrityError
from repro.xmltree import parse_document, to_pretty_string, to_string


@pytest.fixture
def versions():
    return OmimGenerator(seed=11, initial_records=20).generate_versions(4)


@pytest.fixture
def spec():
    return omim_key_spec()


class TestChunkedArchiver:
    def test_retrieval_matches_monolithic(self, tmp_path, versions, spec):
        chunked = ChunkedArchiver(str(tmp_path), spec, chunk_count=4)
        monolithic = Archive(spec)
        for version in versions:
            chunked.add_version(version.copy())
            monolithic.add_version(version)
        for number in range(1, len(versions) + 1):
            assert documents_equivalent(
                chunked.retrieve(number), monolithic.retrieve(number), spec
            )

    def test_single_chunk_degenerates_to_monolithic(self, tmp_path, versions, spec):
        chunked = ChunkedArchiver(str(tmp_path), spec, chunk_count=1)
        for version in versions:
            chunked.add_version(version.copy())
        assert documents_equivalent(
            chunked.retrieve(2), versions[1], spec
        )

    def test_records_stay_in_their_chunk(self, tmp_path, versions, spec):
        """The same record must land in the same chunk every version —
        otherwise merging by key would break."""
        chunked = ChunkedArchiver(str(tmp_path), spec, chunk_count=4)
        for version in versions:
            chunked.add_version(version.copy())
        # History works, which requires the record's whole lifetime to
        # live in one chunk.
        num = versions[0].find("Record").find("Num").text_content()
        history = repro.open(chunked).history(f"/ROOT/Record[Num={num}]")
        assert 1 in history.existence

    def test_persistence(self, tmp_path, versions, spec):
        first = ChunkedArchiver(str(tmp_path), spec, chunk_count=3)
        for version in versions[:2]:
            first.add_version(version.copy())
        second = ChunkedArchiver(str(tmp_path), spec, chunk_count=3)
        assert second.last_version == 2
        for version in versions[2:]:
            second.add_version(version.copy())
        for number, original in enumerate(versions, start=1):
            assert documents_equivalent(second.retrieve(number), original, spec)

    def test_total_bytes(self, tmp_path, versions, spec):
        chunked = ChunkedArchiver(str(tmp_path), spec, chunk_count=4)
        chunked.add_version(versions[0].copy())
        before = chunked.total_bytes()
        chunked.add_version(versions[1].copy())
        assert chunked.total_bytes() > before

    def test_unknown_version_raises(self, tmp_path, versions, spec):
        chunked = ChunkedArchiver(str(tmp_path), spec)
        chunked.add_version(versions[0].copy())
        with pytest.raises(ChunkedArchiverError):
            chunked.retrieve(5)

    def test_rejects_zero_chunks(self, tmp_path, spec):
        with pytest.raises(ChunkedArchiverError):
            ChunkedArchiver(str(tmp_path), spec, chunk_count=0)

    def test_missing_element_raises(self, tmp_path, versions, spec):
        chunked = ChunkedArchiver(str(tmp_path), spec, chunk_count=2)
        chunked.add_version(versions[0].copy())
        with pytest.raises(Exception):
            repro.open(chunked).history("/ROOT/Record[Num=nonexistent]")


# -- the read path: key order, owner routing ----------------------------------

KEYS = "(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))"
CHUNKS = 4


def _doc(stamp, ids):
    body = "".join(
        f"<rec><id>{i}</id><val>v{stamp}-{i}</val></rec>" for i in ids
    )
    return parse_document(f"<db>{body}</db>")


def _owner(backend, record_id) -> int:
    return backend.chunk_index_for_label(
        KeyLabel(tag="rec", key=(("id", str(record_id)),))
    )


def _flip_a_byte(path):
    with open(path, "r+b") as handle:
        data = bytearray(handle.read())
        data[len(data) // 2] ^= 0x01
        handle.seek(0)
        handle.write(data)


@pytest.fixture
def stores(tmp_path):
    """The same versions in a chunked and a file archive.  Version 2 is
    empty, version 3's records leave two of the four chunks without
    any (their presence prunes them) and version 4 arrives out of key
    order."""
    versions = [
        _doc(1, range(8)),
        None,
        _doc(3, [7, 2, 5, 0]),
        _doc(4, list(range(29, 19, -1)) + [2, 5]),
    ]
    paths = {}
    for kind in ("chunked", "file"):
        paths[kind] = str(tmp_path / kind)
        backend = create_archive(
            paths[kind], KEYS, kind=kind, chunk_count=CHUNKS, codec="xbin"
        )
        backend.ingest_batch(v.copy() if v is not None else None for v in versions)
        backend.close()
    return paths


class TestKeyOrderRestored:
    def test_retrievals_byte_equal_the_file_backend(self, stores):
        chunked = open_archive(stores["chunked"], on_corrupt="skip")
        single = open_archive(stores["file"])
        for version in range(1, 5):
            ours, theirs = chunked.retrieve(version), single.retrieve(version)
            if theirs is None:
                assert ours is None and version == 2
            else:
                assert to_pretty_string(ours) == to_pretty_string(theirs)
        assert chunked.chunks_pruned > 0
        assert chunked.chunks_skipped_corrupt == 0

    def test_skipping_a_damaged_chunk_keeps_the_rest_in_key_order(self, stores):
        healthy = open_archive(stores["chunked"])
        victim = _owner(healthy, 5)
        _flip_a_byte(healthy._chunk_path(victim))
        degraded = open_archive(stores["chunked"], on_corrupt="skip")
        expected = open_archive(stores["file"]).retrieve(4)
        expected.children[:] = [
            record
            for record in expected.children
            if _owner(healthy, record.find("id").text_content()) != victim
        ]
        assert to_pretty_string(degraded.retrieve(4)) == to_pretty_string(expected)
        assert degraded.chunks_skipped_corrupt == 1

    def test_sorts_by_the_record_labels(self):
        spec = parse_key_spec(KEYS)
        document = _doc(1, [3, 1, 2])
        assert restore_key_order(document, spec) is document
        assert [r.find("id").text_content() for r in document.children] == [
            "1", "2", "3",
        ]

    @pytest.mark.parametrize(
        "xml",
        [
            pytest.param(
                "<db>stray<rec><id>2</id></rec><rec><id>1</id></rec></db>",
                id="top-level-text",
            ),
            pytest.param(
                "<db><rec><id>2</id></rec><other/><rec><id>1</id></rec></db>",
                id="unkeyed-top-level-tag",
            ),
            pytest.param(
                "<db><rec><id>2</id></rec><rec><val>x</val></rec></db>",
                id="record-missing-its-key-path",
            ),
        ],
    )
    def test_unsortable_documents_come_back_untouched(self, xml):
        document = parse_document(xml)
        before = list(document.children)
        assert restore_key_order(document, parse_key_spec(KEYS)) is document
        assert document.children == before


#: A cold read of record 2 through the facade, by the temporal question.
COLD_READS = {
    "history": lambda db: str(db.history("/db/rec[id=2]/val").existence),
    "changes": lambda db: [
        str(change) for change in db.between(3, 4).changes("/db/rec[id=2]")
    ],
}


class TestHistoryRouting:
    @pytest.mark.parametrize("question", sorted(COLD_READS))
    def test_cold_read_of_one_record_decodes_one_chunk(self, stores, question):
        ask = COLD_READS[question]
        with repro.open(stores["file"]) as single:
            want = ask(single)
        reset_chunk_cache()
        handle = open_archive(stores["chunked"], recover=False)
        assert _owner(handle, 2) > 0  # index-order probing would decode two
        assert ask(repro.open(handle)) == want
        assert (handle.cache_misses, handle.cache_hits) == (1, 0)

    def test_damaged_owner_raises_integrity_error(self, stores):
        handle = open_archive(stores["chunked"])
        _flip_a_byte(handle._chunk_path(_owner(handle, 5)))
        with pytest.raises(IntegrityError):
            repro.open(stores["chunked"]).history("/db/rec[id=5]")

    @pytest.mark.parametrize("question", sorted(COLD_READS))
    def test_damage_elsewhere_does_not_reach_the_answer(self, stores, question):
        ask = COLD_READS[question]
        handle = open_archive(stores["chunked"])
        want = ask(repro.open(handle))
        for index in range(CHUNKS):
            if index != _owner(handle, 2):
                _flip_a_byte(handle._chunk_path(index))
        reset_chunk_cache()
        with repro.open(stores["chunked"]) as db:
            assert ask(db) == want

    def test_absent_key_is_a_miss_after_one_chunk(self, stores):
        reset_chunk_cache()
        handle = open_archive(stores["chunked"], recover=False)
        with pytest.raises(ArchiveError, match="never existed") as raised:
            repro.open(handle).history("/db/rec[id=999]")
        assert not isinstance(raised.value, IntegrityError)
        assert handle.cache_misses <= 1

    def test_absent_key_owned_by_an_unwritten_chunk(self, tmp_path):
        backend = create_archive(
            str(tmp_path / "one"), KEYS, kind="chunked", chunk_count=CHUNKS
        )
        backend.add_version(_doc(1, [0]))
        absent = next(i for i in range(99) if _owner(backend, i) != _owner(backend, 0))
        with pytest.raises(ArchiveError, match="never existed"):
            repro.open(backend).history(f"/db/rec[id={absent}]")

    def test_path_above_the_records_is_answered_by_every_chunk(self, tmp_path):
        """The shell lives as long as any chunk holds records: versions
        whose records hash to chunks != 0, 0, != 0 give 1-3, not the
        first chunk's 2."""
        spec = parse_key_spec(KEYS)
        backend = ChunkedArchiver(str(tmp_path), spec, chunk_count=CHUNKS)
        first = next(i for i in range(99) if _owner(backend, i) == 0)
        other = next(i for i in range(99) if _owner(backend, i) != 0)
        versions = [_doc(1, [other]), _doc(2, [first]), _doc(3, [other])]
        for version in versions:
            backend.add_version(version)
        single = Archive(spec)
        for version in versions:
            single.add_version(version.copy())
        db = repro.open(backend)
        history = db.history("/db")
        assert history.existence.to_text() == "1-3"
        assert history.existence == single.history("/db").existence
        assert history.changes is None
        assert db.history(f"/db/rec[id={first}]").existence.to_text() == "2"
        with pytest.raises(ArchiveError, match="never existed"):
            db.history("/nosuch")


    def test_a_record_alone_in_its_chunk_changes_as_itself(self, tmp_path):
        """The owning chunk's copy of the shell dies with its only
        record while the document lives on: a prefix under the record
        still reports the record, in both directions."""
        spec = parse_key_spec(KEYS)
        backend = ChunkedArchiver(str(tmp_path), spec, chunk_count=CHUNKS)
        alone = next(i for i in range(99) if _owner(backend, i) == 0)
        other = next(i for i in range(99) if _owner(backend, i) != 0)
        backend.ingest_batch([_doc(1, [alone, other]), _doc(2, [other])])
        db = repro.open(backend)
        prefix = f"/db/rec[id={alone}]"
        assert db.between(1, 2).changes(prefix).all() == [Change("deleted", prefix)]
        assert db.between(2, 1).changes(prefix).all() == [Change("added", prefix)]
        assert db.between(1, 2).changes(prefix + "/val").all() == []


class TestQuarantinedChunk:
    """After ``fsck --repair`` quarantines a chunk, no read answers
    without it: selects and change reports raise the typed error that
    ``retrieve`` and ``history`` raise, instead of leaving its records
    out."""

    QUARANTINED = "quarantined by fsck --repair"

    @pytest.fixture
    def repaired(self, stores):
        handle = open_archive(stores["chunked"])
        victim = _owner(handle, 5)
        handle.close()
        _flip_a_byte(os.path.join(stores["chunked"], f"chunk-{victim:04d}.xml"))
        report = fsck_archive(stores["chunked"], repair=True)
        assert any("quarantine" in finding.repair for finding in report.findings)
        reset_chunk_cache()
        return stores["chunked"]

    @pytest.mark.parametrize(
        "read",
        [
            pytest.param(lambda db: db.at(4).snapshot(), id="retrieve"),
            pytest.param(lambda db: db.history("/db/rec[id=5]"), id="history"),
            pytest.param(lambda db: db.at(4).select("/db/rec").all(), id="dense"),
            pytest.param(
                lambda db: db.at(4).select("/db/rec[id='5']").all(), id="keyed"
            ),
            pytest.param(lambda db: db.between(3, 4).changes().all(), id="changes"),
        ],
    )
    def test_every_read_raises(self, repaired, read):
        with repro.open(repaired) as db:
            with pytest.raises(IntegrityError, match=self.QUARANTINED):
                read(db)


# -- the write path: held trees, one annotation, no copies --------------------

APPENDS = 40


@pytest.fixture(scope="module")
def churn():
    """Forty versions with inserts, edits and deletes in every one, plus
    an empty version: every chunk changes on every append."""
    rates = OmimChangeRates(
        insert_fraction=0.1, modify_fraction=0.1, delete_fraction=0.1
    )
    versions = OmimGenerator(
        seed=5, initial_records=16, rates=rates
    ).generate_versions(APPENDS)
    versions[7] = None
    return versions


def _copy(document):
    return document.copy() if document is not None else None


def _files(directory):
    state = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            state[name] = handle.read()
    return state


def _payloads(directory):
    """Chunk files, what the checksum sidecar records for them and the
    manifest's presence map — what must not depend on how versions
    arrived."""
    files = _files(directory)
    state = {
        name: data for name, data in files.items() if name.startswith("chunk-")
    }
    recorded = json.loads(files["checksums.json"])["entries"]
    presence = json.loads(files["manifest.json"])["extra"]["presence"]
    return state, {name: recorded[name] for name in state}, presence


def _count_decodes(monkeypatch, codec_name):
    """Count ``decode_archive`` calls on the (shared) codec instance."""
    codec = get_codec(codec_name)
    calls = []
    original = codec.decode_archive

    def counting(data, spec, options=None):
        calls.append(len(data))
        return original(data, spec, options)

    monkeypatch.setattr(codec, "decode_archive", counting)
    return calls


class TestAppendsOnOneHandle:
    @pytest.mark.parametrize(
        "codec, compaction",
        [("raw", False), ("xmill", False), ("xbin", False), ("xbin", True)],
    )
    def test_same_store_however_the_versions_arrive(
        self, tmp_path, churn, codec, compaction
    ):
        """Forty appends on one handle (held trees) == one handle per
        append (every tree decoded) == one batch."""
        options = ArchiveOptions(compaction=compaction)

        def store(name):
            return create_archive(
                str(tmp_path / name), OMIM_KEY_TEXT, kind="chunked",
                chunk_count=CHUNKS, codec=codec, options=options,
            )

        one_handle = store("one-handle")
        for version in churn:
            one_handle.add_version(_copy(version))
        assert len(one_handle._held) == CHUNKS
        one_handle.close()
        assert one_handle._held == {}

        store("per-append").close()
        for version in churn:
            handle = open_archive(str(tmp_path / "per-append"), options=options)
            handle.add_version(_copy(version))
            handle.close()

        batch = store("batch")
        batch.ingest_batch(_copy(version) for version in churn)
        batch.close()

        assert _files(tmp_path / "one-handle") == _files(tmp_path / "per-append")
        assert _payloads(tmp_path / "one-handle") == _payloads(tmp_path / "batch")
        reader = open_archive(str(tmp_path / "one-handle"))
        spec = omim_key_spec()
        for number, version in enumerate(churn, start=1):
            if version is None:
                assert reader.retrieve(number) is None
            else:
                assert documents_equivalent(reader.retrieve(number), version, spec)

    def test_second_append_decodes_nothing(self, tmp_path, churn, monkeypatch):
        handle = create_archive(
            str(tmp_path / "s"), OMIM_KEY_TEXT, kind="chunked",
            chunk_count=CHUNKS, codec="xbin",
        )
        handle.ingest_batch(_copy(version) for version in churn[:3])
        decodes = _count_decodes(monkeypatch, "xbin")
        handle.add_version(_copy(churn[3]))  # the batch left nothing held
        assert len(decodes) == CHUNKS
        handle.add_version(_copy(churn[4]))
        handle.add_version(_copy(churn[5]))
        assert len(decodes) == CHUNKS
        # Reads through the writer never see (or share) a held tree.
        held = {id(tree) for _sha, tree in handle._held.values()}
        assert id(handle.load_part(0)) not in held
        assert len(decodes) == CHUNKS + 1

    def test_every_chunk_file_is_still_hashed_before_use(
        self, tmp_path, churn
    ):
        """``verify="always"``: a held tree is no licence to skip the
        read — damage under a writer's feet is still noticed."""
        path = str(tmp_path / "s")
        handle = create_archive(
            path, OMIM_KEY_TEXT, kind="chunked", chunk_count=CHUNKS, codec="xbin"
        )
        handle.add_version(_copy(churn[0]))
        _flip_a_byte(os.path.join(path, "chunk-0002.xml"))
        with pytest.raises(IntegrityError):
            handle.add_version(_copy(churn[1]))
        assert handle._held == {}
        assert handle.last_version == 1

    def test_budget_bounds_what_is_held(self, tmp_path, churn, monkeypatch):
        """Held trees are costed against the decoded-chunk cache's budget
        like its entries — at-rest bytes plus the encoded body — and
        their kept blocks by their length; ``0`` turns all of it off
        like it turns the cache off."""
        path = str(tmp_path / "s")
        handle = create_archive(
            path, OMIM_KEY_TEXT, kind="chunked", chunk_count=CHUNKS, codec="xbin"
        )
        codec = get_codec("xbin")
        encoded = []  # (tree, what it kept) as each chunk was encoded
        original = codec.encode_archives

        def watching(archives):
            trees = []

            def each():
                for archive in archives:
                    trees.append(archive)
                    yield archive

            data = original(each())
            encoded.extend((archive, archive.kept) for archive in trees)
            return data

        monkeypatch.setattr(codec, "encode_archives", watching)
        try:
            reset_chunk_cache(0)
            decodes = _count_decodes(monkeypatch, "xbin")
            for version in churn[:3]:
                handle.add_version(_copy(version))
                assert handle._held == {}
            assert len(decodes) == 2 * CHUNKS  # the first append created them
            assert [kept for _tree, kept in encoded] == [None] * (3 * CHUNKS)
            # A created chunk's tree is costed like a decoded one.
            assert all(tree.body_bytes > 0 for tree, _kept in encoded[:CHUNKS])

            reset_chunk_cache()
            handle.add_version(_copy(churn[3]))
            assert len(handle._held) == CHUNKS
            costs = []
            for index in range(CHUNKS):
                _sha, tree = handle._held[index]
                blocks = xbin.kept_bytes(tree)
                assert blocks > 0
                at_rest = os.path.getsize(os.path.join(path, f"chunk-{index:04d}.xml"))
                assert tree.body_bytes > at_rest
                costs.append(at_rest + tree.body_bytes + blocks)
            # Room for two trees with their blocks (and their growth),
            # not for three — though trees and bodies alone, or the
            # files of all four, would fit.
            budget = costs[0] + costs[1] + costs[2] // 2
            assert budget > sum(
                cost - xbin.kept_bytes(handle._held[index][1])
                for index, cost in enumerate(costs[:3])
            )
            reset_chunk_cache(budget)
            del decodes[:]
            handle.add_version(_copy(churn[4]))
            assert decodes == []  # all were held
            assert sorted(handle._held) == [0, 1]
            handle.add_version(_copy(churn[5]))
            assert len(decodes) == CHUNKS - 2
            assert chunk_cache().entry_count == 0  # never the shared cache
        finally:
            reset_chunk_cache()
        handle.close()
        monkeypatch.setattr(codec, "encode_archives", original)
        fresh = create_archive(
            str(tmp_path / "fresh"), OMIM_KEY_TEXT, kind="chunked",
            chunk_count=CHUNKS, codec="xbin",
        )
        for version in churn[:6]:
            fresh.add_version(_copy(version))
        assert _files(path) == _files(tmp_path / "fresh")

    def test_republished_by_another_handle(self, tmp_path, churn):
        """A second writer republishes the chunks behind the first one's
        back.  The first notices at the checksum (its sidecar is stale),
        drops what it held, reloads — and decodes the other's bytes."""
        path = str(tmp_path / "s")
        first = create_archive(
            path, OMIM_KEY_TEXT, kind="chunked", chunk_count=CHUNKS, codec="xbin"
        )
        first.add_version(_copy(churn[0]))
        assert len(first._held) == CHUNKS
        second = open_archive(path)
        second.add_version(_copy(churn[1]))
        second.close()
        with pytest.raises(IntegrityError):
            first.add_version(_copy(churn[2]))
        assert first._held == {}
        assert first.last_version == 2
        first.add_version(_copy(churn[2]))
        first.close()
        alone = create_archive(
            str(tmp_path / "alone"), OMIM_KEY_TEXT, kind="chunked",
            chunk_count=CHUNKS, codec="xbin",
        )
        for version in churn[:3]:
            alone.add_version(_copy(version))
        assert _files(path) == _files(tmp_path / "alone")

    def test_batch_and_recode_drop_held_trees(self, tmp_path, churn):
        handle = create_archive(
            str(tmp_path / "s"), OMIM_KEY_TEXT, kind="chunked",
            chunk_count=CHUNKS, codec="xbin",
        )
        handle.add_version(_copy(churn[0]))
        assert handle._held
        handle.ingest_batch([_copy(churn[1])])
        assert handle._held == {}
        handle.add_version(_copy(churn[2]))
        assert handle._held
        handle.recode("gzip")
        assert handle._held == {}
        handle.add_version(_copy(churn[3]))
        handle.drop_caches()
        assert handle._held == {}
        spec = omim_key_spec()
        for number in range(1, 5):
            assert documents_equivalent(
                handle.retrieve(number), churn[number - 1], spec
            )

    def test_cached_reader_never_sees_a_writers_mutation(self, tmp_path, churn):
        """A snapshot reader shares decoded trees through the process-wide
        cache; a writer in the same process merges into its held trees in
        place.  The two sets of trees must be disjoint."""
        path = str(tmp_path / "s")
        reset_chunk_cache()
        try:
            writer = create_archive(
                path, OMIM_KEY_TEXT, kind="chunked", chunk_count=CHUNKS,
                codec="xbin",
            )
            writer.add_version(_copy(churn[0]))
            writer.add_version(_copy(churn[1]))
            reader = open_archive(path, recover=False)
            assert reader.cache_reads
            before = to_string(reader.retrieve(2))
            cache = chunk_cache()
            root = os.path.abspath(path)
            shared = {
                index: cache.get((root, index, reader._cache_token(index)))
                for index in range(CHUNKS)
            }
            assert all(tree is not None for tree in shared.values())
            for version in churn[2:6]:
                writer.add_version(_copy(version))
            held = {id(tree) for _sha, tree in writer._held.values()}
            assert len(held) == CHUNKS
            for index, tree in shared.items():
                assert id(tree) not in held
                assert tree.last_version == 2
            # The reader's own pin is stale now (its sidecar names bytes
            # that were replaced); a fresh pin reads the new state, and
            # the trees cached under the old checksums still say what
            # they said.
            later = open_archive(path, recover=False)
            assert later.last_version == 6
            assert to_string(later.retrieve(2)) == before
            rebuilt = restore_key_order(
                concatenate_parts(
                    tree.retrieve(2) for tree in shared.values()
                ),
                omim_key_spec(),
            )
            assert to_string(rebuilt) == before
        finally:
            reset_chunk_cache()


class TestPartition:
    def test_slices_share_the_callers_records_and_leave_them_alone(
        self, tmp_path, churn
    ):
        backend = ChunkedArchiver(str(tmp_path), omim_key_spec(), CHUNKS)
        document = churn[0].copy()
        records = list(document.children)
        before = to_string(document)
        parts = backend._partition(document)
        sliced = [
            record for index in sorted(parts) for record in parts[index].root.children
        ]
        assert sorted(map(id, sliced)) == sorted(map(id, records))  # no copies
        assert all(record.parent is document for record in records)
        assert document.children == records and to_string(document) == before
        backend.add_version(document)
        assert to_string(document) == before
        assert all(record.parent is document for record in records)


class TestBatch:
    def _store(self, path):
        return create_archive(
            str(path), OMIM_KEY_TEXT, kind="chunked", chunk_count=CHUNKS,
            codec="xbin",
        )

    def test_two_batches_write_what_one_batch_writes(self, tmp_path, churn):
        one = self._store(tmp_path / "one")
        one.ingest_batch(_copy(version) for version in churn[:6])
        one.close()
        two = self._store(tmp_path / "two")
        two.ingest_batch(_copy(version) for version in churn[:3])
        two.ingest_batch(_copy(version) for version in churn[3:6])
        two.close()
        assert _payloads(tmp_path / "one") == _payloads(tmp_path / "two")
        # Creation is commit 1; the split store committed once more.
        assert read_manifest(str(tmp_path / "one")).generation == 2
        assert read_manifest(str(tmp_path / "two")).generation == 3

    def test_workers_is_accepted_and_ignored(self, tmp_path, churn):
        """``create_archive``, ``open_archive`` and ``repro.open`` still
        take ``workers=`` and answer exactly as without it."""
        answers = {}
        for label, extra in (("plain", {}), ("workers", {"workers": 2})):
            path = str(tmp_path / label)
            store = create_archive(
                path, OMIM_KEY_TEXT, kind="chunked", chunk_count=CHUNKS,
                codec="xbin", **extra,
            )
            store.ingest_batch(_copy(version) for version in churn[:4])
            store.recode("gzip")
            store.close()
            reader = open_archive(path, **extra)
            retrieved = to_string(reader.retrieve(4))
            reader.close()
            with repro.open(path, **extra) as db:
                selected = [to_string(e) for e in db.at(4).select("/ROOT/Record")]
            answers[label] = (_payloads(path), retrieved, selected)
        assert answers["plain"] == answers["workers"]


# -- stores from before the manifest carried the presence map -----------------

V1_STORE = os.path.join(os.path.dirname(__file__), "fixtures", "xbin_v1", "chunked")
#: What that layout kept beside its two chunks.
V1_SIDECARS = {"chunk-0000.presence", "chunk-0001.presence", "versions.txt"}


class TestStoreFromBeforeThePresenceMap:
    """``tests/fixtures/xbin_v1/chunked`` keeps presence in sidecars and
    the version count in ``versions.txt``: read old, never write old."""

    @pytest.fixture(scope="class")
    def documents(self):
        return OmimGenerator(seed=15, initial_records=8).generate_versions(6)

    @pytest.fixture
    def old(self, tmp_path):
        path = str(tmp_path / "store")
        shutil.copytree(V1_STORE, path)
        assert V1_SIDECARS < set(os.listdir(path))
        assert "presence" not in read_manifest(path).extra
        return path

    @staticmethod
    def assert_holds(path, documents):
        """Every ``retrieve(v)`` equals the in-memory model."""
        model = Archive(omim_key_spec())
        for document in documents:
            model.add_version(_copy(document))
        with open_archive(path, recover=False) as handle:
            assert handle.last_version == len(documents)
            for number in range(1, len(documents) + 1):
                assert to_pretty_string(handle.retrieve(number)) == (
                    to_pretty_string(model.retrieve(number))
                )

    @staticmethod
    def assert_moved(path):
        """The map is in the manifest; the sidecars are in neither the
        directory nor the checksum table."""
        manifest = read_manifest(path)
        with open_archive(path, recover=False) as handle:
            for index in range(handle.chunk_count):
                derived = _chunk_presence_of(handle.load_part(index))
                assert manifest.extra["presence"][str(index)] == derived.to_text()
                assert handle.part_presence(index) == derived
            assert manifest.version_count == handle.last_version
        assert not V1_SIDECARS & set(os.listdir(path))
        assert not V1_SIDECARS & set(_recorded(path))
        report = fsck_archive(path, deep=True)
        assert report.clean, str(report)

    def test_it_is_read_as_it_is(self, old, documents):
        before = _files(old)
        self.assert_holds(old, documents[:4])
        with open_archive(old) as handle:  # write-capable: still touches nothing
            assert handle._presence is None
            assert handle.part_presence(0).to_text() == "1-4"
            os.remove(os.path.join(old, "chunk-0001.presence"))
            assert handle.part_presence(1) is None  # unknown: the chunk is read
            assert len(handle.retrieve(4).children) >= 8
        after = _files(old)
        del before["chunk-0001.presence"]
        assert after == before
        assert fsck_archive(V1_STORE, deep=True).clean

    @pytest.mark.parametrize("first_commit", ["add_version", "ingest_batch", "recode"])
    def test_its_first_commit_moves_the_map(self, old, documents, first_commit):
        stored = 4
        with open_archive(old) as handle:
            if first_commit == "add_version":
                handle.add_version(_copy(documents[4]))
                stored = 5
            elif first_commit == "ingest_batch":
                handle.ingest_batch(_copy(document) for document in documents[4:6])
                stored = 6
            else:
                handle.recode("gzip")
            assert handle.last_version == stored
            assert handle._presence is not None
        self.assert_moved(old)
        self.assert_holds(old, documents[:stored])
        with open_archive(old) as handle:  # and the next one is an ordinary one
            handle.add_version(_copy(documents[stored] if stored < 6 else None))
        self.assert_moved(old)

    def test_a_crash_while_publishing_rolls_the_unlinks_forward(self, old, documents):
        dry = FaultInjector()
        shutil.copytree(old, old + "-dry")
        with inject(dry), open_archive(old + "-dry") as handle:
            handle.add_version(_copy(documents[4]))
        renames = [
            index
            for index, (kind, target) in enumerate(dry.log)
            if kind == "replace" and not target.endswith("wal.json")
        ]
        crashing = open_archive(old)
        with inject(FaultInjector().crash_at_op(renames[1])):
            with pytest.raises(CrashPoint):
                crashing.add_version(_copy(documents[4]))
        # One file was in place: the handle's reload settled the commit
        # as a reopen would — forward, unlinks included.
        assert crashing.last_version == 5
        self.assert_moved(old)
        self.assert_holds(old, documents[:5])

    def test_sidecars_that_come_back_are_debris(self, old, documents):
        """Beside a manifest that carries the map nothing reads them: a
        reader leaves them alone, ``fsck`` names them and ``--repair``
        deletes them — as the next write-capable open would."""
        with open_archive(old) as handle:
            handle.add_version(_copy(documents[4]))
        left = {"chunk-0000.presence", "versions.txt"}
        for name in left:
            shutil.copy(os.path.join(V1_STORE, name), os.path.join(old, name))
        self.assert_holds(old, documents[:5])  # versions.txt says 4
        assert left < set(os.listdir(old))
        report = fsck_archive(old)
        assert {finding.code for finding in report.findings} == {"leftover-sidecar"}
        assert {finding.path for finding in report.findings} == left
        shutil.copytree(old, old + "-reopened")
        repaired = fsck_archive(old, repair=True)
        assert not repaired.unrepaired, str(repaired)
        open_archive(old + "-reopened").close()
        for path in (old, old + "-reopened"):
            self.assert_moved(path)
            self.assert_holds(path, documents[:5])

    def test_fsck_repairs_a_wrong_sidecar_by_moving_the_map(self, old, documents):
        with open(os.path.join(old, "chunk-0000.presence"), "w") as handle:
            handle.write("1")
        report = fsck_archive(old)
        assert "presence-mismatch" in {finding.code for finding in report.findings}
        repaired = fsck_archive(old, repair=True)
        assert not repaired.unrepaired, str(repaired)
        self.assert_moved(old)
        self.assert_holds(old, documents[:4])


def _recorded(path):
    with open(os.path.join(path, "checksums.json"), encoding="utf-8") as handle:
        return json.load(handle)["entries"]
