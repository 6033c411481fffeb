"""Tests for the chunked archiver (storage.chunked) — the paper's
Sec. 5 memory workaround."""

import pytest

from repro.core import Archive, ArchiveError, documents_equivalent
from repro.data import OmimGenerator, omim_key_spec
from repro.keys import parse_key_spec
from repro.keys.annotate import KeyLabel
from repro.storage import (
    ChunkedArchiver,
    ChunkedArchiverError,
    PersistentIngestor,
    create_archive,
    open_archive,
    restore_key_order,
)
from repro.storage.cache import reset_chunk_cache
from repro.storage.integrity import IntegrityError
from repro.xmltree import parse_document, to_pretty_string


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
        history = chunked.history(f"/ROOT/Record[Num={num}]")
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
            chunked.history("/ROOT/Record[Num=nonexistent]")


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


class TestHistoryRouting:
    def test_cold_history_decodes_one_chunk(self, stores):
        reset_chunk_cache()
        handle = open_archive(stores["chunked"], recover=False)
        assert _owner(handle, 2) > 0  # index-order probing would decode two
        assert handle.history("/db/rec[id=2]/val").existence.to_text() == "1,3-4"
        assert (handle.cache_misses, handle.cache_hits) == (1, 0)

    def test_damaged_owner_raises_integrity_error(self, stores):
        handle = open_archive(stores["chunked"])
        _flip_a_byte(handle._chunk_path(_owner(handle, 5)))
        with pytest.raises(IntegrityError):
            open_archive(stores["chunked"]).history("/db/rec[id=5]")

    def test_damage_elsewhere_does_not_reach_the_answer(self, stores):
        handle = open_archive(stores["chunked"])
        want = handle.history("/db/rec[id=2]/val")
        for index in range(CHUNKS):
            if index != _owner(handle, 2):
                _flip_a_byte(handle._chunk_path(index))
        got = open_archive(stores["chunked"]).history("/db/rec[id=2]/val")
        assert (got.existence, got.changes) == (want.existence, want.changes)

    def test_absent_key_is_a_miss_after_one_chunk(self, stores):
        reset_chunk_cache()
        handle = open_archive(stores["chunked"], recover=False)
        with pytest.raises(ArchiveError, match="never existed") as raised:
            handle.history("/db/rec[id=999]")
        assert not isinstance(raised.value, IntegrityError)
        assert handle.cache_misses <= 1

    def test_absent_key_owned_by_an_unwritten_chunk(self, tmp_path):
        backend = create_archive(
            str(tmp_path / "one"), KEYS, kind="chunked", chunk_count=CHUNKS
        )
        backend.add_version(_doc(1, [0]))
        absent = next(i for i in range(99) if _owner(backend, i) != _owner(backend, 0))
        with pytest.raises(ArchiveError, match="never existed"):
            backend.history(f"/db/rec[id={absent}]")

    @pytest.mark.parametrize("reader", ["chunked", "ingestor"])
    def test_path_above_the_records_is_answered_by_every_chunk(
        self, tmp_path, reader
    ):
        """The shell lives as long as any chunk holds records: versions
        whose records hash to chunks != 0, 0, != 0 give 1-3, not the
        first chunk's 2."""
        spec = parse_key_spec(KEYS)
        backend = ChunkedArchiver(str(tmp_path), spec, chunk_count=CHUNKS)
        first = next(i for i in range(99) if _owner(backend, i) == 0)
        other = next(i for i in range(99) if _owner(backend, i) != 0)
        versions = [_doc(1, [other]), _doc(2, [first]), _doc(3, [other])]
        if reader == "ingestor":
            store = PersistentIngestor(backend=backend)
            store.ingest_batch(versions)
            store.drop_caches()
        else:
            store = backend
            for version in versions:
                store.add_version(version)
        single = Archive(spec)
        for version in versions:
            single.add_version(version.copy())
        history = store.history("/db")
        assert history.existence.to_text() == "1-3"
        assert history.existence == single.history("/db").existence
        assert history.changes is None
        assert store.history(f"/db/rec[id={first}]").existence.to_text() == "2"
        with pytest.raises(ArchiveError, match="never existed"):
            store.history("/nosuch")
