"""Tests for batched ingestion through the persistent layer.

``ChunkedArchiver.ingest_batch`` must flush chunk files identical to a
per-version ``add_version`` loop while touching each chunk only once,
and ``history``/``changes`` over the chunks it wrote must answer as the
in-memory archive does; ``ExternalArchiver.ingest_batch`` must match the
version-at-a-time stream merge.
"""

import os

import pytest

import repro
from repro.core import Archive, ArchiveError, MergeStats, documents_equivalent
from repro.core.tempquery import archive_diff
from repro.data import OmimChangeRates, OmimGenerator, omim_key_spec
from repro.storage import ChunkedArchiver, ExternalArchiver


@pytest.fixture
def versions():
    return OmimGenerator(seed=13, initial_records=16).generate_versions(5)


@pytest.fixture
def spec():
    return omim_key_spec()


@pytest.fixture
def churn():
    """Versions whose records are inserted, deleted and rewritten."""
    rates = OmimChangeRates(
        insert_fraction=0.1, modify_fraction=0.3, delete_fraction=0.1
    )
    return OmimGenerator(seed=13, initial_records=16, rates=rates).generate_versions(
        5
    )


def in_memory(spec, versions):
    archive = Archive(spec)
    for version in versions:
        archive.add_version(version.copy())
    return archive


def record_paths(versions):
    nums = {
        record.find("Num").text_content()
        for version in versions
        for record in version.iter_elements()
        if record.tag == "Record"
    }
    return [f"/ROOT/Record[Num={num}]" for num in sorted(nums)]


def history_text(history):
    runs = history.changes
    return history.existence.to_text(), runs and [
        (versions.to_text(), content) for versions, content in runs
    ]


class TestChunkedIngestBatch:
    def test_chunk_files_identical_to_loop(self, tmp_path, versions, spec):
        batched = ChunkedArchiver(str(tmp_path / "batch"), spec, chunk_count=4)
        stats = batched.ingest_batch([v.copy() for v in versions])
        looped = ChunkedArchiver(str(tmp_path / "loop"), spec, chunk_count=4)
        for version in versions:
            looped.add_version(version.copy())
        assert batched.last_version == looped.last_version == len(versions)
        assert stats.versions == len(versions)
        for index in range(4):
            batch_path = batched._chunk_path(index)
            loop_path = looped._chunk_path(index)
            assert os.path.exists(batch_path) == os.path.exists(loop_path)
            if os.path.exists(batch_path):
                with open(batch_path) as batch_handle, open(loop_path) as loop_handle:
                    assert batch_handle.read() == loop_handle.read()

    def test_batch_skips_merge_work(self, tmp_path, versions, spec):
        archiver = ChunkedArchiver(str(tmp_path), spec, chunk_count=4)
        stats = archiver.ingest_batch([v.copy() for v in versions])
        assert stats.records_kept > 0
        assert stats.nodes_kept > 0

    def test_batch_of_omim_churn_keeps_records(self, tmp_path, spec):
        """Churn changes every chunk in every version; the batch still
        confirms the records that stood still, reports a loop's
        counters, and writes the chunk files a per-version loop writes."""
        rates = OmimChangeRates(
            insert_fraction=0.05, modify_fraction=0.05, delete_fraction=0.05
        )
        versions = OmimGenerator(
            seed=7, initial_records=40, rates=rates
        ).generate_versions(8)
        batched = ChunkedArchiver(str(tmp_path / "batch"), spec, chunk_count=4)
        stats = batched.ingest_batch([v.copy() for v in versions])
        looped = ChunkedArchiver(str(tmp_path / "loop"), spec, chunk_count=4)
        expected = MergeStats()
        for version in versions:
            expected.accumulate(looped.add_version(version.copy()))
        assert stats.records_kept > 0
        assert stats.nodes_visited() == expected.nodes_visited()
        for index in range(4):
            with open(batched._chunk_path(index), "rb") as ours:
                with open(looped._chunk_path(index), "rb") as theirs:
                    assert ours.read() == theirs.read()

    def test_batch_with_empty_versions(self, tmp_path, versions, spec):
        archiver = ChunkedArchiver(str(tmp_path), spec, chunk_count=3)
        archiver.ingest_batch([versions[0].copy(), None, versions[1].copy()])
        assert archiver.last_version == 3
        assert archiver.retrieve(2) is None
        assert documents_equivalent(archiver.retrieve(3), versions[1], spec)

    def test_consecutive_batches_resume(self, tmp_path, versions, spec):
        archiver = ChunkedArchiver(str(tmp_path), spec, chunk_count=3)
        archiver.ingest_batch([v.copy() for v in versions[:2]])
        archiver.ingest_batch([v.copy() for v in versions[2:]])
        monolithic = Archive(spec)
        for version in versions:
            monolithic.add_version(version.copy())
        for number in range(1, len(versions) + 1):
            assert documents_equivalent(
                archiver.retrieve(number), monolithic.retrieve(number), spec
            )


class TestTemporalReadsOfABatch:
    """``history`` and ``changes`` over the chunks a batch wrote, through
    the query facade, equal the in-memory archive's."""

    @pytest.mark.parametrize("chunk_count", [1, 4, 16])
    def test_history_includes_content_changes(
        self, tmp_path, churn, spec, chunk_count
    ):
        """Existence and the content runs of every record and its
        rewritten ``Text`` field, with one chunk, a few, and enough that
        records sit alone in theirs."""
        backend = ChunkedArchiver(str(tmp_path), spec, chunk_count=chunk_count)
        backend.ingest_batch([v.copy() for v in churn])
        reference = in_memory(spec, churn)
        db = repro.open(backend)
        rewritten = 0
        for record in record_paths(churn):
            for path in (record, f"{record}/Text"):
                expected = reference.history(path)
                assert history_text(db.history(path)) == history_text(expected)
                rewritten += len(expected.changes or ()) > 1
        assert rewritten > 0

    def test_one_handle_follows_across_batches(self, tmp_path, churn, spec):
        backend = ChunkedArchiver(str(tmp_path), spec, chunk_count=4)
        backend.ingest_batch([v.copy() for v in churn[:2]])
        db = repro.open(backend)
        [record, *_] = [
            path
            for path in record_paths(churn[:1])
            if all(path in record_paths([version]) for version in churn)
        ]
        assert db.history(record).existence.to_text() == "1-2"
        early = in_memory(spec, churn[:2])
        assert db.between(1, 2).changes().all() == archive_diff(early, 1, 2).changes
        backend.ingest_batch([v.copy() for v in churn[2:]])
        assert db.history(record).existence.to_text() == f"1-{len(churn)}"
        reference = in_memory(spec, churn)
        last = len(churn)
        assert db.between(2, last).changes().all() == (
            archive_diff(reference, 2, last).changes
        )

    def test_a_reopened_store_answers_from_its_files(self, tmp_path, churn, spec):
        """A second handle, which holds none of the batch's trees, gives
        every version pair's changes, in the same order, and every
        record's history."""
        ChunkedArchiver(str(tmp_path), spec, chunk_count=4).ingest_batch(
            [v.copy() for v in churn]
        )
        backend = ChunkedArchiver(str(tmp_path), spec, chunk_count=4)
        assert backend.last_version == len(churn)
        reference = in_memory(spec, churn)
        with repro.open(backend) as db:
            for old in range(1, len(churn) + 1):
                for new in range(1, len(churn) + 1):
                    expected = archive_diff(reference, old, new).changes
                    assert db.between(old, new).changes().all() == expected
            for record in record_paths(churn):
                assert history_text(db.history(record)) == history_text(
                    reference.history(record)
                )

    def test_unknown_version_rejected(self, tmp_path, versions, spec):
        backend = ChunkedArchiver(str(tmp_path), spec, chunk_count=2)
        backend.ingest_batch([versions[0].copy()])
        db = repro.open(backend)
        with pytest.raises(ArchiveError):
            db.between(1, 2).changes()
        with pytest.raises(ArchiveError):
            db.at(2).select("/ROOT/Record")
        with pytest.raises(ValueError):
            backend.retrieve(2)


class TestExternalIngestBatch:
    def test_batch_matches_loop(self, tmp_path, versions, spec):
        batched = ExternalArchiver(str(tmp_path / "batch"), spec)
        stats = batched.ingest_batch([v.copy() for v in versions[:3]])
        looped = ExternalArchiver(str(tmp_path / "loop"), spec)
        for version in versions[:3]:
            looped.add_version(version.copy())
        assert stats.versions == 3
        assert batched.last_version == looped.last_version == 3
        for number in range(1, 4):
            assert documents_equivalent(
                batched.retrieve(number), looped.retrieve(number), spec
            )

    def test_batch_with_empty_version(self, tmp_path, versions, spec):
        archiver = ExternalArchiver(str(tmp_path), spec)
        archiver.ingest_batch([versions[0].copy(), None])
        assert archiver.last_version == 2
        assert archiver.retrieve(2) is None
