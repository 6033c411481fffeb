"""Tests for batched ingestion through the persistent layer.

``ChunkedArchiver.ingest_batch`` must flush chunk files identical to a
per-version ``add_version`` loop while touching each chunk only once;
``PersistentIngestor`` must keep its key/timestamp-tree indexes current
as chunks land; ``ExternalArchiver.ingest_batch`` must match the
version-at-a-time stream merge.
"""

import os

import pytest

from repro.core import Archive, MergeStats, documents_equivalent
from repro.data import OmimChangeRates, OmimGenerator, omim_key_spec
from repro.storage import ChunkedArchiver, ExternalArchiver, PersistentIngestor


@pytest.fixture
def versions():
    return OmimGenerator(seed=13, initial_records=16).generate_versions(5)


@pytest.fixture
def spec():
    return omim_key_spec()


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

    def test_on_chunk_hook_fires_per_flushed_chunk(self, tmp_path, versions, spec):
        archiver = ChunkedArchiver(str(tmp_path), spec, chunk_count=4)
        seen = []
        archiver.ingest_batch(
            [v.copy() for v in versions[:2]],
            on_chunk=lambda index, archive: seen.append(
                (index, archive.version_count)
            ),
        )
        touched = [
            index
            for index in range(4)
            if os.path.exists(archiver._chunk_path(index))
        ]
        assert [index for index, _ in seen] == touched
        assert all(count == 2 for _, count in seen)


class TestPersistentIngestor:
    def test_indexed_retrieval_matches_originals(self, tmp_path, versions, spec):
        ingestor = PersistentIngestor(str(tmp_path), spec, chunk_count=4)
        ingestor.ingest_batch([v.copy() for v in versions])
        for number, original in enumerate(versions, start=1):
            document, probes = ingestor.retrieve(number)
            assert documents_equivalent(document, original, spec)
            assert probes.total() > 0

    def test_indexes_follow_across_batches(self, tmp_path, versions, spec):
        ingestor = PersistentIngestor(str(tmp_path), spec, chunk_count=4)
        ingestor.ingest_batch([v.copy() for v in versions[:2]])
        num = versions[0].find("Record").find("Num").text_content()
        before = ingestor.history(f"/ROOT/Record[Num={num}]")
        assert before.existence.max_version() == 2
        ingestor.ingest_batch([v.copy() for v in versions[2:]])
        after = ingestor.history(f"/ROOT/Record[Num={num}]")
        assert after.existence.max_version() == len(versions)

    def test_history_includes_content_changes(self, tmp_path, versions, spec):
        """Parity with ChunkedArchiver.history: the ``changes`` runs of
        a frontier element must come back, not just existence."""
        from repro.storage import ChunkedArchiver

        ingestor = PersistentIngestor(str(tmp_path / "ing"), spec, chunk_count=4)
        ingestor.ingest_batch([v.copy() for v in versions])
        chunked = ChunkedArchiver(str(tmp_path / "ref"), spec, chunk_count=4)
        for version in versions:
            chunked.add_version(version.copy())
        num = versions[0].find("Record").find("Num").text_content()
        path = f"/ROOT/Record[Num={num}]/Title"
        indexed = ingestor.history(path)
        reference = chunked.history(path)
        assert indexed.changes is not None
        assert [
            (ts.to_text(), content) for ts, content in indexed.changes
        ] == [(ts.to_text(), content) for ts, content in reference.changes]

    def test_drop_caches_readopts_lazily(self, tmp_path, versions, spec):
        ingestor = PersistentIngestor(str(tmp_path), spec, chunk_count=3)
        ingestor.ingest_batch([v.copy() for v in versions])
        ingestor.drop_caches()
        assert not ingestor._key_indexes
        document, _ = ingestor.retrieve(len(versions))
        assert documents_equivalent(document, versions[-1], spec)

    def test_restart_adopts_chunks_lazily(self, tmp_path, versions, spec):
        first = PersistentIngestor(str(tmp_path), spec, chunk_count=3)
        first.ingest_batch([v.copy() for v in versions])
        second = PersistentIngestor(str(tmp_path), spec, chunk_count=3)
        assert second.last_version == len(versions)
        document, _ = second.retrieve(len(versions))
        assert documents_equivalent(document, versions[-1], spec)

    def test_unknown_version_rejected(self, tmp_path, versions, spec):
        ingestor = PersistentIngestor(str(tmp_path), spec, chunk_count=2)
        ingestor.ingest_batch([versions[0].copy()])
        with pytest.raises(ValueError):
            ingestor.retrieve(2)


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
