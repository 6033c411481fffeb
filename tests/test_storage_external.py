"""Tests for the external-memory archiver (Sec. 6)."""

import os

import pytest

from repro.core import Archive, VersionSet, documents_equivalent
from repro.data import OmimGenerator, omim_key_spec
from repro.data.company import COMPANY_KEY_TEXT, company_key_spec, company_versions
from repro.keys import annotate_keys
from repro.storage import (
    ChecksumMismatch,
    EventWriter,
    ExternalArchiver,
    IOStats,
    create_archive,
    decode_event,
    encode_event,
    open_archive,
    read_events,
    sort_version,
    write_sorted_runs,
)
from repro.storage import integrity
from repro.storage.archiver import STREAM_NAME
from repro.storage.events import (
    ExitEvent,
    FrontierEvent,
    NodeEvent,
    version_events,
)
from repro.keys.annotate import KeyLabel
from repro.core.nodes import Alternative
from repro.xmltree import Text, parse_document


class TestEventCodec:
    def test_node_event_round_trip(self):
        event = NodeEvent(
            label=KeyLabel(tag="emp", key=(("fn", "John"), ("ln", "Doe"))),
            attributes=(("id", "e1"),),
            timestamp=VersionSet.parse("1-3,5"),
        )
        assert decode_event(encode_event(event)) == event

    def test_inherited_timestamp_round_trip(self):
        event = NodeEvent(label=KeyLabel(tag="db", key=()), attributes=(), timestamp=None)
        assert decode_event(encode_event(event)) == event

    def test_frontier_event_round_trip(self):
        event = FrontierEvent(
            label=KeyLabel(tag="sal", key=()),
            attributes=(),
            timestamp=VersionSet([3, 4]),
            alternatives=[
                Alternative(timestamp=VersionSet([3]), content=[Text("90K")]),
                Alternative(
                    timestamp=VersionSet([4]),
                    content=[parse_document("<x><y>deep</y></x>")],
                ),
            ],
        )
        decoded = decode_event(encode_event(event))
        assert decoded.label == event.label
        assert decoded.timestamp == event.timestamp
        assert len(decoded.alternatives) == 2
        assert decoded.alternatives[0].content[0].text == "90K"

    def test_exit_event(self):
        assert isinstance(decode_event(encode_event(ExitEvent())), ExitEvent)


class TestSortedRuns:
    def _sorted_stream_events(self, document, spec, tmp_path, budget):
        annotated = annotate_keys(document, spec)
        stats = IOStats()
        path = sort_version(annotated, str(tmp_path), budget, stats, prefix="test")
        return list(read_events(path, stats))

    def test_tiny_budget_matches_unbounded(self, tmp_path):
        """Runs with a tiny budget must merge to the same stream a direct
        sorted traversal produces."""
        spec = company_key_spec()
        document = company_versions()[3]
        annotated = annotate_keys(document, spec)

        direct_path = os.path.join(str(tmp_path), "direct.jsonl")
        stats = IOStats()
        with EventWriter(direct_path, stats) as writer:
            for event in version_events(annotated):
                writer.write(event)
        direct = [encode_event(e) for e in read_events(direct_path, stats)]

        merged = [
            encode_event(e)
            for e in self._sorted_stream_events(document, spec, tmp_path, budget=3)
        ]
        assert merged == direct

    def test_run_count_scales_with_budget(self, tmp_path):
        spec = omim_key_spec()
        document = OmimGenerator(seed=1, initial_records=20).initial_version()
        annotated = annotate_keys(document, spec)
        small = write_sorted_runs(annotated, str(tmp_path), 10, IOStats(), "small")
        large = write_sorted_runs(annotated, str(tmp_path), 1000, IOStats(), "large")
        assert len(small) > len(large)

    def test_budget_validation(self, tmp_path):
        spec = company_key_spec()
        annotated = annotate_keys(company_versions()[0], spec)
        with pytest.raises(ValueError):
            write_sorted_runs(annotated, str(tmp_path), 1, IOStats())


class TestExternalArchiver:
    def test_matches_in_memory_archiver_exactly(self, tmp_path):
        spec = company_key_spec()
        external = ExternalArchiver(str(tmp_path), spec, memory_budget=4)
        in_memory = Archive(spec)
        for version in company_versions():
            external.add_version(version.copy())
            in_memory.add_version(version)
        assert external.to_archive().to_xml_string() == in_memory.to_xml_string()

    def test_retrieval(self, tmp_path):
        spec = company_key_spec()
        external = ExternalArchiver(str(tmp_path), spec, memory_budget=4)
        for version in company_versions():
            external.add_version(version.copy())
        for number, original in enumerate(company_versions(), start=1):
            assert documents_equivalent(external.retrieve(number), original, spec)

    def test_unknown_version_raises(self, tmp_path):
        external = ExternalArchiver(str(tmp_path), company_key_spec())
        external.add_version(company_versions()[0])
        with pytest.raises(ValueError):
            external.retrieve(9)

    def test_empty_version(self, tmp_path):
        spec = company_key_spec()
        external = ExternalArchiver(str(tmp_path), spec)
        external.add_version(company_versions()[0])
        external.add_version(None)
        assert external.last_version == 2
        assert external.retrieve(2) is None
        assert external.retrieve(1) is not None

    def test_persistence_across_instances(self, tmp_path):
        """The archive lives on disk; a new archiver picks it up."""
        spec = company_key_spec()
        first = ExternalArchiver(str(tmp_path), spec)
        for version in company_versions()[:2]:
            first.add_version(version.copy())
        second = ExternalArchiver(str(tmp_path), spec)
        assert second.last_version == 2
        for version in company_versions()[2:]:
            second.add_version(version.copy())
        for number, original in enumerate(company_versions(), start=1):
            assert documents_equivalent(second.retrieve(number), original, spec)

    def test_io_accounting_grows(self, tmp_path):
        spec = omim_key_spec()
        external = ExternalArchiver(str(tmp_path), spec, memory_budget=50)
        versions = OmimGenerator(seed=2, initial_records=15).generate_versions(3)
        for version in versions:
            external.add_version(version)
        assert external.io_stats.bytes_written > 0
        assert external.io_stats.bytes_read > 0
        assert external.io_stats.pages_written() >= 1

    def test_omim_scale_with_small_budget(self, tmp_path):
        """A run budget far below the document size still archives
        correctly — the point of external memory."""
        spec = omim_key_spec()
        versions = OmimGenerator(seed=3, initial_records=25).generate_versions(3)
        external = ExternalArchiver(str(tmp_path), spec, memory_budget=30, fan_in=3)
        in_memory = Archive(spec)
        for version in versions:
            external.add_version(version.copy())
            in_memory.add_version(version)
        assert external.to_archive().to_xml_string() == in_memory.to_xml_string()

    def test_archive_bytes(self, tmp_path):
        external = ExternalArchiver(str(tmp_path), company_key_spec())
        before = external.archive_bytes()
        external.add_version(company_versions()[3])
        assert external.archive_bytes() > before


class TestOneReadOfTheStream:
    """``last_version`` is the manifest's version count; every read
    verifies the stream it walks, and an append hashes it once."""

    @pytest.fixture
    def store(self, tmp_path):
        path = str(tmp_path / "store")
        backend = create_archive(path, COMPANY_KEY_TEXT, kind="external")
        backend.ingest_batch(version.copy() for version in company_versions()[:3])
        backend.close()
        return path

    @pytest.fixture
    def hashed(self, monkeypatch):
        """The paths :func:`hash_file` is asked for, in order."""
        paths = []
        hash_file = integrity.hash_file

        def counting(path, *args, **kwargs):
            paths.append(os.path.basename(path))
            return hash_file(path, *args, **kwargs)

        monkeypatch.setattr(integrity, "hash_file", counting)
        return paths

    def test_last_version_hashes_and_reads_nothing(self, store, hashed):
        handle = open_archive(store)
        os.rename(handle.archive_path, handle.archive_path + ".away")
        assert handle.last_version == 3
        assert open_archive(store, recover=False).last_version == 3
        assert hashed == []

    def test_an_append_hashes_the_stream_once(self, store, hashed):
        handle = open_archive(store)
        handle.add_version(company_versions()[3].copy())
        assert hashed.count(STREAM_NAME) == 1
        handle.add_version(None)  # an empty version merges the stream too
        assert hashed.count(STREAM_NAME) == 2
        assert handle.last_version == 5

    READS = {
        "select": lambda handle: handle.db().at(1).select("/db/dept/name").all(),
        "retrieve": lambda handle: handle.retrieve(1),
        "history": lambda handle: handle.db().history("/db/dept[name=finance]"),
        "stats": lambda handle: handle.stats(),
        "recode": lambda handle: handle.recode("gzip"),
    }

    @pytest.mark.parametrize("read", sorted(READS))
    def test_a_stream_changed_after_the_open_raises(self, store, read):
        handle = open_archive(store)
        other = open_archive(store)
        other.add_version(company_versions()[3].copy())
        other.close()
        with pytest.raises(ChecksumMismatch):
            self.READS[read](handle)
