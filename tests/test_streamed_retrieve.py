"""The first ``retrieve`` of a decoded tree streams; nobody can tell.

``Archive.retrieve`` reads the blocks an ``xbin`` tree has not decoded
yet straight into the version's elements the first time it serves that
tree, and walks the node tree every time after.  Three readings of every
version must therefore agree byte for byte: the first (streamed), the
second (which settles what it walks) and ``guided=False`` (the reference
scan) — on both backends that hold ``xbin`` trees, over stores with
everything a block can contain, over random archives, after an append
through the same tree, and from many threads sharing one cached tree.
"""

import os
import shutil
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_core_properties import _configurations, _state, _state_to_document
from test_xbin_stores import DENSE, FIXTURES, census

import repro
from repro.core import Archive, ArchiveOptions, Fingerprinter, documents_equivalent
from repro.core.tstree import TREE_MIN_CHILDREN, ProbeCount
from repro.data import OmimGenerator, omim_key_spec
from repro.data.company import company_key_spec
from repro.data.omim import OMIM_KEY_TEXT, OmimChangeRates
from repro.storage import create_archive, open_archive, xbin
from repro.storage.cache import chunk_cache, reset_chunk_cache
from repro.storage.chunked import concatenate_parts, restore_key_order
from repro.xmltree import to_pretty_string

#: Enough churn that a few versions leave dead records, frontier nodes
#: with several alternatives (or weave segments) and reinserted keys.
CHURN = OmimChangeRates(
    delete_fraction=0.1, insert_fraction=0.2, modify_fraction=0.4
)


def omim_versions(count: int = 5, records: int = 10, seed: int = 15):
    generator = OmimGenerator(seed=seed, initial_records=records, rates=CHURN)
    return list(generator.generate_versions(count))


def lifecycle():
    """Versions in which records die and come back and the database is
    twice empty: 1 full, 2 empty, 3 without its first three records,
    4 with them back (and whatever else changed), 5 empty, 6 full."""
    first, second, third, fourth = omim_versions(4)
    thinned = second.copy()
    del thinned.children[:3]
    return [first, None, thinned, third, None, fourth]


def text(document) -> str:
    return "(empty)" if document is None else to_pretty_string(document)


def pending(archive):
    """Tags of the nodes whose children block is still undecoded."""
    return census(archive)[1]


def reference(handle, version):
    """``guided=False`` through the handle's trees: the scan that asks
    neither a timestamp tree nor a block reader."""
    if handle.kind == "file":
        return handle.archive.retrieve(version, guided=False)
    parts = (
        handle.load_part(index).retrieve(version, guided=False)
        for index in range(handle.part_count)
        if handle.part_exists(index)
    )
    return restore_key_order(concatenate_parts(parts), handle.spec)


def three_ways(path, version, options=None):
    """First, second and reference reading of one version, each from a
    handle that found the chunk cache empty."""
    reset_chunk_cache()
    handle = open_archive(path, recover=False, options=options)
    try:
        return (
            text(handle.retrieve(version)),
            text(handle.retrieve(version)),
            text(reference(handle, version)),
        )
    finally:
        handle.close()
        reset_chunk_cache()


def build(tmp_path, kind, documents, options=None):
    path = str(tmp_path / ("archive.xml" if kind == "file" else "store"))
    backend = create_archive(
        path, OMIM_KEY_TEXT, kind=kind, chunk_count=3, codec="xbin", options=options
    )
    backend.ingest_batch(
        document.copy() if document is not None else None for document in documents
    )
    backend.close()
    return path


# -- whole stores ---------------------------------------------------------------


@pytest.mark.parametrize("kind", ["file", "chunked"])
class TestEveryVersionOfAStore:
    @pytest.mark.parametrize(
        "options",
        [
            pytest.param(None, id="alternatives"),
            pytest.param(ArchiveOptions(compaction=True), id="weave"),
            pytest.param(
                ArchiveOptions(fingerprinter=Fingerprinter(bits=64)),
                id="fingerprint-order",
            ),
            pytest.param(
                ArchiveOptions(fingerprinter=Fingerprinter(bits=2), compaction=True),
                id="colliding-fingerprints-weave",
            ),
        ],
    )
    def test_first_second_and_reference_agree(self, tmp_path, kind, options):
        documents = lifecycle()
        path = build(tmp_path, kind, documents, options)
        spec = omim_key_spec()
        for version, source in enumerate(documents, start=1):
            first, second, scan = three_ways(path, version, options)
            assert first == second == scan, f"version {version}"
            if source is None:
                assert first == "(empty)"
            else:
                reset_chunk_cache()
                handle = open_archive(path, recover=False, options=options)
                assert documents_equivalent(handle.retrieve(version), source, spec)
                handle.close()

    @pytest.mark.parametrize("wrote, reads", [(None, 64), (64, None), (64, 2)])
    def test_siblings_come_in_the_readers_order(self, tmp_path, kind, wrote, reads):
        """Stored order is the writer's; a reader under another sort
        token re-sorts each list it decodes — the streamed lists too."""

        def under(bits):
            return bits and ArchiveOptions(fingerprinter=Fingerprinter(bits=bits))

        path = build(tmp_path, kind, lifecycle(), under(wrote))
        for version in (1, 3, 4, 6):
            first, second, scan = three_ways(path, version, under(reads))
            assert first == second == scan, f"version {version}"

    def test_the_first_reading_was_the_streamed_one(self, tmp_path, kind):
        """... or the test above compares the tree walk with itself."""
        path = build(tmp_path, kind, lifecycle())
        reset_chunk_cache()
        handle = open_archive(path, recover=False)
        trees = (
            [handle.archive]
            if kind == "file"
            else [handle.load_part(index) for index in range(handle.part_count)]
        )
        before = [pending(tree) for tree in trees]
        assert all(count == {"ROOT": 1} for count in before)
        handle.retrieve(6)
        assert [pending(tree) for tree in trees] == before
        handle.retrieve(6)
        assert not any(count["ROOT"] for count in map(pending, trees))
        handle.close()

    def test_version_1_stores_have_nothing_to_stream(self, tmp_path, kind):
        layout = "file/archive.xml" if kind == "file" else "chunked"
        shutil.copytree(
            os.path.join(FIXTURES, layout.split("/")[0]), tmp_path / "store"
        )
        path = str(tmp_path.joinpath("store", *layout.split("/")[1:]))
        for version in range(1, 5):
            first, second, scan = three_ways(path, version)
            assert first == second == scan, f"version {version}"
        # Re-encoded as version 2 the same store streams the same bytes.
        before = [three_ways(path, version)[0] for version in range(1, 5)]
        handle = open_archive(path)
        handle.recode("xbin")
        handle.close()
        for version in range(1, 5):
            first, second, scan = three_ways(path, version)
            assert first == second == scan == before[version - 1]

    def test_probe_counts_of_a_streamed_read(self, tmp_path, kind):
        """A streamed list is scanned whole: ``short_scans`` below
        ``TREE_MIN_CHILDREN`` children, ``fallback_scans`` from there
        on, and no timestamp tree is asked; the walk that follows
        counts as it always did."""
        path = build(tmp_path, kind, lifecycle())
        reset_chunk_cache()
        handle = open_archive(path, recover=False)
        streamed, walked = ProbeCount(), ProbeCount()
        document = handle.retrieve(6, probes=streamed)
        handle.retrieve(6, probes=walked)
        assert streamed.tree_probes == 0
        assert streamed.short_scans > 0
        if kind == "file":
            assert len(document.children) >= TREE_MIN_CHILDREN
            assert streamed.fallback_scans >= len(document.children)
            assert walked.tree_probes > 0
        handle.close()
        # The same reading, step by step, counts the same.
        reset_chunk_cache()
        handle = open_archive(path, recover=False)
        stepwise = ProbeCount()
        if kind == "file":
            with open(path, "rb") as stored:
                payloads = [stored.read()]
        else:
            payloads = [
                handle.read_part_payload(index)
                for index in range(handle.part_count)
            ]
        for payload in payloads:
            xbin.decode_archive(payload, handle.spec).retrieve(6, probes=stepwise)
        assert vars(stepwise) == vars(streamed)
        handle.close()


# -- random archives ------------------------------------------------------------


@given(
    st.lists(st.one_of(st.none(), _state()), min_size=1, max_size=5),
    _configurations,
)
@settings(max_examples=40, deadline=None)
def test_streamed_equals_settled_equals_scan_on_random_archives(states, options):
    """Random version sequences (with empty versions between), every
    archiver configuration: a fresh decode's first reading of each
    version equals its second, its ``guided=False`` scan, and what the
    archive that was never encoded gives."""
    spec = company_key_spec()
    archive = Archive(spec, options)
    for state in states:
        archive.add_version(None if state is None else _state_to_document(state))
    data = xbin.encode_archive(archive)
    for version in range(1, len(states) + 1):
        fresh = xbin.decode_archive(data, spec, options)
        first = text(fresh.retrieve(version))
        assert first == text(fresh.retrieve(version))
        assert first == text(fresh.retrieve(version, guided=False))
        assert first == text(archive.retrieve(version))


# -- an append through the tree that is then read ---------------------------------


class TestAppendThenRetrieve:
    def test_a_terminated_record_streams_its_old_bytes(self):
        """Merging a version settles the record list and every record
        the version still has; one it dropped keeps its block and gets
        an explicit timestamp on its in-memory head.  The streamed read
        must take liveness from that head and content from the block."""
        spec = omim_key_spec()
        documents = omim_versions(3)
        shorter = documents[2].copy()
        dropped = shorter.children.pop(0).find("Num").text_content()
        lived = [
            dropped in [r.find("Num").text_content() for r in document.children]
            for document in (documents[0], documents[1], shorter)
        ]
        assert lived == [True, True, False]
        memory = Archive(spec)
        for document in documents[:2]:
            memory.add_version(document.copy())
        data = xbin.encode_archive(memory)
        memory.add_version(shorter.copy())
        for version in (1, 2, 3):
            decoded = xbin.decode_archive(data, spec)
            decoded.add_version(shorter.copy())
            gone = pending(decoded)["Record"]  # it and any that died before
            assert gone >= 1
            first = decoded.retrieve(version)
            assert pending(decoded)["Record"] == gone  # streamed, not settled
            nums = [record.find("Num").text_content() for record in first.children]
            assert (dropped in nums) == lived[version - 1]
            assert text(first) == text(decoded.retrieve(version))
            assert text(first) == text(decoded.retrieve(version, guided=False))
            assert text(first) == text(memory.retrieve(version))

    @pytest.mark.parametrize("kind", ["file", "chunked"])
    def test_every_version_through_the_handle_that_appended(self, tmp_path, kind):
        documents = lifecycle()
        path = build(tmp_path, kind, documents[:4])
        handle = open_archive(path)
        for document in documents[4:]:
            handle.add_version(document.copy() if document is not None else None)
        through_writer = [
            text(handle.retrieve(version)) for version in range(1, 7)
        ]
        assert through_writer == [
            text(handle.retrieve(version)) for version in range(1, 7)
        ]
        handle.close()
        assert through_writer == [
            three_ways(path, version)[2] for version in range(1, 7)
        ]


# -- threads ----------------------------------------------------------------------


def test_threads_first_retrieving_and_selecting_on_one_cached_tree(tmp_path):
    """Readers that share decoded chunks through the cache (as ``xarchd``
    requests do) race first retrieves at different versions against
    selects that settle the same blocks: every answer is the oracle's,
    whichever reader got to stream."""
    documents = omim_versions(6, records=14)
    path = build(tmp_path, "chunked", documents)
    versions = range(1, len(documents) + 1)
    oracle = {version: three_ways(path, version)[2] for version in versions}
    reset_chunk_cache()
    quiet = open_archive(path, recover=False)
    dense = {
        version: repro.open(quiet).at(version).select(DENSE).all()
        for version in versions
    }
    quiet.close()

    def retriever(version):
        handle = open_archive(path, recover=False)
        try:
            return text(handle.retrieve(version)) == oracle[version]
        finally:
            handle.close()

    def selector(version):
        handle = open_archive(path, recover=False)
        try:
            return repro.open(handle).at(version).select(DENSE).all() == dense[version]
        finally:
            handle.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _round in range(4):
            reset_chunk_cache()
            loader = open_archive(path, recover=False)
            shared = [loader.load_part(index) for index in range(loader.part_count)]
            loader.close()
            assert all(pending(tree) == {"ROOT": 1} for tree in shared)
            jobs = [(retriever, version) for version in versions]
            jobs += [(selector, version) for version in versions]
            outcomes: list = []
            gate = threading.Barrier(len(jobs))

            def run(job, version):
                try:
                    gate.wait(timeout=30)
                    outcomes.append(job(version))
                except Exception as error:  # reported by the assert below
                    outcomes.append(error)

            threads = [threading.Thread(target=run, args=job) for job in jobs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert outcomes == [True] * len(jobs)
            # They did share: nobody decoded a chunk of their own.
            assert chunk_cache().misses == len(shared)
    finally:
        sys.setswitchinterval(interval)
        reset_chunk_cache()
