"""Cache-correctness drills for the decoded-chunk cache.

The cache must be invisible except in speed: byte-identical answers
with caching on or off across every backend × codec, repeat reads
must actually hit, a publish
must invalidate exactly the republished chunks (token bump), and a
crashed commit must never leave an entry that shadows what a cache-free
reader would see.
"""

import os

import pytest

from repro.data.company import COMPANY_KEY_TEXT, company_versions
from repro.storage import (
    CrashPoint,
    FaultInjector,
    create_archive,
    fsck_archive,
    inject,
    open_archive,
)
from repro.storage.cache import (
    DecodedChunkCache,
    chunk_cache,
    reset_chunk_cache,
)
from repro.xmltree import to_pretty_string

BACKENDS = ["file", "chunked", "external"]
CODECS = ["raw", "gzip", "xmill", "xbin"]


@pytest.fixture(autouse=True)
def fresh_cache():
    """Every test starts and ends with a pristine process-wide cache."""
    reset_chunk_cache()
    yield
    reset_chunk_cache()


@pytest.fixture(scope="module")
def versions():
    return list(company_versions())


def build(tmp_path, kind, codec, versions, count=3, chunk_count=2):
    path = os.path.join(
        str(tmp_path), "archive.xml" if kind == "file" else "store"
    )
    backend = create_archive(
        path, COMPANY_KEY_TEXT, kind=kind, chunk_count=chunk_count, codec=codec
    )
    backend.ingest_batch([v.copy() for v in versions[:count]])
    backend.close()
    return path


def retrievals(backend):
    """Every stored version, pretty-printed — the identity yardstick."""
    return [
        to_pretty_string(backend.retrieve(number))
        for number in range(1, backend.last_version + 1)
    ]


class TestLruMechanics:
    def test_budget_evicts_least_recently_used(self):
        cache = DecodedChunkCache(max_bytes=25)
        for index in range(3):
            cache.put(("root", index, "t"), object(), 10)
        assert cache.evictions == 1
        assert cache.get(("root", 0, "t")) is None
        assert cache.get(("root", 2, "t")) is not None
        assert cache.used_bytes <= 25

    def test_get_freshens_against_eviction(self):
        cache = DecodedChunkCache(max_bytes=20)
        cache.put(("root", 0, "t"), object(), 10)
        cache.put(("root", 1, "t"), object(), 10)
        assert cache.get(("root", 0, "t")) is not None  # now most recent
        cache.put(("root", 2, "t"), object(), 10)
        assert cache.get(("root", 0, "t")) is not None
        assert cache.get(("root", 1, "t")) is None

    def test_oversized_entry_is_not_installed(self):
        cache = DecodedChunkCache(max_bytes=10)
        cache.put(("root", 0, "t"), object(), 11)
        assert cache.entry_count == 0 and cache.evictions == 0

    def test_zero_budget_disables(self):
        cache = DecodedChunkCache(max_bytes=0)
        assert not cache.enabled
        cache.put(("root", 0, "t"), object(), 1)
        assert cache.get(("root", 0, "t")) is None

    def test_invalidate_drops_only_that_archive(self):
        cache = DecodedChunkCache(max_bytes=100)
        cache.put(("a", 0, "t"), object(), 1)
        cache.put(("a", 1, "t"), object(), 1)
        cache.put(("b", 0, "t"), object(), 1)
        assert cache.invalidate("a") == 2
        assert cache.entry_count == 1
        assert cache.get(("b", 0, "t")) is not None


class TestHitAfterRead:
    def test_chunked_repeat_read_hits_on_one_handle(self, tmp_path, versions):
        path = build(tmp_path, "chunked", "xbin", versions)
        backend = open_archive(path, cache_reads=True)
        first = to_pretty_string(backend.retrieve(1))
        assert backend.cache_hits == 0 and backend.cache_misses > 0
        assert to_pretty_string(backend.retrieve(1)) == first
        assert backend.cache_hits > 0
        stats = backend.stats()
        assert stats.cache_hits == backend.cache_hits
        assert stats.cache_misses == backend.cache_misses
        backend.close()

    def test_file_second_handle_hits(self, tmp_path, versions):
        path = build(tmp_path, "file", "gzip", versions)
        first = open_archive(path, cache_reads=True)
        texts = retrievals(first)
        first.close()
        second = open_archive(path, cache_reads=True)
        assert retrievals(second) == texts
        assert second.cache_hits >= 1 and second.cache_misses == 0
        second.close()

    def test_external_second_handle_hits(self, tmp_path, versions):
        path = build(tmp_path, "external", "xmill", versions)
        first = open_archive(path, cache_reads=True)
        text = first.to_archive().to_xml_string()
        first.close()
        second = open_archive(path, cache_reads=True)
        assert second.to_archive().to_xml_string() == text
        assert second.cache_hits >= 1
        second.close()

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_a_relative_open_still_hits_after_chdir(
        self, tmp_path, versions, kind, monkeypatch
    ):
        """A handle's root is made absolute once, at open: a later
        ``chdir`` moves neither its files nor its cache keys."""
        path = build(tmp_path, kind, "xbin", versions)

        def read(backend):
            if kind == "external":
                return backend.to_archive().to_xml_string()
            return retrievals(backend)

        monkeypatch.chdir(tmp_path)
        handle = open_archive(os.path.basename(path), cache_reads=True)
        first = read(handle)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        misses = handle.cache_misses
        assert read(handle) == first
        assert handle.cache_misses == misses  # nothing decoded twice
        assert handle.cache_hits > 0 or kind == "file"  # which keeps its tree
        handle.close()
        other = open_archive(path, cache_reads=True)  # by its absolute path
        assert read(other) == first
        assert other.cache_hits > 0 and other.cache_misses == 0
        other.close()

    def test_default_open_does_not_cache(self, tmp_path, versions):
        path = build(tmp_path, "chunked", "raw", versions)
        backend = open_archive(path)  # recover=True → write-capable
        retrievals(backend)
        retrievals(backend)
        assert backend.cache_hits == 0 and backend.cache_misses == 0
        assert chunk_cache().entry_count == 0
        backend.close()


class TestWhatAnEntryCosts:
    """A decoded ``xbin`` tree with blocks still unread keeps its
    chunk's inflated body alive (a first retrieve leaves every block
    unread), so the budget has to count the body, not just the file."""

    @pytest.fixture
    def omim(self, tmp_path):
        """A three-chunk ``xbin`` store of OMIM records: chunks big
        enough to have framed blocks, which company's few do not."""
        from repro.data import OmimGenerator
        from repro.data.omim import OMIM_KEY_TEXT

        path = str(tmp_path / "omim")
        backend = create_archive(
            path, OMIM_KEY_TEXT, kind="chunked", chunk_count=3, codec="xbin"
        )
        backend.ingest_batch(
            OmimGenerator(seed=4, initial_records=9).generate_versions(3)
        )
        backend.close()
        return path

    def sums(self, path):
        """Bytes of the store's chunk files; those plus their bodies."""
        from repro.storage import xbin

        handle = open_archive(path)
        payloads = [
            handle.read_part_payload(index)
            for index in range(handle.part_count)
            if handle.part_exists(index)
        ]
        handle.close()
        assert len(payloads) > 1
        at_rest = sum(len(payload) for payload in payloads)
        bodies = sum(len(xbin._unpack(payload)[2]) for payload in payloads)
        return at_rest, at_rest + bodies

    def test_an_xbin_entry_costs_its_file_plus_its_body(self, omim):
        path = omim
        at_rest, held = self.sums(path)
        assert held > 2 * at_rest  # the body is the larger part
        reader = open_archive(path, cache_reads=True)
        retrievals(reader)
        assert chunk_cache().used_bytes == held
        reader.close()

    def test_a_budget_between_the_two_sums_evicts(self, omim):
        path = omim
        at_rest, held = self.sums(path)
        cache = reset_chunk_cache((at_rest + held) // 2)
        reader = open_archive(path, cache_reads=True)
        expected = retrievals(reader)  # still right, whatever was evicted
        assert cache.evictions > 0 and cache.used_bytes <= cache.max_bytes
        reader.close()
        reset_chunk_cache(0)
        bare = open_archive(path, cache_reads=True)
        assert retrievals(bare) == expected
        bare.close()

    @pytest.mark.parametrize("codec", ["raw", "gzip", "xmill"])
    def test_a_text_codec_entry_keeps_no_body(self, tmp_path, versions, codec):
        path = build(tmp_path, "file", codec, versions)
        reader = open_archive(path, cache_reads=True)
        reader.retrieve(1)
        assert chunk_cache().used_bytes == os.path.getsize(path)
        reader.close()


class TestInvalidation:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_foreign_write_bumps_token(self, tmp_path, versions, kind):
        """A writer that never touched the cache must still defeat it:
        the republished payload carries a new checksum token, so a
        warmed reader's old entries can never answer for it."""
        path = build(tmp_path, kind, "xbin", versions, count=2)
        warm = open_archive(path, cache_reads=True)
        retrievals(warm)
        if kind == "external":
            warm.to_archive()
        warm.close()
        writer = open_archive(path)  # non-caching write handle
        writer.add_version(versions[2].copy())
        writer.close()
        reader = open_archive(path, cache_reads=True)
        cached = retrievals(reader)
        assert reader.last_version == 3
        reader.close()
        reset_chunk_cache(0)  # ground truth: cache disabled
        bare = open_archive(path, cache_reads=True)
        assert retrievals(bare) == cached
        bare.close()

    def test_write_through_caching_handle_invalidates(self, tmp_path, versions):
        path = build(tmp_path, "chunked", "gzip", versions, count=2)
        backend = open_archive(path, cache_reads=True)
        retrievals(backend)
        assert chunk_cache().entry_count > 0
        backend.add_version(versions[2].copy())
        assert chunk_cache().entry_count == 0  # eager invalidation
        texts = retrievals(backend)
        backend.close()
        reset_chunk_cache(0)
        bare = open_archive(path, cache_reads=True)
        assert retrievals(bare) == texts
        bare.close()

    def test_recode_invalidates(self, tmp_path, versions):
        path = build(tmp_path, "chunked", "raw", versions)
        warm = open_archive(path, cache_reads=True)
        texts = retrievals(warm)
        warm.close()
        writer = open_archive(path)
        writer.recode("xbin")
        writer.close()
        reader = open_archive(path, cache_reads=True)
        # The very first read re-decodes fresh under the new codec — no
        # stale raw-era entry can satisfy an xbin-era token.
        first = to_pretty_string(reader.retrieve(1))
        assert reader.cache_hits == 0 and reader.cache_misses > 0
        assert [first] + retrievals(reader)[1:] == texts
        reader.close()


class TestByteIdentity:
    @pytest.mark.parametrize("kind", BACKENDS)
    @pytest.mark.parametrize("codec", CODECS)
    def test_cache_on_equals_cache_off(self, tmp_path, versions, kind, codec):
        path = build(tmp_path, kind, codec, versions)
        reset_chunk_cache(0)
        off = open_archive(path, cache_reads=True)
        expected = retrievals(off)
        off.close()
        reset_chunk_cache()
        cold = open_archive(path, cache_reads=True)
        assert retrievals(cold) == expected
        cold.close()
        warm = open_archive(path, cache_reads=True)
        assert retrievals(warm) == expected
        if kind == "external":
            # External retrievals stream events; the decoded-archive
            # seam is its to_archive() surface.
            warm.to_archive()
        assert warm.cache_hits + warm.cache_misses > 0
        warm.close()


class TestCrashSafety:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_crashed_commit_leaves_no_stale_entries(
        self, tmp_path, versions, kind
    ):
        """Warm the cache, kill an ingest at its first durable op,
        recover — a caching reader must agree byte-for-byte with a
        cache-free reader on the recovered state."""
        path = build(tmp_path, kind, "xbin", versions, count=2)
        warm = open_archive(path, cache_reads=True)
        pre = retrievals(warm)
        warm.close()
        with inject(FaultInjector().crash_at_op(0)):
            writer = None
            with pytest.raises(CrashPoint):
                writer = open_archive(path)
                writer.ingest_batch([versions[2].copy(), versions[3].copy()])
        open_archive(path).close()  # constructor-time WAL recovery
        report = fsck_archive(path)
        assert report.clean, str(report)
        cached = open_archive(path, cache_reads=True)
        answers = retrievals(cached)
        cached.close()
        reset_chunk_cache(0)
        bare = open_archive(path, cache_reads=True)
        assert retrievals(bare) == answers
        bare.close()
        assert answers == pre  # op 0 dies before any publication
