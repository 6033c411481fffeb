"""Cache-correctness drills for the decoded-chunk cache.

The cache must be invisible except in speed: byte-identical answers
with caching on or off across every backend × codec, repeat reads
must actually hit, a publish
must invalidate exactly the republished chunks (token bump), and a
crashed commit must never leave an entry that shadows what a cache-free
reader would see.  A hit is asked before any file is touched, so a warm
read stats, reads and hashes nothing, and only bytes a read hashed
against their checksum ever enter the cache.
"""

import dataclasses
import os

import pytest

import repro
from repro.core.archive import key_path_labels
from repro.core.tstree import ProbeCount
from repro.data.company import COMPANY_KEY_TEXT, company_versions
from repro.storage import (
    ChecksumMismatch,
    ChunkedArchiver,
    CrashPoint,
    ExternalArchiver,
    FaultInjector,
    FileBackend,
    IntegrityError,
    ManifestInconsistent,
    create_archive,
    fsck_archive,
    inject,
    open_archive,
    read_manifest,
)
from repro.storage.cache import (
    DecodedChunkCache,
    chunk_cache,
    reset_chunk_cache,
)
from repro.xmltree import to_pretty_string, to_string

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
        backend = open_archive(path, recover=False)
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
        first = open_archive(path, recover=False)
        texts = retrievals(first)
        first.close()
        second = open_archive(path, recover=False)
        assert retrievals(second) == texts
        assert second.cache_hits >= 1 and second.cache_misses == 0
        second.close()

    def test_external_second_handle_hits(self, tmp_path, versions):
        path = build(tmp_path, "external", "xmill", versions)
        first = open_archive(path, recover=False)
        text = first.to_archive().to_xml_string()
        first.close()
        second = open_archive(path, recover=False)
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
        handle = open_archive(os.path.basename(path), recover=False)
        first = read(handle)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        misses = handle.cache_misses
        assert read(handle) == first
        assert handle.cache_misses == misses  # nothing decoded twice
        assert handle.cache_hits > 0 or kind == "file"  # which keeps its tree
        handle.close()
        other = open_archive(path, recover=False)  # by its absolute path
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
        reader = open_archive(path, recover=False)
        retrievals(reader)
        assert chunk_cache().used_bytes == held
        reader.close()

    def test_a_budget_between_the_two_sums_evicts(self, omim):
        path = omim
        at_rest, held = self.sums(path)
        cache = reset_chunk_cache((at_rest + held) // 2)
        reader = open_archive(path, recover=False)
        expected = retrievals(reader)  # still right, whatever was evicted
        assert cache.evictions > 0 and cache.used_bytes <= cache.max_bytes
        reader.close()
        reset_chunk_cache(0)
        bare = open_archive(path, recover=False)
        assert retrievals(bare) == expected
        bare.close()

    @pytest.mark.parametrize("codec", ["raw", "gzip", "xmill"])
    def test_a_text_codec_entry_keeps_no_body(self, tmp_path, versions, codec):
        path = build(tmp_path, "file", codec, versions)
        reader = open_archive(path, recover=False)
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
        warm = open_archive(path, recover=False)
        retrievals(warm)
        if kind == "external":
            warm.to_archive()
        warm.close()
        writer = open_archive(path)  # non-caching write handle
        writer.add_version(versions[2].copy())
        writer.close()
        reader = open_archive(path, recover=False)
        cached = retrievals(reader)
        assert reader.last_version == 3
        reader.close()
        reset_chunk_cache(0)  # ground truth: cache disabled
        bare = open_archive(path, recover=False)
        assert retrievals(bare) == cached
        bare.close()

    def test_write_through_caching_handle_invalidates(self, tmp_path, versions):
        path = build(tmp_path, "chunked", "gzip", versions, count=2)
        backend = open_archive(path, recover=False)
        retrievals(backend)
        assert chunk_cache().entry_count > 0
        backend.add_version(versions[2].copy())
        assert chunk_cache().entry_count == 0  # eager invalidation
        texts = retrievals(backend)
        backend.close()
        reset_chunk_cache(0)
        bare = open_archive(path, recover=False)
        assert retrievals(bare) == texts
        bare.close()

    def test_recode_invalidates(self, tmp_path, versions):
        path = build(tmp_path, "chunked", "raw", versions)
        warm = open_archive(path, recover=False)
        texts = retrievals(warm)
        warm.close()
        writer = open_archive(path)
        writer.recode("xbin")
        writer.close()
        reader = open_archive(path, recover=False)
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
        off = open_archive(path, recover=False)
        expected = retrievals(off)
        off.close()
        reset_chunk_cache()
        cold = open_archive(path, recover=False)
        assert retrievals(cold) == expected
        cold.close()
        warm = open_archive(path, recover=False)
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
        warm = open_archive(path, recover=False)
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
        cached = open_archive(path, recover=False)
        answers = retrievals(cached)
        cached.close()
        reset_chunk_cache(0)
        bare = open_archive(path, recover=False)
        assert retrievals(bare) == answers
        bare.close()
        assert answers == pre  # op 0 dies before any publication


# -- the hit path: a warm read touches no file --------------------------------

#: OMIM at the shape of the e2e stores: 40 records in 4 chunks, 3 versions.
OMIM_VERSIONS = 3
DENSE = "/ROOT/Record/Num/text()"


def keyed(num):
    return f"/ROOT/Record[Num='{num}']"


def record_path(num):
    return f"/ROOT/Record[Num={num}]"


@pytest.fixture
def omim_store(tmp_path):
    """A 4-chunk OMIM store (seed 1, 40 records) and two record keys
    alive at version 1."""
    from repro.data import OmimGenerator
    from repro.data.omim import OMIM_KEY_TEXT

    documents = list(
        OmimGenerator(seed=1, initial_records=40).generate_versions(OMIM_VERSIONS)
    )
    path = str(tmp_path / "omim")
    backend = create_archive(
        path, OMIM_KEY_TEXT, kind="chunked", chunk_count=4, codec="xbin"
    )
    backend.ingest_batch(documents)
    backend.close()
    nums = [record.find("Num").text_content() for record in documents[0].children]
    return path, nums[:2]


def cycle(handle, nums):
    """One retrieve, keyed select, dense select and history."""
    db = repro.open(handle)
    return (
        to_pretty_string(handle.retrieve(OMIM_VERSIONS)),
        [to_string(element) for element in db.at(1).select(keyed(nums[0]))],
        db.at(1).select(DENSE).all(),
        str(db.history(record_path(nums[1]))),
    )


def oracle(path, nums):
    """:func:`cycle` on a fresh handle with the cache switched off."""
    reset_chunk_cache(0)
    bare = open_archive(path, recover=False)
    try:
        return cycle(bare, nums)
    finally:
        bare.close()
        reset_chunk_cache()


def owner(handle, num):
    """The chunk a record's key hashes to."""
    return handle.chunk_index_for_label(
        key_path_labels(record_path(num), handle.spec)[1]
    )


def refuse(monkeypatch, cls, *names):
    """Make ``cls``'s disk reads fail the test if anything calls them."""

    def refused(*args, **kwargs):
        raise AssertionError(f"{cls.__name__} touched the disk on a hit")

    for name in names:
        monkeypatch.setattr(cls, name, refused)


def watch_exists(monkeypatch):
    """Record every path ``os.path.exists`` is asked about."""
    looked = []
    real = os.path.exists

    def exists(path):
        looked.append(os.fspath(path))
        return real(path)

    monkeypatch.setattr(os.path, "exists", exists)
    return looked


def flip_a_byte(path):
    """Flip one byte in the middle of a file, keeping its size."""
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    data[len(data) // 2] ^= 0x01
    with open(path, "wb") as handle:
        handle.write(bytes(data))


class TestAWarmReadTouchesNoFile:
    def test_chunked_warm_cycle_reads_and_stats_nothing(
        self, omim_store, monkeypatch
    ):
        path, nums = omim_store
        expected = oracle(path, nums)
        reader = open_archive(path, recover=False)
        assert cycle(reader, nums) == expected  # the warm-up
        looked = watch_exists(monkeypatch)
        refuse(monkeypatch, ChunkedArchiver, "read_part_payload")
        misses = chunk_cache().misses
        for _ in range(2):
            assert cycle(reader, nums) == expected
        assert chunk_cache().misses == misses
        assert [p for p in looked if os.path.basename(p).startswith("chunk-")] == []
        reader.close()

    def test_a_second_file_handle_hits_without_a_read(
        self, tmp_path, versions, monkeypatch
    ):
        path = build(tmp_path, "file", "xbin", versions)

        def reads(handle):
            db = repro.open(handle)
            return (
                retrievals(handle),
                db.at(handle.last_version).select("/db/dept/name/text()").all(),
                str(db.history("/db/dept[name=finance]")),
            )

        first = open_archive(path, recover=False)
        expected = reads(first)
        first.close()
        refuse(monkeypatch, FileBackend, "read_part_payload")
        second = open_archive(path, recover=False)
        assert reads(second) == expected
        # One hit per read: each retrieval, the select and the history.
        hits = second.last_version + 2
        assert (second.cache_hits, second.cache_misses) == (hits, 0)
        second.close()

    def test_a_second_external_handle_hits_without_a_read(
        self, tmp_path, versions, monkeypatch
    ):
        path = build(tmp_path, "external", "xbin", versions)
        first = open_archive(path, recover=False)
        expected = first.to_archive().to_xml_string()
        first.close()
        looked = watch_exists(monkeypatch)
        refuse(monkeypatch, ExternalArchiver, "_verify_stream", "_events")
        second = open_archive(path, recover=False)
        assert second.to_archive().to_xml_string() == expected
        assert (second.cache_hits, second.cache_misses) == (1, 0)
        assert second.archive_path not in looked
        second.close()

    def test_damage_after_a_verified_decode(self, omim_store):
        """A hit answers with the tree its verified decode built; the
        next miss, and fsck, report the damage."""
        path, nums = omim_store
        expected = oracle(path, nums)
        reader = open_archive(path, recover=False)
        assert cycle(reader, nums) == expected
        victim = f"chunk-{owner(reader, nums[0]):04d}.xml"
        flip_a_byte(os.path.join(path, victim))
        assert cycle(reader, nums) == expected
        reset_chunk_cache()
        with pytest.raises(ChecksumMismatch):
            cycle(reader, nums)
        reader.close()
        report = fsck_archive(path)
        assert [
            finding.code for finding in report.findings if victim in finding.path
        ] == ["checksum-mismatch"]

    def test_an_open_at_every_rename_of_an_append_pins_its_manifest(
        self, omim_store
    ):
        """The manifest carries the checksum table, so an open racing a
        commit reads one commit's record whichever rename it lands
        beside: it succeeds and pins the generation its manifest names.
        What it can still meet is a chunk republished under it, in
        place: a miss on one raises ChecksumMismatch (a snapshot reader
        re-pins), never ManifestInconsistent."""
        from repro.data import OmimGenerator

        path, _ = omim_store
        document = OmimGenerator(seed=1, initial_records=40).generate_versions(
            OMIM_VERSIONS + 1
        )[-1]
        stored = [f"chunk-{index:04d}.xml" for index in range(4)]
        assert all(os.path.exists(os.path.join(path, name)) for name in stored)
        seen = []  # per open: generation on disk, pinned, what each load did

        def open_and_read(republished):
            generation = read_manifest(path).generation
            reset_chunk_cache()  # every load a miss, as on a cold reader
            reader = open_archive(path, recover=False)
            loads = {}
            for index, name in enumerate(stored):
                try:
                    reader.load_part(index)
                    loads[name] = "answered", name in republished
                except IntegrityError as error:
                    loads[name] = type(error).__name__, name in republished
            seen.append((generation, reader.generation, loads))
            reader.close()

        class OpenAtEveryRename(FaultInjector):
            def before_op(self, kind, target):
                super().before_op(kind, target)
                if kind == "replace" or target.endswith("wal.json"):
                    open_and_read(
                        {
                            os.path.basename(name)
                            for done, name in self.log[:-1]
                            if done == "replace"
                        }
                    )

        writer = open_archive(path)
        before = writer.generation
        with inject(OpenAtEveryRename()):
            writer.add_version(document)
        writer.close()
        # Before the record's rename, each chunk's and the manifest's,
        # and the record's removal.
        assert len(seen) == 1 + len(stored) + 1 + 1
        assert [pinned for _, pinned, _ in seen] == [before] * 6 + [before + 1]
        for generation, pinned, loads in seen:
            assert pinned == generation
            for name, (outcome, republished) in loads.items():
                if republished and pinned == before:
                    assert outcome == "ChecksumMismatch", (pinned, name)
                else:
                    assert outcome == "answered", (pinned, name)
        assert sum(
            outcome == "ChecksumMismatch" for _, _, loads in seen
            for outcome, _ in loads.values()
        ) == 1 + 2 + 3 + 4  # a chunk more republished at each later rename

    def test_each_decode_is_one_miss(self, omim_store):
        path, _ = omim_store
        cache = chunk_cache()
        reader = open_archive(path, recover=False)
        stored = [i for i in range(reader.part_count) if reader.part_exists(i)]
        for _ in range(2):
            for index in stored:
                reader.load_part(index)
        assert (cache.hits, cache.misses) == (len(stored), len(stored))
        reader.close()

    def test_query_stats_and_probes_cold_and_warm(self, omim_store):
        """The counters a query reports (wire format) move as before:
        a cold query misses once per chunk it opens, the same query
        again hits once per chunk, and nothing else it counts moves."""
        path, nums = omim_store
        queries = {"keyed": (keyed(nums[0]), 1), "dense": (DENSE, None)}
        for name, (expression, opened) in queries.items():
            reset_chunk_cache()
            handle = open_archive(path, recover=False)
            db = repro.open(handle)
            if opened is None:  # every chunk with records at version 1
                opened = sum(
                    1
                    for index in range(handle.part_count)
                    if 1 in handle.part_presence(index)
                )
            runs = []
            for _ in range(2):
                result = db.at(1).select(expression)
                result.all()
                runs.append(result.stats)
            cold, warm = runs
            assert (cold.cache_hits, cold.cache_misses) == (0, opened), name
            assert (warm.cache_hits, warm.cache_misses) == (opened, 0), name
            rest = {"cache_hits": 0, "cache_misses": 0}
            assert dataclasses.replace(cold, **rest) == dataclasses.replace(
                warm, **rest
            ), name
            handle.close()

        # Probes: the cached handle's first and second retrieve count
        # what a first and a second retrieve of privately decoded trees
        # count.
        reset_chunk_cache(0)
        private = open_archive(path, recover=False)
        trees = [
            private.load_part(index)
            for index in range(private.part_count)
            if OMIM_VERSIONS in private.part_presence(index)
        ]
        private.close()
        reset_chunk_cache()
        reader = open_archive(path, recover=False)
        for _ in range(2):
            expected = ProbeCount()
            for tree in trees:
                tree.retrieve(OMIM_VERSIONS, probes=expected)
            probes = ProbeCount()
            reader.retrieve(OMIM_VERSIONS, probes=probes)
            assert probes == expected
        reader.close()


class TestOnlyVerifiedBytesAreShared:
    """Every miss hashes the bytes against the checksum the entry is
    filed under before it decodes them."""

    @pytest.fixture
    def raw_omim(self, tmp_path):
        from repro.data import OmimGenerator
        from repro.data.omim import OMIM_KEY_TEXT

        path = str(tmp_path / "raw")
        backend = create_archive(
            path, OMIM_KEY_TEXT, kind="chunked", chunk_count=4, codec="raw"
        )
        backend.ingest_batch(
            OmimGenerator(seed=1, initial_records=40).generate_versions(2)
        )
        backend.close()
        return path

    @staticmethod
    def tamper(path):
        """Change one word of text in a chunk: the file still decodes,
        but no longer matches its checksum."""
        for name in sorted(os.listdir(path)):
            if name.startswith("chunk-"):
                with open(os.path.join(path, name), "rb") as handle:
                    data = handle.read()
                if b"phenotype" in data:
                    with open(os.path.join(path, name), "wb") as handle:
                        handle.write(data.replace(b"phenotype", b"PHENOTYPE", 1))
                    return name
        raise AssertionError("no chunk to tamper with")

    @staticmethod
    def read_everything(handle):
        return [to_pretty_string(handle.retrieve(v)) for v in (1, 2)]

    def test_a_tampered_chunk_raises_on_every_read_that_misses(self, raw_omim):
        """A tree shared before the damage answers until it is evicted;
        then the handle that shared it, a fresh snapshot reader and a
        writer each hash the chunk and raise."""
        once = open_archive(raw_omim, recover=False)
        expected = self.read_everything(once)  # these trees are shared
        assert chunk_cache().entry_count > 0
        self.tamper(raw_omim)
        assert self.read_everything(once) == expected
        reset_chunk_cache()  # evicted
        for handle in (once, open_archive(raw_omim, recover=False)):
            with pytest.raises(ChecksumMismatch):
                self.read_everything(handle)
            handle.close()
        writer = open_archive(raw_omim)
        with pytest.raises(ChecksumMismatch):
            self.read_everything(writer)
        writer.close()


class TestAMissingChunk:
    """Liveness comes from the checksum table: a select raises on a
    covered chunk that is gone, as ``retrieve`` does, instead of
    answering without it — on a snapshot reader and on a writer alike,
    unless the chunk's tree is cached."""

    def test_cold_reads_raise_and_warm_ones_answer(self, omim_store):
        path, nums = omim_store
        expected = oracle(path, nums)
        warm = open_archive(path, recover=False)
        assert cycle(warm, nums) == expected
        victim = owner(warm, nums[0])
        os.remove(os.path.join(path, f"chunk-{victim:04d}.xml"))
        assert cycle(warm, nums) == expected  # every load a hit
        warm.close()

        reset_chunk_cache()
        for cold in (open_archive(path, recover=False), open_archive(path)):
            db = repro.open(cold)
            reads = [
                lambda: db.at(1).select(DENSE).all(),
                lambda: db.at(1).select(keyed(nums[0])).all(),
                lambda: db.history(record_path(nums[0])),
                lambda: cold.retrieve(1),
            ]
            for read in reads:
                with pytest.raises(ManifestInconsistent):
                    read()
            cold.close()

        skip = open_archive(path, recover=False, on_corrupt="skip")
        partial = skip.retrieve(1)
        assert skip.chunks_skipped_corrupt == 1
        assert 0 < len(partial.children) < len(expected[2])
        skip.close()


HANDLES = [
    pytest.param(recover, on_corrupt, id=f"{role}-{on_corrupt}")
    for recover, role in ((False, "reader"), (True, "writer"))
    for on_corrupt in ("raise", "skip")
]


@pytest.mark.parametrize("recover, on_corrupt", HANDLES)
class TestNoHandleAnswersFromDamagedBytes:
    """Every handle configuration left (``recover`` x ``on_corrupt``)
    reads a covered chunk only through its checksum: a covered chunk
    that is gone, or whose bytes changed after the handle first read
    them, raises, or under ``on_corrupt="skip"`` is left out of the
    answer and counted — never answered from, never left out silently."""

    @pytest.fixture
    def raw_omim(self, tmp_path):
        """A four-chunk ``raw`` store, its two versions' records and
        the name of a chunk that holds text to change."""
        from repro.data import OmimGenerator
        from repro.data.omim import OMIM_KEY_TEXT

        path = str(tmp_path / "raw")
        backend = create_archive(
            path, OMIM_KEY_TEXT, kind="chunked", chunk_count=4, codec="raw"
        )
        backend.ingest_batch(
            OmimGenerator(seed=1, initial_records=40).generate_versions(2)
        )
        records = self.records(backend)
        backend.close()
        for name in sorted(os.listdir(path)):
            if name.startswith("chunk-"):
                with open(os.path.join(path, name), "rb") as handle:
                    if b"phenotype" in handle.read():
                        return path, records, name
        raise AssertionError("no chunk holds text to change")

    @staticmethod
    def records(handle):
        return [
            [to_string(record) for record in handle.retrieve(v).children]
            for v in (1, 2)
        ]

    def check(self, handle, on_corrupt, expected, error):
        if on_corrupt == "raise":
            with pytest.raises(error):
                self.records(handle)
            return
        answered = self.records(handle)
        assert handle.chunks_skipped_corrupt == 2  # once per version
        for partial, full in zip(answered, expected):
            assert 0 < len(partial) < len(full)
            assert set(partial) <= set(full)

    def test_a_missing_chunk(self, raw_omim, recover, on_corrupt):
        path, expected, victim = raw_omim
        os.remove(os.path.join(path, victim))
        handle = open_archive(path, recover=recover, on_corrupt=on_corrupt)
        self.check(handle, on_corrupt, expected, ManifestInconsistent)
        handle.close()

    def test_a_chunk_changed_after_the_handle_read_it(
        self, raw_omim, recover, on_corrupt
    ):
        path, expected, victim = raw_omim
        reset_chunk_cache(0)  # every read goes back to the file
        handle = open_archive(path, recover=recover, on_corrupt=on_corrupt)
        assert self.records(handle) == expected
        with open(os.path.join(path, victim), "rb") as stored:
            data = stored.read()
        with open(os.path.join(path, victim), "wb") as stored:
            stored.write(data.replace(b"phenotype", b"PHENOTYPE", 1))
        self.check(handle, on_corrupt, expected, ChecksumMismatch)
        handle.close()
