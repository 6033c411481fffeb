"""The chunk loops: ``add_version``, ``ingest_batch``, ``recode`` and the select.

Each write loop reads, decodes, merges or re-encodes every chunk it
touches in turn on the calling thread, hands the trees to one
``encode_archives`` call (``xbin`` deflates them on a thread pool) and
stages the payloads in chunk order, inside the one ``ArchiveTxn`` that
publishes only once every payload is in hand.  Four guarantees follow:

* **Determinism** — the same versions give the same payloads however
  the batches are cut, and a recode writes the payloads a store created
  in the target codec holds.
* **A failure stages nothing** — an error at any chunk, in any step
  before the commit, leaves the store byte-identical, fsck-clean and
  writable by the same handle.
* **The pool changes nothing but the clock** — the files, and the
  order of the storage seam's operations, are a serial encode's; a
  failure leaves no pack running, and a forked child packs on its own
  pool.
* **One answer** — a chunked select answers as the file backend does,
  and a keyed lookup opens only the chunk that owns the key.

``workers=`` is still accepted by ``create_archive``, ``open_archive``
and ``open_db`` and changes nothing; no command-line tool takes it.
"""

import glob
import json
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.archive import ArchiveOptions
from repro.data import OmimGenerator
from repro.data.company import COMPANY_KEY_TEXT, company_versions
from repro.data.omim import OMIM_KEY_TEXT
from repro.keys.annotate import annotate_keys
from repro.query.db import open_db
from repro.storage import (
    FaultInjector,
    ManifestInconsistent,
    chunked,
    create_archive,
    fsck_archive,
    inject,
    open_archive,
    xbin,
)
from repro.storage.cache import reset_chunk_cache
from repro.storage.codec import Codec, get_codec
from repro.xmltree.model import Element, Text
from repro.xmltree.serializer import to_string

REC_KEY_TEXT = """
(/, (db, {}))
(/db, (rec, {id}))
(/db/rec, (val, {}))
"""

KINDS = ["file", "chunked", "external"]
CHUNKS = 4


class Injected(Exception):
    """The failure a drill plants inside a loop."""


def dense_versions(count=5, records=24):
    """A record-dense version sequence that populates every chunk."""
    versions = []
    for n in range(count):
        root = Element("db")
        for i in range(records):
            rec = Element("rec")
            ident = Element("id")
            ident.append(Text(str(i)))
            rec.append(ident)
            val = Element("val")
            val.append(Text(f"v{n}-{i % (n + 1)}"))
            rec.append(val)
            root.append(rec)
        versions.append(root)
    return versions


def archive_path(base, kind):
    return os.path.join(base, "archive.xml" if kind == "file" else "store")


def files_of(path):
    """``{file name: bytes}`` of everything an archive keeps on disk."""
    path = os.fspath(path)
    if os.path.isfile(path):
        names = [path] + glob.glob(path + ".*")
    else:
        names = glob.glob(os.path.join(path, "**"), recursive=True)
    state = {}
    for full in sorted(names):
        if os.path.isfile(full):
            with open(full, "rb") as handle:
                state[os.path.basename(full)] = handle.read()
    return state


def payloads_of(path):
    """What must not depend on how the versions arrived: every payload
    byte, and the manifest — checksum table included — without its
    commit count and self-checksum."""
    state = files_of(path)
    manifest = None
    for name in list(state):
        if name.endswith("manifest.json"):
            manifest = json.loads(state.pop(name))
            manifest.pop("generation")
            manifest.pop("sha256")
        elif name.endswith((".wal", "wal.json")):
            state.pop(name)
    return state, manifest


def fail_on_call(monkeypatch, owner, name, at=None, once=None):
    """Count calls to ``owner.name``; make call ``at`` (from 0), if
    given, raise :class:`Injected` — once the event ``once``, if given,
    is set."""
    original = getattr(owner, name)
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if at is not None and len(calls) == at + 1:
            if once is not None:
                assert once.wait(timeout=30), f"{name} waited in vain"
            raise Injected(f"{name} fails at call {at}")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, failing)
    return calls


def assert_untouched(path, before):
    assert files_of(path) == before
    directory = path if os.path.isdir(path) else os.path.dirname(path)
    assert not glob.glob(os.path.join(directory, "*.tmp"))
    report = fsck_archive(os.fspath(path))
    assert report.clean, str(report)


def rendered(result):
    return [item if isinstance(item, str) else to_string(item) for item in result]


# -- determinism -----------------------------------------------------------------


class TestDeterminism:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_batches_cut_anywhere_write_one_batch_and_recode_alike(self, data):
        """Across backend × codec × compaction, a batch split in two
        on two handles writes the payloads of one batch, and recoding
        both stores leaves them alike again."""
        import tempfile

        kind = data.draw(st.sampled_from(KINDS), label="backend")
        codec = data.draw(
            st.sampled_from(["raw", "gzip", "xmill", "xbin"]), label="codec"
        )
        target = data.draw(
            st.sampled_from(["raw", "gzip", "xmill", "xbin"]), label="recode-target"
        )
        compaction = data.draw(st.booleans(), label="compaction") and (
            kind != "external"  # the external backend stores no weaves
        )
        versions = list(company_versions())
        cut = data.draw(st.integers(1, len(versions) - 1), label="cut")
        options = ArchiveOptions(compaction=compaction)
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for label, batches in (
                ("one", [versions]),
                ("two", [versions[:cut], versions[cut:]]),
            ):
                base = os.path.join(tmp, label)
                os.makedirs(base)
                path = archive_path(base, kind)
                create_archive(
                    path, COMPANY_KEY_TEXT, kind=kind, chunk_count=3,
                    options=options, codec=codec,
                ).close()
                for batch in batches:
                    backend = open_archive(path, options=options)
                    backend.ingest_batch(v.copy() for v in batch)
                    backend.close()
                paths[label] = path
            assert payloads_of(paths["one"]) == payloads_of(paths["two"])
            for path in paths.values():
                backend = open_archive(path, options=options)
                backend.recode(target)
                backend.close()
            assert payloads_of(paths["one"]) == payloads_of(paths["two"])

    @pytest.mark.parametrize(
        "source, target",
        [("raw", "gzip"), ("gzip", "xmill"), ("xmill", "xbin"), ("xbin", "raw")],
    )
    @pytest.mark.parametrize("kind", KINDS)
    def test_recode_writes_what_the_target_codec_writes(
        self, tmp_path, kind, source, target
    ):
        versions = dense_versions(3)
        paths = {}
        for codec in (source, target):
            base = tmp_path / codec
            base.mkdir()
            path = archive_path(base, kind)
            backend = create_archive(
                path, REC_KEY_TEXT, kind=kind, chunk_count=CHUNKS, codec=codec
            )
            backend.ingest_batch(v.copy() for v in versions)
            backend.close()
            paths[codec] = path
        backend = open_archive(paths[source])
        report = backend.recode(target)
        backend.close()
        assert (report.old_codec, report.new_codec) == (source, target)
        assert payloads_of(paths[source]) == payloads_of(paths[target])


# -- a failure stages nothing ----------------------------------------------------


def _chunked_store(path, versions, codec="gzip"):
    backend = create_archive(
        str(path), REC_KEY_TEXT, kind="chunked", chunk_count=CHUNKS, codec=codec
    )
    backend.ingest_batch(v.copy() for v in versions)
    return backend


class TestFailureStagesNothing:
    """A drill plants :class:`Injected` in one step of one chunk.  The
    error arrives as itself, the store is left as it was, and the same
    handle then writes what a store that never failed holds."""

    VERSIONS = dense_versions(5)
    FIRST, SECOND = VERSIONS[:3], VERSIONS[3:]

    def _reference(self, tmp_path):
        """The store a failure-free run of the two batches leaves."""
        backend = _chunked_store(tmp_path / "reference", self.FIRST)
        backend.ingest_batch(v.copy() for v in self.SECOND)
        backend.close()
        return files_of(tmp_path / "reference")

    @pytest.mark.parametrize("chunk", range(CHUNKS))
    @pytest.mark.parametrize("step", ["merge", "encode"])
    def test_ingest_batch(self, tmp_path, monkeypatch, step, chunk):
        path = tmp_path / "store"
        backend = _chunked_store(path, self.FIRST)
        before = files_of(path)
        if step == "merge":
            # The chunk's last version, after the others merged into its
            # tree: versions merge in order, each into every chunk (the
            # records are dense).
            at = (len(self.SECOND) - 1) * CHUNKS + chunk
            calls = fail_on_call(monkeypatch, chunked.Archive, "add_version", at)
        else:
            calls = fail_on_call(monkeypatch, get_codec("gzip"), "encode_archive", chunk)
        with pytest.raises(Injected):
            backend.ingest_batch(v.copy() for v in self.SECOND)
        monkeypatch.undo()
        assert calls and backend.last_version == len(self.FIRST)
        assert_untouched(path, before)
        backend.ingest_batch(v.copy() for v in self.SECOND)
        backend.close()
        assert files_of(path) == self._reference(tmp_path)

    @pytest.mark.parametrize("chunk", range(CHUNKS))
    @pytest.mark.parametrize("step", ["decode", "encode", "verify"])
    def test_recode(self, tmp_path, monkeypatch, step, chunk):
        path = tmp_path / "store"
        backend = _chunked_store(path, self.FIRST)
        backend.close()
        backend = open_archive(str(path))
        before = files_of(path)
        if step == "decode":
            fail_on_call(monkeypatch, get_codec("gzip"), "decode_archive", chunk)
        elif step == "encode":
            fail_on_call(monkeypatch, get_codec("xmill"), "encode_archive", chunk)
        else:
            fail_on_call(monkeypatch, chunked, "verify_recoded_document", chunk)
        with pytest.raises(Injected):
            backend.recode("xmill")
        monkeypatch.undo()
        assert backend.codec.name == "gzip"  # still reading the old encoding
        assert_untouched(path, before)
        backend.recode("xmill")
        backend.close()
        reference = _chunked_store(tmp_path / "reference", self.FIRST, codec="xmill")
        reference.close()
        assert payloads_of(path) == payloads_of(tmp_path / "reference")

    @pytest.mark.parametrize("operation", ["ingest_batch", "recode"])
    def test_file_backend(self, tmp_path, monkeypatch, operation):
        def run(backend):
            if operation == "ingest_batch":
                backend.ingest_batch(v.copy() for v in self.SECOND)
            else:
                backend.recode("xmill")

        paths = {}
        for label in ("store", "reference"):
            paths[label] = str(tmp_path / f"{label}.xml")
            backend = create_archive(
                paths[label], REC_KEY_TEXT, kind="file", codec="gzip"
            )
            backend.ingest_batch(v.copy() for v in self.FIRST)
        run(backend)  # the reference never fails
        backend.close()
        backend = open_archive(paths["store"])
        before = files_of(paths["store"])
        codec = "gzip" if operation == "ingest_batch" else "xmill"
        fail_on_call(monkeypatch, get_codec(codec), "encode_archive", 0)
        with pytest.raises(Injected):
            run(backend)
        monkeypatch.undo()
        assert backend.last_version == len(self.FIRST)
        assert backend.codec.name == "gzip"
        assert_untouched(paths["store"], before)
        run(backend)
        backend.close()
        store, reference = payloads_of(paths["store"]), payloads_of(paths["reference"])
        # The table names the one payload by its file name.
        assert store[1].pop("checksums") == {
            "store.xml": reference[1].pop("checksums")["reference.xml"]
        }
        assert store[1] == reference[1]
        assert store[0]["store.xml"] == reference[0]["reference.xml"]


class TestAMissingCoveredChunk:
    """A write must neither skip nor recreate a chunk whose history it
    cannot read: the checksum table says the chunk is stored, so its
    file being gone is an inconsistency, raised before anything is
    staged — also when the version brings no records for that chunk,
    and also on a handle that skips corrupt chunks when it reads."""

    @pytest.mark.parametrize("on_corrupt", ["raise", "skip"])
    @pytest.mark.parametrize("operation", ["add_version", "ingest_batch", "recode"])
    def test_a_write_refuses_it(self, tmp_path, operation, on_corrupt):
        first, second = dense_versions(2, records=20)
        path = tmp_path / "store"
        _chunked_store(path, [first], codec="xbin").close()
        backend = open_archive(str(path), on_corrupt=on_corrupt)
        annotated = annotate_keys(second, backend.spec)
        owners = {
            id(record): backend.chunk_index_for_label(annotated.label(record))
            for record in second.element_children()
        }
        victim = owners[id(next(second.element_children()))]
        others = Element("db")
        for record in second.element_children():
            if owners[id(record)] != victim:
                others.append(record.copy())
        assert 0 < len(others.children) < 20
        os.remove(path / f"chunk-{victim:04d}.xml")
        before = files_of(path)
        with pytest.raises(ManifestInconsistent):
            if operation == "add_version":
                backend.add_version(others)
            elif operation == "ingest_batch":
                backend.ingest_batch([others])
            else:
                backend.recode("gzip")
        assert files_of(path) == before
        assert not glob.glob(str(path / "*.tmp"))
        assert (backend.last_version, backend.codec.name) == (1, "xbin")
        backend.close()


# -- the pool changes nothing but the clock --------------------------------------

OMIM = OmimGenerator(seed=3, initial_records=40).generate_versions(6)
OMIM_CHUNKS = 8


def _omim_store(path, options=None):
    return create_archive(
        str(path), OMIM_KEY_TEXT, kind="chunked", chunk_count=OMIM_CHUNKS,
        codec="xbin", options=options,
    )


def _pack_spy(monkeypatch, delay=0.0):
    """Wrap ``xbin._pack``: the thread each pack started on, the packs
    that finished, and an event set once a pack runs."""
    original = xbin._pack
    spy: dict = {"started": [], "finished": [], "running": threading.Event()}

    def packing(body, flags):
        spy["started"].append(threading.current_thread())
        spy["running"].set()
        time.sleep(delay)
        data = original(body, flags)
        spy["finished"].append(None)
        return data

    monkeypatch.setattr(xbin, "_pack", packing)
    return spy


class TestTheCommitTail:
    @staticmethod
    def _every_write(base, options):
        """The files after a batch, two appends on the handle that holds
        its trees, an append on a fresh handle, and a recode away from
        ``xbin`` and back."""
        path = base / "store"
        backend = _omim_store(path, options)
        backend.ingest_batch(v.copy() for v in OMIM[:3])
        states = [files_of(path)]
        for version in OMIM[3:5]:
            backend.add_version(version.copy())
            states.append(files_of(path))
        backend.close()
        backend = open_archive(str(path), options=options)
        backend.add_version(OMIM[5].copy())
        states.append(files_of(path))
        backend.recode("gzip")
        backend.recode("xbin")
        states.append(files_of(path))
        backend.close()
        return states

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("compaction", [False, True])
    def test_every_write_is_a_serial_encode(
        self, tmp_path, monkeypatch, compaction, threads
    ):
        """Pool or no pool, a pool of one or two: the same files, each
        ``_pack(_write_tree(tree))`` of the tree the loop merged."""
        options = ArchiveOptions(compaction=compaction)
        codec = get_codec("xbin")
        with monkeypatch.context() as serial:
            serial.setattr(
                codec, "encode_archives",
                lambda archives: Codec.encode_archives(codec, archives),
            )
            expected = self._every_write(tmp_path / "serial", options)
        pool = ThreadPoolExecutor(threads, "test-pack")
        try:
            monkeypatch.setattr(xbin, "_packers", pool)
            spy = _pack_spy(monkeypatch)
            assert self._every_write(tmp_path / "pooled", options) == expected
        finally:
            pool.shutdown()
        assert len(spy["started"]) == len(spy["finished"]) > 0
        assert threading.main_thread() not in spy["started"]

    def test_the_seam_sees_one_append_in_chunk_order(self, tmp_path):
        """The seam's ``(kind, path)`` log of one append, in order: the
        chunks staged in index order, the manifest (which carries their
        checksums), the write-ahead record, the publishing renames, the
        record out.
        The crash-at-every-op drill enumerates exactly these states."""
        backend = _omim_store(tmp_path / "store")
        backend.ingest_batch(v.copy() for v in OMIM[:2])
        seam = FaultInjector()
        with inject(seam):
            backend.add_version(OMIM[2].copy())
        backend.close()
        log = [(kind, os.path.basename(target)) for kind, target in seam.log]
        staged = [f"chunk-{index:04d}.xml" for index in range(OMIM_CHUNKS)]
        staged += ["manifest.json"]
        expected = []
        for name in staged + ["wal.json"]:
            expected += [("write", f"{name}.tmp"), ("fsync", f"{name}.tmp")]
        expected += [("replace", "wal.json"), ("dirsync", "store")]
        expected += [("replace", name) for name in staged]
        expected += [("dirsync", "store"), ("remove", "wal.json"), ("dirsync", "store")]
        assert log == expected

    @pytest.mark.parametrize("operation", ["add_version", "ingest_batch"])
    def test_a_failed_merge_leaves_no_pack_running(
        self, tmp_path, monkeypatch, operation
    ):
        """A merge fails after earlier chunks' packs were handed to the
        pool (and are still deflating): the error leaves only once none
        of them runs, nothing is staged, and the next append writes what
        a fresh handle writes."""
        versions = dense_versions(5)
        first, following = versions[:3], versions[3:]
        batch = operation == "ingest_batch"
        path = tmp_path / "store"
        backend = _chunked_store(path, first, codec="xbin")
        before = files_of(path)

        def write(handle):
            if batch:
                handle.ingest_batch(v.copy() for v in following)
            else:
                handle.add_version(following[0].copy())

        spy = _pack_spy(monkeypatch, delay=0.05)
        # The last version merges as the encoder asks for each chunk:
        # fail at its third chunk, the versions before it merged into
        # every chunk (the records are dense).
        earlier = len(following) - 1 if batch else 0
        fail_on_call(
            monkeypatch,
            chunked.Archive,
            "add_version",
            earlier * CHUNKS + 2,
            once=spy["running"],
        )
        with pytest.raises(Injected):
            write(backend)
        assert len(spy["started"]) == len(spy["finished"]) >= 1
        monkeypatch.undo()
        assert_untouched(path, before)
        write(backend)
        backend.close()
        _chunked_store(tmp_path / "reference", first, codec="xbin").close()
        with open_archive(str(tmp_path / "reference")) as fresh:
            write(fresh)
        assert files_of(path) == files_of(tmp_path / "reference")

    def test_threads_that_encode_at_once_share_one_pool(
        self, tmp_path, monkeypatch
    ):
        """More encoding threads than cores, switching often, racing to
        make the pool: one pool is made and every thread gets the
        payloads a serial encode gives."""
        backend = _omim_store(tmp_path / "store")
        backend.ingest_batch(v.copy() for v in OMIM[:3])
        payloads = [backend.read_part_payload(i) for i in range(OMIM_CHUNKS)]
        spec = backend.spec
        backend.close()
        monkeypatch.setattr(xbin, "_packers", None)
        made = []
        monkeypatch.setattr(
            xbin, "ThreadPoolExecutor",
            lambda *args: made.append(None) or ThreadPoolExecutor(*args),
        )
        answers = {}

        def encode(thread):
            trees = [xbin.decode_archive(data, spec) for data in payloads]
            answers[thread] = xbin.encode_archives(trees)

        threads = [threading.Thread(target=encode, args=(n,)) for n in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            if xbin._packers is not None:
                xbin._packers.shutdown()
        assert not any(thread.is_alive() for thread in threads)
        assert len(made) == 1
        assert answers == {n: payloads for n in range(6)}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    # Forking beside the pool's threads is what this drill is about.
    @pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
    def test_a_forked_child_packs_on_its_own_pool(self, tmp_path):
        """The parent's pack threads do not survive a fork; a child that
        appends makes its own pool instead of waiting on theirs."""
        paths = [tmp_path / "forked", tmp_path / "reference"]
        for path in paths:
            backend = _omim_store(path)
            backend.ingest_batch(v.copy() for v in OMIM[:3])
            backend.close()
        assert xbin._packers is not None
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                with open_archive(str(paths[0])) as child:
                    child.add_version(OMIM[3].copy())
                code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's append did not finish")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0
        with open_archive(str(paths[1])) as reference:
            reference.add_version(OMIM[3].copy())
        assert files_of(paths[0]) == files_of(paths[1])


# -- one answer ------------------------------------------------------------------


class TestSelect:
    EXPRESSIONS = [
        "/db/rec",
        "/db/rec/val",
        "/db/rec/val/text()",
        "/db/rec[id='7']",
        "/db/rec[id='7']/val/text()",
    ]

    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("select")
        versions = dense_versions(5)
        for kind in ("file", "chunked"):
            backend = create_archive(
                archive_path(base, kind), REC_KEY_TEXT, kind=kind,
                chunk_count=CHUNKS, codec="gzip",
            )
            backend.ingest_batch(v.copy() for v in versions)
            backend.close()
        return base, len(versions)

    @pytest.mark.parametrize("expression", EXPRESSIONS)
    def test_chunked_answers_as_the_file_backend(self, stores, expression):
        base, last = stores
        answers = {}
        for kind in ("file", "chunked"):
            with open_db(archive_path(base, kind)) as db:
                result = db.at(last).select(expression)
                answers[kind] = (rendered(result), result.stats)
        assert answers["chunked"][0] == answers["file"][0] != []
        single, chunks = answers["file"][1], answers["chunked"][1]
        assert chunks.index_lookups == single.index_lookups
        keyed = "[id='7']" in expression
        assert chunks.chunks_routed_past == (CHUNKS - 1 if keyed else 0)

    def test_keyed_lookup_decodes_one_chunk(self, stores, monkeypatch):
        base, last = stores
        reset_chunk_cache()
        with open_db(archive_path(base, "chunked")) as db:
            decodes = fail_on_call(monkeypatch, get_codec("gzip"), "decode_archive")
            result = db.at(last).select("/db/rec[id='7']")
            assert len(result.all()) == 1
        assert len(decodes) == 1

    def test_a_failing_chunk_read_arrives_as_itself(self, tmp_path, monkeypatch):
        path = tmp_path / "store"
        _chunked_store(path, dense_versions(3)).close()
        before = files_of(path)
        reset_chunk_cache()
        fail_on_call(monkeypatch, get_codec("gzip"), "decode_archive", 1)
        with open_db(path) as db:
            with pytest.raises(Injected):
                db.at(3).select("/db/rec").all()
        monkeypatch.undo()
        assert_untouched(path, before)
        with open_db(path) as db:
            assert len(db.at(3).select("/db/rec").all()) == 24


# -- the workers keyword ---------------------------------------------------------


class TestWorkersKeyword:
    @pytest.mark.parametrize("kind", KINDS)
    def test_accepted_and_ignored(self, tmp_path, kind):
        answers = {}
        for label, extra in (("plain", {}), ("workers", {"workers": 3})):
            base = tmp_path / label
            base.mkdir()
            path = archive_path(base, kind)
            backend = create_archive(
                path, REC_KEY_TEXT, kind=kind, chunk_count=CHUNKS, **extra
            )
            assert not hasattr(backend, "workers")
            backend.ingest_batch(v.copy() for v in dense_versions(3))
            backend.close()
            reader = open_archive(path, **extra)
            retrieved = to_string(reader.retrieve(3))
            reader.close()
            with open_db(path, **extra) as db:
                assert not hasattr(db, "workers")
                selected = rendered(db.at(3).select("/db/rec/val/text()"))
            with repro.open(path, **extra) as db:
                assert rendered(db.at(2).select("/db/rec")) != []
            answers[label] = (payloads_of(path), retrieved, selected)
        assert answers["plain"] == answers["workers"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["ingest", "store", "versions", "--keys", "keys.txt"],
            ["query", "store", "/db/rec"],
            ["recode", "store", "--codec", "gzip"],
            ["serve", "root"],
        ],
        ids=["ingest", "query", "recode", "serve"],
    )
    def test_no_command_takes_it(self, argv, capsys):
        if argv[0] == "serve":
            from repro.server.cli import main
        else:
            from repro.cli import main
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--workers", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
