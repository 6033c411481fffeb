"""The serial chunk loops: ``ingest_batch``, ``recode`` and the select.

Each write loop reads, decodes, merges or re-encodes every chunk it
touches in turn, and opens the one ``ArchiveTxn`` that publishes only
once every payload is in hand.  Three guarantees follow:

* **Determinism** — the same versions give the same payloads however
  the batches are cut, and a recode writes the payloads a store created
  in the target codec holds.
* **A failure stages nothing** — an error at any chunk, in any step
  before the commit, leaves the store byte-identical, fsck-clean and
  writable by the same handle.
* **One answer** — a chunked select answers as the file backend does,
  and a keyed lookup opens only the chunk that owns the key.

``workers=`` is still accepted by ``create_archive``, ``open_archive``
and ``open_db`` and changes nothing; no command-line tool takes it.
"""

import glob
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.archive import ArchiveOptions
from repro.data.company import COMPANY_KEY_TEXT, company_versions
from repro.query.db import open_db
from repro.storage import chunked, create_archive, fsck_archive, open_archive
from repro.storage.cache import reset_chunk_cache
from repro.storage.codec import get_codec
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
    byte, and the manifest without its commit count and self-checksum
    (the checksum table covers the manifest, so it moves with them)."""
    state = files_of(path)
    manifest = None
    for name in list(state):
        if name.endswith("manifest.json"):
            manifest = json.loads(state.pop(name))
            manifest.pop("generation")
            manifest.pop("sha256")
        elif name == "checksums.json" or name.endswith((".wal", "wal.json")):
            state.pop(name)
    return state, manifest


def fail_on_call(monkeypatch, owner, name, at=None):
    """Count calls to ``owner.name``; make call ``at`` (from 0), if
    given, raise :class:`Injected`."""
    original = getattr(owner, name)
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if at is not None and len(calls) == at + 1:
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
            # The chunk's last version, after the others merged into its tree.
            per_chunk = len(self.SECOND)
            at = chunk * per_chunk + per_chunk - 1
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
        assert store[1] == reference[1]
        assert store[0]["store.xml"] == reference[0]["reference.xml"]


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
