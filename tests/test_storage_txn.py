"""The commit protocol, stated once.

Every write of every backend — creating the archive, ``add_version``,
``ingest_batch``, ``recode`` — is one :class:`ArchiveTxn`.  The
conformance half checks what each of them must leave on disk; the unit
half checks the transaction's own two failure rules.
"""

import hashlib
import os

import pytest

from repro.data import OmimGenerator
from repro.data.company import COMPANY_KEY_TEXT, company_versions
from repro.data.omim import OMIM_KEY_TEXT
from repro.storage import (
    ArchiveTxn,
    CrashPoint,
    FaultInjector,
    create_archive,
    fsck_archive,
    inject,
    manifest_location,
    open_archive,
    read_manifest,
)

BACKENDS = ["file", "chunked", "external"]
OPERATIONS = ["create_archive", "add_version", "ingest_batch", "recode"]
#: What an archive keeps outside its checksum table: the manifest that
#: carries the table, and the key specification.
UNCOVERED = ("manifest.json", ".keys")


@pytest.fixture(scope="module")
def versions():
    return list(company_versions())


def archive_path(tmp_path, kind):
    return str(tmp_path / ("archive.xml" if kind == "file" else "store"))


def files_of(path):
    """Every file belonging to the archive at ``path``, by name."""
    if os.path.isdir(path):
        return {name: os.path.join(path, name) for name in os.listdir(path)}
    base = os.path.basename(path)
    parent = os.path.dirname(path)
    return {
        name: os.path.join(parent, name)
        for name in os.listdir(parent)
        if name.startswith(base)
    }


def sha256_of(full):
    with open(full, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def assert_committed(path, backend, generation):
    """What any committed transaction leaves behind."""
    manifest = read_manifest(path)
    assert manifest.generation == backend.generation == generation
    assert manifest.version_count == backend.last_version
    assert manifest.codec == backend.codec.name
    files = files_of(path)
    leftovers = [
        name for name in files if name.endswith((".tmp", ".wal")) or name == "wal.json"
    ]
    assert not leftovers, f"staging files or a WAL record remain: {leftovers}"
    # The manifest carries the table, on every layout, and covers
    # exactly the payload files.
    assert "checksums.json" not in files and "payload" not in manifest.extra
    assert {name: entry["sha256"] for name, entry in manifest.checksums.items()} == {
        name: sha256_of(full)
        for name, full in files.items()
        if not name.endswith(UNCOVERED)
    }
    report = fsck_archive(path, deep=True)
    assert report.clean, str(report)


class TestProtocolConformance:
    @pytest.mark.parametrize("operation", OPERATIONS)
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_each_write_is_exactly_one_commit(
        self, tmp_path, kind, operation, versions
    ):
        path = archive_path(tmp_path, kind)
        backend = create_archive(
            path, COMPANY_KEY_TEXT, kind=kind, chunk_count=3, codec="xbin"
        )
        if operation == "create_archive":
            assert_committed(path, backend, generation=1)
            return
        backend.add_version(versions[0].copy())
        before = backend.generation
        commits = 1
        if operation == "add_version":
            backend.add_version(versions[1].copy())
        elif operation == "ingest_batch":
            batch = [v.copy() for v in versions[1:3]]
            backend.ingest_batch(batch)
            # The external backend merges, and commits, version by version.
            commits = len(batch) if kind == "external" else 1
        else:
            backend.recode("gzip")
        assert_committed(path, backend, generation=before + commits)
        backend.close()
        with open_archive(path) as reopened:
            assert reopened.generation == before + commits

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_every_kind_starts_at_the_same_generation(self, tmp_path, kind):
        path = archive_path(tmp_path, kind)
        assert create_archive(path, COMPANY_KEY_TEXT, kind=kind).generation == 1
        with open_archive(path) as reopened:
            assert reopened.generation == 1
            assert reopened.last_version == 0


class TestTransaction:
    @pytest.fixture
    def backend(self, tmp_path, versions):
        backend = create_archive(
            str(tmp_path / "store"), COMPANY_KEY_TEXT, kind="chunked", chunk_count=2
        )
        backend.add_version(versions[0].copy())
        return backend

    @staticmethod
    def in_memory(backend):
        return (
            backend.generation,
            backend.codec.name,
            backend.last_version,
            dict(backend._checksums.entries),
        )

    def test_exception_in_the_block_stages_and_moves_nothing(self, backend):
        root = backend.storage_root
        on_disk = sorted(os.listdir(root))
        state = self.in_memory(backend)
        with pytest.raises(RuntimeError, match="changed my mind"):
            with ArchiveTxn(backend, backend.last_version + 1) as txn:
                txn.put(os.path.join(root, "chunk-0000.xml"), b"half a commit")
                with open(txn.staging(os.path.join(root, "streamed")), "wb") as out:
                    out.write(b"half a stream")
                raise RuntimeError("changed my mind")
        assert sorted(os.listdir(root)) == on_disk
        assert self.in_memory(backend) == state

    def test_crash_after_the_wal_append_leaves_the_tmps_to_recovery(self, backend):
        root = backend.storage_root

        def publish_a_note():
            with ArchiveTxn(backend, backend.last_version) as txn:
                txn.put(os.path.join(root, "note.txt"), str(backend.last_version))

        counter = FaultInjector()
        with inject(counter):
            publish_a_note()
        appended = next(
            index
            for index, (kind, target) in enumerate(counter.log)
            if kind == "replace" and target.endswith("wal.json")
        )
        state = self.in_memory(backend)
        # Past the record's rename and its directory sync: the first publish.
        with inject(FaultInjector().crash_at_op(appended + 2)):
            with pytest.raises(CrashPoint):
                publish_a_note()
        # The record is durable, so the transaction cleaned nothing up
        # and moved nothing: what happens next is recovery's decision.
        assert os.path.exists(os.path.join(root, "wal.json"))
        assert os.path.exists(os.path.join(root, "note.txt.tmp"))
        assert os.path.exists(manifest_location(root) + ".tmp")
        assert self.in_memory(backend) == state
        backend._load_state()  # nothing was renamed yet: rolls back
        assert self.in_memory(backend) == state
        assert not any(name.endswith(".tmp") for name in os.listdir(root))


class TestWhatAnAppendStages:
    """The cost of durability is a count, and the count is part of the
    contract: an append stages the chunks it merged and the manifest
    that describes them, and syncs each once."""

    CHUNKS = 8

    def test_nine_files_and_thirteen_syncs(self, tmp_path):
        versions = OmimGenerator(seed=3, initial_records=40).generate_versions(3)
        root = str(tmp_path / "store")
        backend = create_archive(
            root, OMIM_KEY_TEXT, kind="chunked", chunk_count=self.CHUNKS, codec="xbin"
        )
        backend.ingest_batch(version.copy() for version in versions[:2])
        assert all(backend.part_exists(index) for index in range(self.CHUNKS))
        seam = FaultInjector()
        with inject(seam):
            backend.add_version(versions[2].copy())
        backend.close()
        log = [(kind, os.path.basename(target)) for kind, target in seam.log]
        staged = sorted(
            name for kind, name in log if kind == "write" and name != "wal.json.tmp"
        )
        assert staged == sorted(
            [f"chunk-{index:04d}.xml.tmp" for index in range(self.CHUNKS)]
            + ["manifest.json.tmp"]
        )
        syncs = [(kind, name) for kind, name in log if kind in ("fsync", "dirsync")]
        # Each staged file and the write-ahead record; the directory
        # when the record is in, the files are published, the record out.
        assert len([kind for kind, _ in syncs if kind == "fsync"]) == 10
        assert len([kind for kind, _ in syncs if kind == "dirsync"]) == 3
        assert not [
            name for _, name in log if ".presence" in name or "versions.txt" in name
        ]
        assert_committed(root, open_archive(root), generation=3)
