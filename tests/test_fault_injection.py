"""Deterministic fault-injection drills over the storage seam.

The centerpiece enumerates every crashable operation of an ``ingest``
(and a ``recode``) — counted by a dry run — and kills the process at
each one in turn.  After every simulated death the archive must
recover to a state that is byte-identical to either the pre-operation
or the post-operation archive (never a torn mix), and ``fsck`` must
report it clean.

The rest of the suite covers the seam's other fault modes: torn
payload writes and flipped bits are detected on read as typed
integrity errors; transient ``EIO``/``ENOSPC`` is retried with
bounded backoff while persistent failure propagates; a torn WAL
record is classified and discarded, never replayed.
"""

import errno
import itertools
import os
import shutil

import pytest

from repro.core import Archive, ArchiveError
from repro.core.merge import AttributeChangeError
from repro.data import OmimGenerator
from repro.data.company import (
    COMPANY_KEY_TEXT,
    company_key_spec,
    company_versions,
)
from repro.data.omim import omim_key_spec
from repro.keys.annotate import KeyViolationError
from repro.storage import (
    ChecksumMismatch,
    CrashPoint,
    FaultInjector,
    IntegrityError,
    ManifestInconsistent,
    TruncatedPayload,
    WalError,
    WriteAheadLog,
    create_archive,
    fsck_archive,
    inject,
    open_archive,
)
from repro.storage import faults
from repro.xmltree import parse_document, to_pretty_string

BACKENDS = ["file", "chunked", "external"]
CODECS = ["raw", "gzip", "xmill", "xbin"]
#: Recode target per source codec (each pair exercised per backend).
RECODE_TARGET = {"raw": "gzip", "gzip": "xmill", "xmill": "xbin", "xbin": "raw"}
#: The committed store of four versions whose checksum table sits in
#: ``checksums.json`` and presence in ``.presence`` sidecars; its first
#: append moves both into the manifest (see the fixture's README).
V1_STORE = os.path.join(os.path.dirname(__file__), "fixtures", "xbin_v1", "chunked")


@pytest.fixture(scope="module")
def versions():
    return list(company_versions())


def archive_path(base, kind):
    return os.path.join(base, "archive.xml" if kind == "file" else "store")


def build_archive(base, kind, codec, versions, count=2):
    """A pre-state archive holding ``count`` versions, keys sidecar set."""
    os.makedirs(base, exist_ok=True)
    path = archive_path(base, kind)
    backend = create_archive(
        path, COMPANY_KEY_TEXT, kind=kind, chunk_count=2, codec=codec
    )
    backend.ingest_batch([v.copy() for v in versions[:count]])
    backend.close()
    return path


def snapshot(base):
    """Every file under ``base`` as relpath → bytes."""
    state = {}
    for root, _dirs, files in os.walk(base):
        for name in files:
            full = os.path.join(root, name)
            with open(full, "rb") as handle:
                state[os.path.relpath(full, base)] = handle.read()
    return state


def clone(source, target):
    if os.path.exists(target):
        shutil.rmtree(target)
    shutil.copytree(source, target)


def describe_difference(state, pre, post):
    """Debug string naming how ``state`` differs from both snapshots."""

    def diff(a, b):
        keys = set(a) | set(b)
        return sorted(k for k in keys if a.get(k) != b.get(k))

    return f"vs pre: {diff(state, pre)}; vs post: {diff(state, post)}"


def drill(tmp_path, kind, versions, operate, recovered=None):
    """Kill ``operate`` before every counted op; archive must recover.

    ``operate(path)`` runs the mutation under test against the archive
    at ``path``.  The pre-state lives in ``tmp_path/pre``; the dry run
    (no crash) sizes the enumeration and captures the post-state.
    ``recovered(path)``, when given, checks each recovered archive
    further.
    """
    pre_base = os.path.join(tmp_path, "pre")
    pre = snapshot(pre_base)

    dry_base = os.path.join(tmp_path, "dry")
    clone(pre_base, dry_base)
    counter = FaultInjector()
    with inject(counter):
        operate(archive_path(dry_base, kind))
    post = snapshot(dry_base)
    total_ops = counter.op_count
    assert total_ops > 0, "the operation must cross the durable seam"

    work_base = os.path.join(tmp_path, "work")
    for index in range(total_ops):
        clone(pre_base, work_base)
        path = archive_path(work_base, kind)
        with inject(FaultInjector().crash_at_op(index)):
            try:
                operate(path)
                crashed = False
            except CrashPoint:
                crashed = True
        assert crashed, f"op {index} of {total_ops} did not fire"
        # Reopen: constructor-time WAL recovery settles the directory.
        open_archive(path).close()
        report = fsck_archive(path, deep=True)
        assert report.clean, f"fsck after crash at op {index}:\n{report}"
        state = snapshot(work_base)
        assert state == pre or state == post, (
            f"crash at op {index}/{total_ops} left a torn state: "
            f"{describe_difference(state, pre, post)}"
        )
        if recovered is not None:
            recovered(path)


def answers_as_v1_store_or_its_append(path):
    """The version 1 store recovered from a crash in its first append
    answers as it did (four versions) or as the append left it (five),
    and once it holds the fifth no ``checksums.json`` remains."""
    documents = OmimGenerator(seed=15, initial_records=8).generate_versions(5)
    model = Archive(omim_key_spec())
    for document in documents:
        model.add_version(document)
    with open_archive(path, recover=False) as handle:
        assert handle.last_version in (4, 5)
        for number in range(1, handle.last_version + 1):
            assert to_pretty_string(handle.retrieve(number)) == to_pretty_string(
                model.retrieve(number)
            )
        if handle.last_version == 5:
            assert not os.path.exists(os.path.join(path, "checksums.json"))


class TestCrashDrill:
    @pytest.mark.parametrize(
        "kind, codec",
        [*itertools.product(BACKENDS, CODECS), ("chunked", "xbin_v1")],
    )
    def test_ingest_survives_crash_at_every_op(
        self, tmp_path, kind, codec, versions
    ):
        """``xbin_v1``: the first append to a copy of the committed
        version 1 store, whose sidecars that append retires."""
        tmp_path = str(tmp_path)
        pre = os.path.join(tmp_path, "pre")
        recovered = None
        if codec == "xbin_v1":
            shutil.copytree(V1_STORE, archive_path(pre, kind))
            appended = OmimGenerator(seed=15, initial_records=8).generate_versions(5)[4]
            recovered = answers_as_v1_store_or_its_append
        else:
            build_archive(pre, kind, codec, versions)
            appended = versions[2]

        def operate(path):
            backend = open_archive(path)
            try:
                backend.ingest_batch([appended.copy()])
            finally:
                backend.close()

        drill(tmp_path, kind, versions, operate, recovered)

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_recode_survives_crash_at_every_op(
        self, tmp_path, kind, codec, versions
    ):
        tmp_path = str(tmp_path)
        build_archive(os.path.join(tmp_path, "pre"), kind, codec, versions)

        def operate(path):
            backend = open_archive(path)
            try:
                backend.recode(RECODE_TARGET[codec])
            finally:
                backend.close()

        drill(tmp_path, kind, versions, operate)

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_creation_survives_crash_at_every_op(self, tmp_path, kind, codec):
        """An interrupted ``create_archive`` leaves a path that either
        opens as the empty archive or can simply be created again —
        never one that does neither."""

        def create(path):
            return create_archive(
                path, COMPANY_KEY_TEXT, kind=kind, chunk_count=2, codec=codec
            )

        def fresh_path(name):
            (tmp_path / name).mkdir()
            return archive_path(str(tmp_path / name), kind)

        counter = FaultInjector()
        with inject(counter):
            create(fresh_path("dry")).close()
        assert counter.op_count > 0
        for index in range(counter.op_count):
            path = fresh_path(f"work-{index}")
            with inject(FaultInjector().crash_at_op(index)):
                with pytest.raises(CrashPoint):
                    create(path)
            try:
                backend = open_archive(path)
            except ArchiveError:
                backend = create(path)  # no ``force``: nothing is in the way
            assert backend.last_version == 0 and backend.generation == 1
            backend.close()
            report = fsck_archive(path, deep=True)
            assert report.clean, f"fsck after crash at op {index}:\n{report}"
            with open_archive(path) as reopened:
                assert reopened.codec.name == codec

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_recovered_archive_still_answers_queries(
        self, tmp_path, kind, versions
    ):
        """After a mid-publish crash + recovery, retrievals still match."""
        tmp_path = str(tmp_path)
        pre_base = os.path.join(tmp_path, "pre")
        path = build_archive(pre_base, kind, "gzip", versions)
        reference = to_pretty_string(
            open_archive(path).retrieve(2)
        )
        counter = FaultInjector()
        dry_base = os.path.join(tmp_path, "dry")
        clone(pre_base, dry_base)
        with inject(counter):
            backend = open_archive(archive_path(dry_base, kind))
            backend.ingest_batch([versions[2].copy()])
            backend.close()
        # Crash roughly mid-way through the durable operations.
        work_base = os.path.join(tmp_path, "work")
        clone(pre_base, work_base)
        work_path = archive_path(work_base, kind)
        with inject(FaultInjector().crash_at_op(counter.op_count // 2)):
            with pytest.raises(CrashPoint):
                backend = open_archive(work_path)
                try:
                    backend.ingest_batch([versions[2].copy()])
                finally:
                    backend.close()
        recovered = open_archive(work_path)
        try:
            assert to_pretty_string(recovered.retrieve(2)) == reference
            assert recovered.last_version in (2, 3)
        finally:
            recovered.close()


class RaiseAt(FaultInjector):
    """Fail the ``index``-th counted operation with a plain, non-transient
    ``OSError`` — a fault the process survives, unlike a crash."""

    def __init__(self, index):
        super().__init__()
        self.raise_at = index

    def before_op(self, kind, path):
        index = self.op_count
        super().before_op(kind, path)
        if index == self.raise_at:
            raise OSError(errno.EACCES, "injected fault", path)


FAULTS = {
    "crash": (lambda index: FaultInjector().crash_at_op(index), CrashPoint),
    "raise": (RaiseAt, OSError),
}


def model_retrievals(versions):
    """``retrieve(v)`` for every prefix of ``versions``, from the
    in-memory archive: what any backend must hand back."""
    archive = Archive(company_key_spec())
    for version in versions:
        archive.add_version(version.copy())
    return [
        to_pretty_string(archive.retrieve(number))
        for number in range(1, len(versions) + 1)
    ]


def continue_on_same_handle(tmp_path, kind, versions, handle, work_base):
    """After a failed append, ``handle`` must be as good as a new one.

    Its next append writes the bytes a freshly opened handle over the
    same (recovered) store writes, the result scrubs clean, and every
    version reads back as the model says.
    """
    path = archive_path(work_base, kind)
    twin_base = os.path.join(tmp_path, "twin")
    clone(work_base, twin_base)
    fresh = open_archive(archive_path(twin_base, kind))
    landed = fresh.last_version
    assert landed in (2, 3)
    assert handle.last_version == landed
    following = versions[landed]
    handle.add_version(following.copy())
    fresh.add_version(following.copy())
    handle.close()
    fresh.close()
    assert snapshot(work_base) == snapshot(twin_base), (
        f"the handle that lived through the failure wrote other bytes than "
        f"a fresh one: {describe_difference(snapshot(work_base), snapshot(twin_base), {})}"
    )
    report = fsck_archive(path)
    assert report.clean, str(report)
    reader = open_archive(path)
    try:
        assert [
            to_pretty_string(reader.retrieve(number))
            for number in range(1, landed + 2)
        ] == model_retrievals(versions[: landed + 1])
    finally:
        reader.close()


class TestSameHandleAfterFailure:
    """One rule for every backend: in-memory state moves only after the
    commit lands — so a handle that saw an append fail carries on."""

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_append_fault_at_every_op_then_carry_on(
        self, tmp_path, kind, codec, fault, versions
    ):
        tmp_path = str(tmp_path)
        make_injector, raised = FAULTS[fault]
        pre_base = os.path.join(tmp_path, "pre")
        build_archive(pre_base, kind, codec, versions)
        dry_base = os.path.join(tmp_path, "dry")
        clone(pre_base, dry_base)
        counter = FaultInjector()
        dry = open_archive(archive_path(dry_base, kind))
        with inject(counter):
            dry.add_version(versions[2].copy())
        dry.close()
        assert counter.op_count > 0

        work_base = os.path.join(tmp_path, "work")
        for index in range(counter.op_count):
            clone(pre_base, work_base)
            handle = open_archive(archive_path(work_base, kind))
            with inject(make_injector(index)):
                with pytest.raises(raised):
                    handle.add_version(versions[2].copy())
            continue_on_same_handle(tmp_path, kind, versions, handle, work_base)

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_rejected_document_leaves_the_handle_where_it_was(
        self, tmp_path, kind, versions
    ):
        """Regression: a duplicate key used to advance the root timestamp
        of a long-lived ``FileBackend`` handle before it was noticed, so
        the next good append was published as version 4 and version 3
        read back as nothing."""
        tmp_path = str(tmp_path)
        work_base = os.path.join(tmp_path, "work")
        build_archive(work_base, kind, "xbin", versions, count=1)
        handle = open_archive(archive_path(work_base, kind))
        handle.add_version(versions[1].copy())  # the chunked handle holds trees now
        before = snapshot(work_base)
        duplicate = parse_document(
            "<db><dept><name>finance</name></dept>"
            "<dept><name>finance</name></dept></db>"
        )
        with pytest.raises(KeyViolationError):
            handle.add_version(duplicate)
        if kind != "external":  # whose batches commit version by version
            with pytest.raises(KeyViolationError):
                handle.ingest_batch([versions[2].copy(), duplicate])
        assert handle.last_version == 2
        assert snapshot(work_base) == before
        continue_on_same_handle(tmp_path, kind, versions, handle, work_base)

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_failure_mid_merge_is_not_republished(self, tmp_path, kind, versions):
        """An attribute change is noticed half-way through Nested Merge,
        after timestamps moved: the half-merged tree must not survive in
        the handle, or the next append would publish it."""
        tmp_path = str(tmp_path)
        work_base = os.path.join(tmp_path, "work")
        build_archive(work_base, kind, "xbin", versions, count=1)
        handle = open_archive(archive_path(work_base, kind))
        handle.add_version(versions[1].copy())  # the chunked handle holds trees now
        before = snapshot(work_base)
        changed = versions[2].copy()
        changed.find("dept").set_attribute("floor", "3")
        with pytest.raises(AttributeChangeError):
            handle.add_version(changed)
        assert handle.last_version == 2
        assert snapshot(work_base) == before
        continue_on_same_handle(tmp_path, kind, versions, handle, work_base)


class TestSilentCorruptionOnWrite:
    """Payloads corrupted *between* checksum and disk are caught on read."""

    def test_flipped_bit_in_staged_chunk_detected(self, tmp_path, versions):
        path = os.path.join(str(tmp_path), "store")
        backend = create_archive(
            path, COMPANY_KEY_TEXT, kind="chunked", chunk_count=2, codec="raw"
        )
        with inject(FaultInjector().flip_bit(r"chunk-\d+\.xml", bit=200)):
            backend.ingest_batch([v.copy() for v in versions[:2]])
        backend.close()
        reopened = open_archive(path)
        with pytest.raises(ChecksumMismatch):
            for version in (1, 2):
                reopened.retrieve(version)
        reopened.close()

    def test_truncated_stream_detected(self, tmp_path, versions):
        # The stream publishes by rename (its write path is the crash
        # drill's territory); truncation *at rest* is the torn-file
        # fault that reaches readers, and it must classify as such.
        path = os.path.join(str(tmp_path), "store")
        backend = create_archive(
            path, COMPANY_KEY_TEXT, kind="external", codec="raw"
        )
        backend.ingest_batch([v.copy() for v in versions[:2]])
        backend.close()
        os.truncate(os.path.join(path, "archive.jsonl"), 64)
        with pytest.raises(TruncatedPayload):
            open_archive(path).retrieve(1)

    def test_truncated_manifest_write_detected(self, tmp_path, versions):
        # The manifest carries the version count and the presence map.
        path = os.path.join(str(tmp_path), "store")
        backend = create_archive(
            path, COMPANY_KEY_TEXT, kind="chunked", chunk_count=2, codec="raw"
        )
        with inject(FaultInjector().truncate_write(r"manifest\.json", at_byte=0)):
            backend.ingest_batch([v.copy() for v in versions[:2]])
        backend.close()
        with pytest.raises(ManifestInconsistent):
            open_archive(path)

    def test_corrupted_whole_file_archive_detected(self, tmp_path, versions):
        path = os.path.join(str(tmp_path), "archive.xml")
        backend = create_archive(path, COMPANY_KEY_TEXT, kind="file", codec="gzip")
        with inject(FaultInjector().flip_bit(r"archive\.xml\.tmp$", bit=999)):
            backend.ingest_batch([versions[0].copy()])
        backend.close()
        with pytest.raises(IntegrityError):
            open_archive(path).retrieve(1)

    def test_fsck_names_the_injured_file(self, tmp_path, versions):
        path = os.path.join(str(tmp_path), "store")
        backend = create_archive(
            path, COMPANY_KEY_TEXT, kind="chunked", chunk_count=2, codec="raw"
        )
        with inject(FaultInjector().flip_bit(r"chunk-0000\.xml", bit=321)):
            backend.ingest_batch([v.copy() for v in versions[:2]])
        backend.close()
        report = fsck_archive(path)
        assert not report.clean
        injured = {finding.path for finding in report.findings}
        assert "chunk-0000.xml" in injured


class TestTransientRetry:
    def test_transient_eio_is_retried(self, tmp_path, versions):
        path = os.path.join(str(tmp_path), "archive.xml")
        injector = FaultInjector().fail_transient(
            "write", r"archive\.xml", errno.EIO, times=2
        )
        with inject(injector):
            backend = create_archive(path, COMPANY_KEY_TEXT, kind="file")
            backend.ingest_batch([versions[0].copy()])
            backend.close()
        # The flaky device cost retries, not a failed commit.
        assert open_archive(path).last_version == 1
        writes = [op for op in injector.log if op[0] == "write"]
        assert len(writes) > 2

    def test_transient_enospc_is_retried(self, tmp_path, versions):
        path = os.path.join(str(tmp_path), "store")
        injector = FaultInjector().fail_transient(
            "write", r"versions\.txt", errno.ENOSPC, times=1
        )
        with inject(injector):
            backend = create_archive(
                path, COMPANY_KEY_TEXT, kind="chunked", chunk_count=2
            )
            backend.ingest_batch([versions[0].copy()])
            backend.close()
        assert open_archive(path).last_version == 1

    def test_persistent_failure_propagates(self, tmp_path, versions):
        path = os.path.join(str(tmp_path), "archive.xml")
        injector = FaultInjector().fail_transient(
            "write", r"archive\.xml", errno.EIO, times=100
        )
        with inject(injector):
            with pytest.raises(OSError) as caught:
                backend = create_archive(path, COMPANY_KEY_TEXT, kind="file")
                backend.ingest_batch([versions[0].copy()])
            assert caught.value.errno == errno.EIO

    def test_non_transient_errno_is_not_retried(self, tmp_path):
        attempts = []

        def operation():
            attempts.append(1)
            raise OSError(errno.EACCES, "denied")

        with pytest.raises(OSError):
            faults.retry_transient(operation)
        assert len(attempts) == 1


class TestTornWalRecord:
    """Regression: a torn or garbage WAL record is classified and
    discarded — recovery never replays bytes that were not durable
    intent, and never crashes on them either."""

    def test_torn_json_classified_and_discarded(self, tmp_path):
        wal_path = os.path.join(str(tmp_path), "wal.json")
        with open(wal_path, "w", encoding="utf-8") as handle:
            handle.write('{"format": 1, "entr')
        wal = WriteAheadLog(wal_path)
        with pytest.raises(WalError) as caught:
            wal.read_record()
        assert caught.value.reason == "torn"
        assert wal.recover() == "discarded-torn-record"
        assert not os.path.exists(wal_path)

    def test_checksum_mismatch_classified_as_torn(self, tmp_path):
        wal_path = os.path.join(str(tmp_path), "wal.json")
        wal = WriteAheadLog(wal_path)
        staged = os.path.join(str(tmp_path), "payload.bin")
        with open(staged + ".tmp", "wb") as handle:
            handle.write(b"staged")
        wal.append([staged])
        # Rot one byte of the durable record.
        with open(wal_path, "r+b") as handle:
            handle.seek(12)
            byte = handle.read(1)
            handle.seek(12)
            handle.write(bytes([byte[0] ^ 0x20]))
        with pytest.raises(WalError) as caught:
            wal.read_record()
        assert caught.value.reason == "torn"
        # The record was never durable intent: staged files roll back.
        assert wal.recover(stray_tmps=[staged + ".tmp"]) == (
            "discarded-torn-record"
        )
        assert not os.path.exists(staged + ".tmp")
        assert not os.path.exists(staged)

    def test_malformed_record_classified(self, tmp_path):
        wal_path = os.path.join(str(tmp_path), "wal.json")
        with open(wal_path, "w", encoding="utf-8") as handle:
            handle.write('{"format": 1}')
        wal = WriteAheadLog(wal_path)
        with pytest.raises(WalError) as caught:
            wal.read_record()
        assert caught.value.reason == "malformed"
        assert wal.recover() == "discarded-torn-record"

    def test_binary_garbage_record_discarded(self, tmp_path):
        wal_path = os.path.join(str(tmp_path), "wal.json")
        with open(wal_path, "wb") as handle:
            handle.write(bytes(range(256)))
        wal = WriteAheadLog(wal_path)
        assert wal.recover() == "discarded-torn-record"

    def test_archive_opens_after_torn_wal(self, tmp_path):
        base = str(tmp_path)
        versions = list(company_versions())
        path = build_archive(base, "chunked", "raw", versions)
        with open(os.path.join(path, "wal.json"), "w") as handle:
            handle.write('{"format": 1, "entr')
        backend = open_archive(path)
        try:
            assert backend.last_version == 2
        finally:
            backend.close()
