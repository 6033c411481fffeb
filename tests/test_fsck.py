"""``fsck_archive`` scrub/repair behaviour and the CLI's exit taxonomy.

Covers the repair philosophy end to end: everything derivable (the
manifest and its chunk -> presence map, the checksum sidecar, WAL
state) is rebuilt in place; payloads that fail
their checksum but still decode are re-recorded; payloads that do not
decode are *quarantined* — moved aside, never deleted — and later
reads raise a typed error instead of serving garbage.  The acceptance
bar for presence repair is query equivalence: a repaired archive must
answer retrievals byte-identically to an undamaged copy.
"""

import json
import os

import pytest

from repro.cli import EXIT_CORRUPT, main
from repro.data.company import COMPANY_KEY_TEXT, company_versions
from repro.storage import (
    QUARANTINE_DIR,
    IntegrityError,
    WriteAheadLog,
    create_archive,
    fsck_archive,
    open_archive,
)
from repro.xmltree.serializer import to_pretty_string

BACKENDS = ["file", "chunked", "external"]


@pytest.fixture(scope="module")
def versions():
    return [v.copy() for v in list(company_versions())[:3]]


def build(base, kind, versions, codec=None):
    """A three-version archive whose chunked layout fills both chunks."""
    os.makedirs(base, exist_ok=True)
    path = os.path.join(base, "archive.xml" if kind == "file" else "store")
    backend = create_archive(
        path, COMPANY_KEY_TEXT, kind=kind, chunk_count=2, codec=codec
    )
    backend.ingest_batch([v.copy() for v in versions])
    backend.close()
    return path


def renderings(path):
    backend = open_archive(path)
    try:
        return [
            to_pretty_string(backend.retrieve(v))
            for v in range(1, backend.last_version + 1)
        ]
    finally:
        backend.close()


def codes(report):
    return {finding.code for finding in report.findings}


def record_presence(path, chunk, text):
    """Make the manifest's map say ``text`` for one chunk (``None``:
    nothing) the way a wrong writer would: a manifest that verifies,
    recorded in the checksum table."""
    from repro.storage import ChecksumSidecar
    from repro.storage.backend import read_manifest

    manifest = read_manifest(path)
    if text is None:
        del manifest.extra["presence"][str(chunk)]
    else:
        manifest.extra["presence"][str(chunk)] = text
    encoded = manifest.to_json().encode("utf-8")
    with open(os.path.join(path, "manifest.json"), "wb") as handle:
        handle.write(encoded)
    table = ChecksumSidecar.load(os.path.join(path, "checksums.json"))
    table.record("manifest.json", encoded)
    with open(table.path, "w", encoding="utf-8") as handle:
        handle.write(table.to_json())


class TestCleanArchives:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_fresh_archive_is_clean(self, tmp_path, versions, kind):
        path = build(str(tmp_path), kind, versions)
        report = fsck_archive(path)
        assert report.clean, str(report)
        assert report.kind == kind

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_deep_scrub_is_clean(self, tmp_path, versions, kind):
        path = build(str(tmp_path), kind, versions, codec="gzip")
        report = fsck_archive(path, deep=True)
        assert report.clean, str(report)

    def test_missing_archive_raises(self, tmp_path):
        from repro.core.archive import ArchiveError

        with pytest.raises(ArchiveError):
            fsck_archive(str(tmp_path / "nope"))


class TestDerivableRepairs:
    def test_presence_repair_restores_query_equivalence(
        self, tmp_path, versions
    ):
        """The acceptance bar: after ``--repair`` of a wrong presence
        map, every retrieval is byte-identical to the undamaged
        original's."""
        path = build(str(tmp_path), "chunked", versions)
        reference = renderings(path)
        # Lie about which versions chunk 0 stores.
        record_presence(path, 0, "1")
        report = fsck_archive(path)
        assert "presence-mismatch" in codes(report)
        assert report.unrepaired  # detect-only pass repairs nothing

        repaired = fsck_archive(path, repair=True)
        assert "presence-mismatch" in codes(repaired)
        assert not repaired.unrepaired, str(repaired)
        assert fsck_archive(path).clean
        assert renderings(path) == reference

    def test_deleted_presence_is_rebuilt(self, tmp_path, versions):
        path = build(str(tmp_path), "chunked", versions)
        reference = renderings(path)
        record_presence(path, 1, None)
        assert renderings(path) == reference  # unknown: the chunk is read
        repaired = fsck_archive(path, repair=True)
        assert "presence-mismatch" in codes(repaired)
        assert not repaired.unrepaired, str(repaired)
        assert fsck_archive(path).clean
        assert renderings(path) == reference

    def test_corrupt_manifest_is_rebuilt(self, tmp_path, versions):
        path = build(str(tmp_path), "chunked", versions)
        reference = renderings(path)
        manifest = os.path.join(path, "manifest.json")
        with open(manifest, "wb") as handle:
            handle.write(b"\x00 not json \xff")
        report = fsck_archive(path)
        assert "manifest-corrupt" in codes(report)
        repaired = fsck_archive(path, repair=True)
        assert not [
            f for f in repaired.unrepaired if f.code == "manifest-corrupt"
        ], str(repaired)
        assert fsck_archive(path).clean
        assert renderings(path) == reference

    def test_corrupt_checksum_sidecar_is_rebuilt(self, tmp_path, versions):
        path = build(str(tmp_path), "external", versions)
        reference = renderings(path)
        with open(os.path.join(path, "checksums.json"), "w") as handle:
            handle.write("{ torn")
        repaired = fsck_archive(path, repair=True)
        assert "checksums-corrupt" in codes(repaired)
        assert not repaired.unrepaired, str(repaired)
        assert fsck_archive(path).clean
        assert renderings(path) == reference

    def test_stale_checksum_rerecorded_when_payload_decodes(
        self, tmp_path, versions
    ):
        path = build(str(tmp_path), "chunked", versions)
        chunk = os.path.join(path, "chunk-0000.xml")
        with open(chunk, "r", encoding="utf-8") as handle:
            text = handle.read()
        with open(chunk, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")  # same document, different bytes
        report = fsck_archive(path)
        assert "checksum-mismatch" in codes(report)
        repaired = fsck_archive(path, repair=True)
        assert not repaired.unrepaired, str(repaired)
        assert fsck_archive(path).clean
        # Nothing was quarantined — the payload still decodes.
        assert not os.path.exists(os.path.join(path, QUARANTINE_DIR))

    def test_missing_payload_is_forgotten_not_invented(
        self, tmp_path, versions
    ):
        path = build(str(tmp_path), "chunked", versions)
        os.remove(os.path.join(path, "chunk-0001.xml"))
        report = fsck_archive(path)
        assert "missing-payload" in codes(report)
        repaired = fsck_archive(path, repair=True)
        missing = [
            f for f in repaired.findings if f.code == "missing-payload"
        ]
        assert missing and all(f.repaired for f in missing)
        assert "forgotten" in missing[0].repair


class TestLostChunkCount:
    """Records hash to chunks, so a small archive leaves its last
    chunks empty: the highest chunk file says little about the count
    the records were routed with.  Four records in sixteen chunks land
    in chunks 2, 11 and 14 — a guessed count of 15 would route every
    later record elsewhere and answer ``history`` wrongly while
    ``retrieve`` and ``fsck`` still look fine."""

    KEYS = "(/, (db, {}))\n(/db, (dept, {name}))"
    NAMES = ["d12-0", "d12-1", "d12-2", "d12-3"]

    @pytest.fixture
    def store(self, tmp_path):
        from repro.xmltree import parse_document

        path = str(tmp_path / "store")
        backend = create_archive(path, self.KEYS, kind="chunked", chunk_count=16)
        backend.add_version(
            parse_document(
                "<db>"
                + "".join(f"<dept><name>{n}</name></dept>" for n in self.NAMES)
                + "</db>"
            )
        )
        backend.close()
        chunks = sorted(n for n in os.listdir(path) if n.endswith(".xml"))
        assert chunks[-1] == "chunk-0014.xml"  # what "highest + 1" would read
        os.remove(os.path.join(path, "manifest.json"))
        return path

    def test_open_refuses_rather_than_infer(self, store):
        with pytest.raises(IntegrityError, match="fsck --repair"):
            open_archive(store)

    def test_repair_rebuilds_the_true_count_or_refuses(self, store):
        report = fsck_archive(store, repair=True)
        missing = next(f for f in report.findings if f.code == "manifest-missing")
        if not missing.repaired:
            assert "chunk count not derivable" in missing.repair
            return
        with open_archive(store) as backend:
            assert backend.chunk_count == 16
            for name in self.NAMES:
                history = backend.history(f"/db/dept[name={name}]")
                assert history.existence.to_text() == "1"

    def test_repair_without_records_to_test_refuses(self, tmp_path):
        path = str(tmp_path / "empty")
        create_archive(path, self.KEYS, kind="chunked", chunk_count=16).close()
        os.remove(os.path.join(path, "manifest.json"))
        # No chunk: the version count is derivable, the chunk count is not.
        report = fsck_archive(path, repair=True)
        missing = next(f for f in report.findings if f.code == "manifest-missing")
        assert not missing.repaired
        assert "chunk count not derivable" in missing.repair
        assert not os.path.exists(os.path.join(path, "manifest.json"))


class TestQuarantine:
    def test_undecodable_payload_is_quarantined_never_deleted(
        self, tmp_path, versions
    ):
        path = build(str(tmp_path), "chunked", versions)
        chunk = os.path.join(path, "chunk-0000.xml")
        garbage = b"\x00\xffthis is not xml and not any codec\x00"
        with open(chunk, "wb") as handle:
            handle.write(garbage)
        repaired = fsck_archive(path, repair=True)
        mismatch = [
            f
            for f in repaired.findings
            if f.code in ("checksum-mismatch", "truncated-payload")
            and f.path == "chunk-0000.xml"
        ]
        assert mismatch and mismatch[0].repaired
        assert "quarantine" in mismatch[0].repair
        # The bytes survive, verbatim, under quarantine/.
        moved = os.path.join(path, QUARANTINE_DIR, "chunk-0000.xml")
        assert os.path.exists(moved)
        with open(moved, "rb") as handle:
            assert handle.read() == garbage
        assert not os.path.exists(chunk)

    def test_reads_after_quarantine_raise_typed_error(
        self, tmp_path, versions
    ):
        path = build(str(tmp_path), "chunked", versions)
        with open(os.path.join(path, "chunk-0000.xml"), "wb") as handle:
            handle.write(b"\x00garbage\x00")
        fsck_archive(path, repair=True)
        backend = open_archive(path)
        try:
            with pytest.raises(IntegrityError, match="quarantined"):
                backend.retrieve(1)
        finally:
            backend.close()
        # A later scrub remembers and reports the quarantined payload.
        report = fsck_archive(path)
        assert "quarantined" in codes(report)

    def test_skip_policy_serves_the_healthy_chunks(self, tmp_path, versions):
        """``on_corrupt="skip"`` degrades gracefully: retrieval serves
        whatever chunks still verify, counting the casualties."""
        path = build(str(tmp_path), "chunked", versions)
        # chunk-0001 carries presence "3": only version 3 reads it.
        with open(os.path.join(path, "chunk-0001.xml"), "wb") as handle:
            handle.write(b"\x00garbage\x00")
        strict = open_archive(path)
        try:
            with pytest.raises(IntegrityError):
                strict.retrieve(3)
        finally:
            strict.close()
        degraded = open_archive(path, on_corrupt="skip")
        try:
            result = degraded.retrieve(3)
            assert result is not None
            assert degraded.chunks_skipped_corrupt >= 1
            rendered = to_pretty_string(result)
            assert "<db" in rendered  # partial but well-formed answer
        finally:
            degraded.close()


class TestWalFindings:
    def test_pending_record_reported_and_recovered(self, tmp_path, versions):
        path = build(str(tmp_path), "chunked", versions)
        reference = renderings(path)
        wal = WriteAheadLog(os.path.join(path, "wal.json"))
        staged = os.path.join(path, "chunk-0000.xml")
        with open(staged + ".tmp", "wb") as handle:
            handle.write(b"staged-but-never-published")
        wal.append([staged], meta={"version_count": 9})
        report = fsck_archive(path)
        assert "wal-pending" in codes(report)
        repaired = fsck_archive(path, repair=True)
        pending = [f for f in repaired.findings if f.code == "wal-pending"]
        assert pending and pending[0].repaired
        assert "rolled-back" in pending[0].repair
        assert fsck_archive(path).clean
        assert renderings(path) == reference

    def test_torn_record_discarded(self, tmp_path, versions):
        path = build(str(tmp_path), "chunked", versions)
        with open(os.path.join(path, "wal.json"), "w") as handle:
            handle.write('{"format": 1, "entr')
        report = fsck_archive(path)
        assert "wal-torn" in codes(report)
        repaired = fsck_archive(path, repair=True)
        assert not repaired.unrepaired, str(repaired)
        assert fsck_archive(path).clean

    def test_stray_tmp_swept(self, tmp_path, versions):
        path = build(str(tmp_path), "chunked", versions)
        stray = os.path.join(path, "chunk-0003.xml.tmp")
        with open(stray, "wb") as handle:
            handle.write(b"orphan")
        report = fsck_archive(path)
        assert "stray-tmp" in codes(report)
        fsck_archive(path, repair=True)
        assert not os.path.exists(stray)
        assert fsck_archive(path).clean


class TestCliFsck:
    def run(self, *argv):
        return main([str(part) for part in argv])

    def test_clean_archive_exits_zero(self, tmp_path, versions, capsys):
        path = build(str(tmp_path), "file", versions)
        assert self.run("fsck", path) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one_then_repair_exits_zero(
        self, tmp_path, versions, capsys
    ):
        path = build(str(tmp_path), "chunked", versions)
        record_presence(path, 0, "1")
        assert self.run("fsck", path) == 1
        assert "presence-mismatch" in capsys.readouterr().out
        assert self.run("fsck", path, "--repair") == 0
        capsys.readouterr()
        assert self.run("fsck", path) == 0

    def test_json_report(self, tmp_path, versions, capsys):
        path = build(str(tmp_path), "chunked", versions)
        record_presence(path, 0, None)
        assert self.run("fsck", path, "--json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["kind"] == "chunked"
        assert any(
            finding["code"] == "presence-mismatch"
            for finding in payload["findings"]
        )

    def test_corrupt_read_exits_two_with_fsck_hint(
        self, tmp_path, versions, capsys
    ):
        path = build(str(tmp_path), "chunked", versions)
        with open(os.path.join(path, "chunk-0000.xml"), "wb") as handle:
            handle.write(b"\x00garbage\x00")
        out = str(tmp_path / "out.xml")
        assert self.run("get", path, "1", "-o", out) == EXIT_CORRUPT
        err = capsys.readouterr().err
        assert "corruption detected" in err
        assert "xarch fsck" in err

    def test_corrupt_manifest_exits_two(self, tmp_path, versions, capsys):
        path = build(str(tmp_path), "chunked", versions)
        with open(os.path.join(path, "manifest.json"), "w") as handle:
            handle.write("{ not json")
        assert self.run("stats", path) == EXIT_CORRUPT
        assert "corruption detected" in capsys.readouterr().err

    def test_repaired_archive_survives_round_trip(
        self, tmp_path, versions, capsys
    ):
        """CLI-level end-to-end: damage, repair, read back."""
        path = build(str(tmp_path), "chunked", versions)
        reference = renderings(path)
        record_presence(path, 0, "3")  # chunk 1's
        assert self.run("fsck", path, "--repair") == 0
        capsys.readouterr()
        assert renderings(path) == reference
