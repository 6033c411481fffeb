"""Property suite: arbitrary corruption surfaces as *typed* errors.

Hypothesis flips bits and truncates files — manifests, checksum
sidecars, codec containers, the payloads themselves, the ``.presence``
and ``versions.txt`` files of an old store — at arbitrary offsets,
across every backend.  Whatever the damage,
reading the archive must raise the typed
:class:`~repro.storage.IntegrityError` family, never a bare
``KeyError``/``UnicodeDecodeError``/``EOFError``/``json``/``zlib``
error from whichever layer happened to choke first; and ``fsck`` must
report the injured file by name without crashing.
"""

import os
import shutil
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.data.company import COMPANY_KEY_TEXT, company_versions
from repro.storage import (
    CodecError,
    IntegrityError,
    create_archive,
    fsck_archive,
    get_codec,
    open_archive,
)
from repro.xmltree.serializer import to_pretty_string

#: Archive-state files fair game for corruption, per backend layout.
TARGETS = {
    "file": ["archive.xml", "archive.xml.manifest.json"],
    "chunked": ["chunk-0000.xml", "manifest.json"],
    # A store from before the manifest carried presence, the count and
    # the checksum table.
    "chunked-v1": [
        "chunk-0000.presence",
        "versions.txt",
        "manifest.json",
        "checksums.json",
    ],
    "external": ["archive.jsonl", "manifest.json"],
}
#: Codec per backend — compressed containers make offsets interesting.
BUILD_CODEC = {"file": "gzip", "chunked": "gzip", "external": "xmill"}
V1_STORE = os.path.join(os.path.dirname(__file__), "fixtures", "xbin_v1", "chunked")


@pytest.fixture(scope="module")
def pristine():
    """One healthy two-version archive per backend, built once, plus
    the reference retrieval renderings for equivalence checks."""
    base = tempfile.mkdtemp(prefix="integrity-pristine-")
    versions = [v.copy() for v in list(company_versions())[:2]]
    paths = {}
    references = {}
    for kind in TARGETS:
        root = os.path.join(base, kind)
        os.makedirs(root)
        path = os.path.join(
            root, "archive.xml" if kind == "file" else "store"
        )
        if kind == "chunked-v1":
            shutil.copytree(V1_STORE, path)
        else:
            backend = create_archive(
                path,
                COMPANY_KEY_TEXT,
                kind=kind,
                chunk_count=2,
                codec=BUILD_CODEC[kind],
            )
            backend.ingest_batch([v.copy() for v in versions])
            backend.close()
        paths[kind] = root
        references[kind] = exercise(path)
    yield paths, references
    shutil.rmtree(base, ignore_errors=True)


def corrupt(path, mode, offset, bit):
    """Apply one mutation; return False if it would be a no-op."""
    with open(path, "rb") as handle:
        data = handle.read()
    if not data:
        return False
    if mode == "flip":
        index = offset % len(data)
        mutated = bytearray(data)
        mutated[index] ^= 1 << bit
        data = bytes(mutated)
    else:  # truncate
        cut = offset % len(data)
        if cut == len(data):
            return False
        data = data[:cut]
    with open(path, "wb") as handle:
        handle.write(data)
    return True


def exercise(archive):
    """Open and read everything a curator would; return the renderings."""
    backend = open_archive(archive)
    try:
        return [
            to_pretty_string(backend.retrieve(version))
            for version in range(1, backend.last_version + 1)
        ]
    finally:
        backend.close()


class TestArbitraryCorruptionIsTyped:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_reads_raise_integrity_error_and_fsck_names_the_file(
        self, data, pristine
    ):
        kind = data.draw(st.sampled_from(sorted(TARGETS)), label="backend")
        target = data.draw(st.sampled_from(TARGETS[kind]), label="file")
        mode = data.draw(st.sampled_from(["flip", "truncate"]), label="mode")
        offset = data.draw(st.integers(min_value=0, max_value=1 << 20))
        bit = data.draw(st.integers(min_value=0, max_value=7))

        paths, references = pristine
        work = tempfile.mkdtemp(prefix="integrity-work-")
        try:
            shutil.copytree(paths[kind], work, dirs_exist_ok=True)
            archive = os.path.join(
                work, "archive.xml" if kind == "file" else "store"
            )
            injured = (
                os.path.join(work, target)
                if kind == "file"
                else os.path.join(archive, target)
            )
            assume(corrupt(injured, mode, offset, bit))

            # Whatever the damage, a read either raises the *typed*
            # error family or — when the flip is semantically invisible
            # (JSON whitespace in a sidecar, an ignorable container
            # byte) — returns answers byte-identical to the pristine
            # archive's.  Anything else (a bare KeyError, a silently
            # wrong answer) fails the property.
            raised = None
            try:
                rendered = exercise(archive)
            except IntegrityError as error:
                raised = error
            if raised is None:
                assert rendered == references[kind], (
                    f"corrupting {target!r} ({mode} @ {offset}) changed "
                    f"answers without raising IntegrityError"
                )
                return

            # The read detected damage — fsck must report the injured
            # file by name without crashing.
            report = fsck_archive(archive)
            assert not report.clean
            named = {os.path.basename(f.path) for f in report.findings}
            assert os.path.basename(target) in named, (
                f"fsck missed the injured file {target!r}; "
                f"found {sorted(named)}:\n{report}"
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)


class TestCodecContainerCorruption:
    """Damaged codec containers classify as CodecError, never leak
    ``zlib.error``/``EOFError``/``IndexError`` from the decoder."""

    @given(
        codec=st.sampled_from(["gzip", "xmill"]),
        offset=st.integers(min_value=0, max_value=1 << 16),
        bit=st.integers(min_value=0, max_value=7),
        mode=st.sampled_from(["flip", "truncate"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_decode_document(self, codec, offset, bit, mode):
        impl = get_codec(codec)
        encoded = impl.encode_document(
            "<db>\n<rec>\n<k>one</k>\n<v>alpha</v>\n</rec>\n</db>\n"
        )
        if mode == "flip":
            index = offset % len(encoded)
            mutated = bytearray(encoded)
            mutated[index] ^= 1 << bit
            damaged = bytes(mutated)
        else:
            damaged = encoded[: offset % len(encoded)]
        assume(damaged != encoded)
        try:
            decoded = impl.decode_document(damaged)
        except (CodecError, IntegrityError):
            return  # typed, as required
        except ValueError:
            return  # XML-level damage surfaces as a parse error upstream
        # Some flips land in ignorable header bytes and still decode —
        # that is the checksum layer's job to catch, not the codec's.
        assert isinstance(decoded, str)

    @given(
        offset=st.integers(min_value=0, max_value=1 << 16),
        bit=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=40, deadline=None)
    def test_framed_text_streams(self, tmp_path_factory, offset, bit):
        """A corrupted framed-gzip event stream read end-to-end raises
        typed errors only."""
        from repro.storage.events import IOStats, read_events

        base = tempfile.mkdtemp(prefix="integrity-frame-")
        try:
            path = os.path.join(base, "stream.jsonl")
            impl = get_codec("gzip")
            with impl.open_text_write(path) as handle:
                for line in range(50):
                    handle.write(
                        f'["node", "rec{line}", [], "1-2"]\n'
                    )
            with open(path, "rb") as handle:
                data = handle.read()
            index = offset % len(data)
            mutated = bytearray(data)
            mutated[index] ^= 1 << bit
            with open(path, "wb") as handle:
                handle.write(bytes(mutated))
            try:
                for _ in read_events(path, IOStats(), "gzip"):
                    pass
            except IntegrityError:
                pass  # typed, as required
        finally:
            shutil.rmtree(base, ignore_errors=True)


class TestWalRecordCorruption:
    @given(
        offset=st.integers(min_value=0, max_value=1 << 12),
        bit=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=50, deadline=None)
    def test_any_flip_is_discarded_never_replayed(self, offset, bit):
        """A WAL record with any flipped bit is torn/malformed —
        recovery discards it instead of acting on garbage intent."""
        from repro.storage import WalError, WriteAheadLog

        base = tempfile.mkdtemp(prefix="integrity-wal-")
        try:
            wal_path = os.path.join(base, "wal.json")
            wal = WriteAheadLog(wal_path)
            entry = os.path.join(base, "payload.bin")
            with open(entry + ".tmp", "wb") as handle:
                handle.write(b"staged-bytes")
            wal.append([entry], meta={"version_count": 3})
            with open(wal_path, "rb") as handle:
                data = handle.read()
            index = offset % len(data)
            mutated = bytearray(data)
            mutated[index] ^= 1 << bit
            assume(bytes(mutated) != data)
            with open(wal_path, "wb") as handle:
                handle.write(bytes(mutated))
            try:
                record = wal.read_record()
            except WalError:
                outcome = wal.recover(stray_tmps=[entry + ".tmp"])
                assert outcome == "discarded-torn-record"
                # Garbage intent must never publish the staged file.
                assert not os.path.exists(entry)
                return
            # One flipped bit cannot produce a *different* valid record:
            # the self-checksum binds entries and meta.
            assert record == {
                "format": 1,
                "entries": ["payload.bin"],
                "meta": {"version_count": 3},
            }
        finally:
            shutil.rmtree(base, ignore_errors=True)


class TestSelfChecksumKeyDamage:
    """A self-checksum only protects a file if its *absence* is damage
    too: one flipped bit in the key name (``"sha256"`` → ``"sha25v"``)
    must not switch the check off and let edited metadata through."""

    @staticmethod
    def disable_self_checksum(path, edit):
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        assert '"sha256"' in text
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(edit(text.replace('  "sha256":', '  "sha25v":')))

    def build(self, tmp_path, kind):
        path = str(tmp_path / ("archive.xml" if kind == "file" else "store"))
        backend = create_archive(path, COMPANY_KEY_TEXT, kind=kind, chunk_count=2)
        backend.ingest_batch([v.copy() for v in list(company_versions())[:3]])
        backend.close()
        return path

    @pytest.mark.parametrize("kind", ["file", "chunked", "external"])
    def test_manifest_with_edited_version_count(self, tmp_path, kind):
        from repro.storage import ManifestInconsistent, manifest_location

        path = self.build(tmp_path, kind)
        self.disable_self_checksum(
            manifest_location(path),
            lambda text: text.replace('"version_count": 3', '"version_count": 2'),
        )
        with pytest.raises(ManifestInconsistent, match="self-checksum"):
            open_archive(path)
        assert "manifest-corrupt" in {
            finding.code for finding in fsck_archive(path).findings
        }

    @pytest.mark.parametrize("kind", ["chunked", "external"])
    def test_sidecar_without_its_self_checksum(self, tmp_path, kind):
        from repro.storage import ManifestInconsistent

        from test_fsck import keep_the_table_beside

        path = self.build(tmp_path, kind)
        keep_the_table_beside(path)  # a store from before the manifest held it
        self.disable_self_checksum(
            os.path.join(path, "checksums.json"), lambda text: text
        )
        with pytest.raises(ManifestInconsistent, match="self-checksum"):
            open_archive(path)
        assert "checksums-corrupt" in {
            finding.code for finding in fsck_archive(path).findings
        }
