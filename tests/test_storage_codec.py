"""The codec layer itself: round-trips, magic sniffing, streamed
framing — plus the pathlib.Path acceptance of every opening surface.
"""

import gzip
import pathlib

import pytest

import repro
from repro.compress import XMILL_MAGIC
from repro.data.company import COMPANY_KEY_TEXT, company_versions
from repro.keys.keyparser import parse_key_spec
from repro.storage import (
    ChunkedArchiver,
    CodecError,
    ExternalArchiver,
    FileBackend,
    create_archive,
    detect_backend_kind,
    get_codec,
    keys_location,
    manifest_location,
    open_archive,
)
from repro.storage.fsck import detect_codec
from repro.storage.codec import CODECS, GZIP, RAW, STREAM_FLUSH_BYTES, XBIN, XMILL
from repro.storage.xbin import XBIN_MAGIC
from repro.xmltree import parse_document, to_pretty_string, value_equal

DOCUMENT = (
    '<T t="1-3" storage="alternatives">\n<root>\n<T t="1-3">\n<db>\n'
    "<rec>\n<id>1</id>\n<val>x&amp;y</val>\n</rec>\n</db>\n</T>\n</root>\n</T>\n"
)


class TestCodecRegistry:
    def test_names(self):
        assert set(CODECS) == {"raw", "gzip", "xmill", "xbin"}

    def test_get_codec_accepts_name_instance_and_none(self):
        assert get_codec("gzip") is GZIP
        assert get_codec(GZIP) is GZIP
        assert get_codec(None) is RAW

    def test_unknown_codec_rejected(self):
        with pytest.raises(CodecError):
            get_codec("zstd")

    def test_detect_codec_by_magic(self):
        assert detect_codec(b"<T t=") is RAW
        assert detect_codec(b"\x1f\x8b\x08") is GZIP
        assert detect_codec(XMILL_MAGIC + b"rest") is XMILL
        assert detect_codec(XBIN_MAGIC + b"rest") is XBIN
        assert XBIN_MAGIC == b"XB\x02\x00"
        assert detect_codec(b"XB\x01\x00rest") is XBIN  # version 1 stores


class TestDocumentRoundTrips:
    @pytest.mark.parametrize("name", ["raw", "gzip", "xmill", "xbin"])
    def test_normal_form_text_round_trips_byte_identical(self, name):
        codec = get_codec(name)
        assert codec.decode_document(codec.encode_document(DOCUMENT)) == DOCUMENT

    @pytest.mark.parametrize("name", ["gzip", "xmill", "xbin"])
    def test_encoded_form_carries_magic(self, name):
        codec = get_codec(name)
        assert codec.encode_document(DOCUMENT).startswith(codec.magic)

    def test_xmill_round_trips_timestamp_attributes_value_equal(self):
        text = '<T t="1-4,7"><db x="&quot;q&quot;"><v>ü — ₤</v></db></T>'
        codec = get_codec("xmill")
        decoded = codec.decode_document(codec.encode_document(text))
        assert value_equal(parse_document(decoded), parse_document(text))

    def test_decode_with_wrong_codec_fails_loudly(self):
        payload = get_codec("gzip").encode_document(DOCUMENT)
        with pytest.raises(CodecError):
            get_codec("xmill").decode_document(payload)
        with pytest.raises(CodecError):
            get_codec("xmill").decode_document(b"<db/>")

    def test_corrupt_payload_fails_loudly(self):
        payload = get_codec("gzip").encode_document(DOCUMENT)
        with pytest.raises(CodecError):
            get_codec("gzip").decode_document(payload[:10])
        container = get_codec("xmill").encode_document(DOCUMENT)
        with pytest.raises(CodecError):
            get_codec("xmill").decode_document(container[: len(XMILL_MAGIC) + 2])


class TestStreamedText:
    @pytest.mark.parametrize("name", ["raw", "gzip", "xmill", "xbin"])
    def test_lines_round_trip(self, tmp_path, name):
        codec = get_codec(name)
        path = str(tmp_path / "stream.jsonl")
        lines = [f'["N", "tag{i}", "payload ü{i}"]\n' for i in range(500)]
        with codec.open_text_write(path) as handle:
            for line in lines:
                handle.write(line)
        with codec.open_text_read(path) as handle:
            assert list(handle) == lines

    def test_gzip_stream_is_gzip_on_disk_and_smaller(self, tmp_path):
        raw_path, gz_path = str(tmp_path / "raw"), str(tmp_path / "gz")
        lines = ['["N", "record", "the same line over and over"]\n'] * 2000
        for codec, path in ((RAW, raw_path), (GZIP, gz_path)):
            with codec.open_text_write(path) as handle:
                for line in lines:
                    handle.write(line)
        assert open(gz_path, "rb").read(2) == b"\x1f\x8b"
        assert (
            pathlib.Path(gz_path).stat().st_size
            < pathlib.Path(raw_path).stat().st_size / 5
        )
        # The stream is a valid gzip member end to end.
        with gzip.open(gz_path, "rt", encoding="utf-8") as handle:
            assert sum(1 for _ in handle) == 2000

    def test_framed_write_survives_flush_boundaries(self, tmp_path):
        """Writes crossing the frame-flush threshold must still decode
        to the exact same lines (Z_FULL_FLUSH framing is invisible)."""
        path = str(tmp_path / "framed")
        line = "x" * 1000 + "\n"
        count = (2 * STREAM_FLUSH_BYTES) // len(line) + 3
        with GZIP.open_text_write(path) as handle:
            for _ in range(count):
                handle.write(line)
        with GZIP.open_text_read(path) as handle:
            got = list(handle)
        assert got == [line] * count


class TestPathlibAcceptance:
    """`repro.open`, `open_archive`, `create_archive` and the location
    helpers accept `pathlib.Path` everywhere, not just `str`."""

    @pytest.fixture
    def spec(self):
        return parse_key_spec(COMPANY_KEY_TEXT)

    @pytest.mark.parametrize("kind", ["file", "chunked", "external"])
    def test_create_and_open_with_path_objects(self, tmp_path, kind):
        target = tmp_path / ("arch.xml" if kind == "file" else "arch")
        backend = create_archive(
            target, COMPANY_KEY_TEXT, kind=kind, chunk_count=3, codec="gzip"
        )
        versions = list(company_versions())
        backend.ingest_batch([v.copy() for v in versions])
        expected = to_pretty_string(backend.retrieve(2))
        backend.close()
        assert detect_backend_kind(target) == kind
        reopened = open_archive(target)  # a Path, no spec
        assert to_pretty_string(reopened.retrieve(2)) == expected

    def test_backend_constructors_accept_paths(self, tmp_path, spec):
        versions = list(company_versions())
        for backend in (
            FileBackend(tmp_path / "a.xml", spec),
            ChunkedArchiver(tmp_path / "chunked", spec, 3),
            ExternalArchiver(tmp_path / "external", spec),
        ):
            backend.add_version(versions[0].copy())
            assert backend.last_version == 1

    def test_repro_open_accepts_path(self, tmp_path):
        target = tmp_path / "arch.xml"
        backend = create_archive(target, COMPANY_KEY_TEXT, kind="file")
        backend.ingest_batch([v.copy() for v in company_versions()])
        backend.close()
        with repro.open(target) as db:
            assert db.versions().max_version() >= 1

    def test_open_archive_accepts_path_keys_file(self, tmp_path, spec):
        target = tmp_path / "arch.xml"
        backend = FileBackend(target, spec)
        backend.add_version(next(iter(company_versions())).copy())
        keys = tmp_path / "keys.txt"
        keys.write_text(COMPANY_KEY_TEXT, encoding="utf-8")
        reopened = open_archive(target, keys_file=keys)
        assert reopened.last_version == 1

    def test_location_helpers_accept_paths(self, tmp_path):
        assert manifest_location(tmp_path / "a.xml").endswith(".manifest.json")
        assert keys_location(tmp_path / "a.xml").endswith(".keys")
        assert manifest_location(tmp_path).endswith("manifest.json")
