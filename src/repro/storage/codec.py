"""Compressed-at-rest codecs: the one seam every on-disk payload crosses.

The paper's Sec. 5.4 claim — a merged archive compresses *better* than
independently compressed snapshots because XMill groups like content
across versions — is a claim about the storage format, not about a
post-processing step.  This module makes compression a storage-format
concern: a :class:`Codec` sits between every backend and the bytes it
publishes, so archive files (:class:`~repro.storage.backend.FileBackend`),
chunk files (:class:`~repro.storage.chunked.ChunkedArchiver`) and the
external event stream (:class:`~repro.storage.archiver.ExternalArchiver`)
can all be kept compressed on disk and reopened transparently.

Four codecs ship:

``raw``
    Identity UTF-8 — the pre-codec format, still the default.
``gzip``
    Deterministic gzip (zeroed mtime, no filename) over the whole
    payload; streams are framed gzip whose DEFLATE blocks are flushed
    at :data:`STREAM_FLUSH_BYTES` boundaries, so readers and writers
    stay bounded-memory.
``xmill``
    Documents go through the storage-grade XMill container of
    :mod:`repro.compress.xmill` — structure/content separation with
    per-path value grouping, the compressor the paper credits for the
    archive's win.  Non-document text (the external event stream)
    takes the framed-gzip path: XMill is a *document* compressor.
``xbin``
    The parse-free binary archive-node container of
    :mod:`repro.storage.xbin`: length-prefixed node records with
    interned names and interval-list timestamps, so the hot read path
    (:meth:`Codec.decode_archive`) rebuilds the archive tree by direct
    record decoding instead of an XML parse.  Like ``xmill``, its
    *text* payloads take the framed-gzip stream path.

Backends read and write whole archives through the **archive seam** —
:meth:`Codec.encode_archive` / :meth:`Codec.decode_archive`.  For the
text codecs these default to serializing/parsing Fig. 5 XML (exactly
the pre-seam behaviour, byte for byte); ``xbin`` overrides them with
the record codec, which is where the repeat-read win comes from.

Payloads that must stay greppable/plain stay plain regardless of codec:
``manifest.json``, the checksum table, key-spec sidecars and the WAL
record itself.

Every codec's encoded form starts with a distinctive magic
(:data:`~repro.compress.gzipper.GZIP_MAGIC`,
:data:`~repro.compress.xmill.XMILL_MAGIC`; XML/JSONL text starts with
neither).  Manifests record the codec explicitly (``codec`` field) and
nothing on the read path looks at the magic; ``fsck --repair`` does,
to rebuild a lost manifest.

The contract of ``decode_document(encode_document(text))`` is
*parse-equivalence*: the result parses to a document value-equal to
``parse(text)``.  For text in serializer-normal form — everything the
backends write — the ``raw``/``gzip`` round-trip is byte-identical and
the ``xmill`` round-trip re-serializes through the same
:func:`~repro.xmltree.serializer.to_pretty_string` the backends use, so
it is byte-identical there too.
"""

from __future__ import annotations

import abc
import io
import zlib
from typing import IO, Iterator, Union

from ..compress import gzipper, xmill
from . import xbin

#: Logical bytes between full DEFLATE flushes in streamed gzip writes —
#: each frame is independently decodable, so a reader never has to
#: buffer more than one frame's worth of compressed history.
STREAM_FLUSH_BYTES = 64 * 1024


class CodecError(ValueError):
    """Raised when bytes cannot be decoded by the expected codec."""


class _LayeredTextIO:
    """A text handle over stacked binary layers, closed innermost-out.

    :class:`gzip.GzipFile` does not close the file object beneath it and
    :class:`io.TextIOWrapper` closes only its direct buffer, so streamed
    codec handles stack three layers that must all be released.  Also
    carries the periodic full-flush that frames streamed gzip writes.
    """

    def __init__(
        self,
        text: IO[str],
        layers: tuple,
        frame_flush=None,
        flush_every: int = 0,
    ) -> None:
        self._text = text
        self._layers = layers
        self._frame_flush = frame_flush
        self._flush_every = flush_every
        self._since_flush = 0

    def write(self, data: str) -> int:
        written = self._text.write(data)
        if self._frame_flush is not None:
            self._since_flush += len(data)
            if self._since_flush >= self._flush_every:
                self._text.flush()  # drain the text buffer into the gzip layer
                self._frame_flush()  # close the DEFLATE frame
                self._since_flush = 0
        return written

    def __iter__(self) -> Iterator[str]:
        return iter(self._text)

    def read(self, size: int = -1) -> str:
        return self._text.read(size)

    def close(self) -> None:
        self._text.close()
        for layer in self._layers:
            try:
                layer.close()
            except ValueError:
                pass  # already closed by the layer above

    def __enter__(self) -> "_LayeredTextIO":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Codec(abc.ABC):
    """One at-rest encoding of the archive's payload files."""

    #: Manifest tag and ``--codec`` name.
    name: str = "abstract"
    #: Leading bytes of every encoded payload (empty: no signature).
    magic: bytes = b""

    # -- whole documents (archive XML, chunk XML) -------------------------

    @abc.abstractmethod
    def encode_document(self, text: str) -> bytes:
        """Encode one XML document string for disk."""

    @abc.abstractmethod
    def decode_document(self, data: bytes) -> str:
        """Decode bytes written by :meth:`encode_document`."""

    # -- whole archives (the backend read/write seam) ----------------------

    def encode_archive(self, archive) -> bytes:
        """Encode one in-memory :class:`~repro.core.archive.Archive`.

        The default serializes the Fig. 5 XML and encodes that — byte
        for byte what backends wrote before the archive seam existed.
        Binary codecs override this to skip the text entirely.
        """
        return self.encode_document(archive.to_xml_string())

    def decode_archive(self, data: bytes, spec, options=None):
        """Decode bytes written by :meth:`encode_archive` into an
        :class:`~repro.core.archive.Archive` under ``spec``/``options``.

        The default parses the decoded document text; binary codecs
        override it with direct record decoding (no parse).
        """
        from ..core.archive import Archive  # local: archive sits above codecs

        return Archive.from_xml_string(
            self.decode_document(data), spec, options
        )

    # -- opaque text payloads ---------------------------------------------

    @abc.abstractmethod
    def encode_text(self, text: str) -> bytes:
        """Encode a non-document text payload (e.g. one event line)."""

    @abc.abstractmethod
    def decode_text(self, data: bytes) -> str:
        """Decode bytes written by :meth:`encode_text`."""

    # -- streamed text (the external event stream) ------------------------

    def open_text_write(self, path: str) -> _LayeredTextIO:
        """A bounded-memory text writer for a streamed payload file."""
        return _LayeredTextIO(open(path, "w", encoding="utf-8", newline="\n"), ())

    def open_text_read(self, path: str) -> _LayeredTextIO:
        """A bounded-memory text reader matching :meth:`open_text_write`."""
        return _LayeredTextIO(open(path, "r", encoding="utf-8"), ())

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<Codec {self.name}>"


class RawCodec(Codec):
    """Identity UTF-8 — what every backend wrote before the codec layer."""

    name = "raw"
    magic = b""

    def encode_document(self, text: str) -> bytes:
        return text.encode("utf-8")

    def decode_document(self, data: bytes) -> str:
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as error:
            raise CodecError(f"Not raw UTF-8 text: {error}")

    encode_text = encode_document
    decode_text = decode_document


def _gzip_open_write(path: str) -> _LayeredTextIO:
    import gzip

    binary = open(path, "wb")
    compressed = gzip.GzipFile(
        filename="", mode="wb", fileobj=binary, compresslevel=9, mtime=0
    )
    text = io.TextIOWrapper(compressed, encoding="utf-8", newline="\n")
    return _LayeredTextIO(
        text,
        (compressed, binary),
        frame_flush=lambda: compressed.flush(zlib.Z_FULL_FLUSH),
        flush_every=STREAM_FLUSH_BYTES,
    )


def _gzip_open_read(path: str) -> _LayeredTextIO:
    import gzip

    binary = open(path, "rb")
    compressed = gzip.GzipFile(fileobj=binary, mode="rb")
    text = io.TextIOWrapper(compressed, encoding="utf-8")
    return _LayeredTextIO(text, (compressed, binary))


class GzipCodec(Codec):
    """Deterministic gzip over documents and framed gzip over streams."""

    name = "gzip"
    magic = gzipper.GZIP_MAGIC

    def encode_document(self, text: str) -> bytes:
        return gzipper.gzip_compress(text.encode("utf-8"))

    def decode_document(self, data: bytes) -> str:
        if not data.startswith(self.magic):
            raise CodecError("Not a gzip payload (bad magic)")
        try:
            return gzipper.gzip_decompress(data).decode("utf-8")
        except (OSError, EOFError, UnicodeDecodeError, zlib.error) as error:
            raise CodecError(f"Corrupt gzip payload: {error}")

    encode_text = encode_document
    decode_text = decode_document

    def open_text_write(self, path: str) -> _LayeredTextIO:
        return _gzip_open_write(path)

    def open_text_read(self, path: str) -> _LayeredTextIO:
        return _gzip_open_read(path)


class XMillCodec(Codec):
    """The storage-grade XMill container for documents.

    ``encode_document`` parses the XML text, separates structure from
    content with per-path containers and serializes the result to the
    length-framed container of :func:`repro.compress.xmill.to_bytes`.
    ``decode_document`` re-serializes through the same pretty-printer
    the backends write with, so backend-written files round-trip to the
    identical text.  Timestamp (``<T t="...">``) and provenance
    attributes are ordinary attribute containers — full archive trees
    round-trip, which is what promotes :mod:`repro.compress.xmill` from
    experiment code to a storage serializer.

    XMill is a document compressor; the codec's *text* payloads (the
    external event stream) take the same framed-gzip path as the
    ``gzip`` codec.
    """

    name = "xmill"
    magic = xmill.XMILL_MAGIC

    def encode_document(self, text: str) -> bytes:
        from ..xmltree.parser import parse_document

        return xmill.to_bytes(xmill.compress(parse_document(text)))

    def decode_document(self, data: bytes) -> str:
        from ..xmltree.serializer import to_pretty_string

        if not data.startswith(self.magic):
            raise CodecError("Not an XMill container (bad magic)")
        try:
            document = xmill.decompress(xmill.from_bytes(data))
        except (
            xmill.XMillFormatError,
            zlib.error,
            IndexError,
            UnicodeDecodeError,
        ) as error:
            raise CodecError(f"Corrupt XMill container: {error}")
        return to_pretty_string(document)

    def encode_text(self, text: str) -> bytes:
        return gzipper.gzip_compress(text.encode("utf-8"))

    def decode_text(self, data: bytes) -> str:
        try:
            return gzipper.gzip_decompress(data).decode("utf-8")
        except (OSError, EOFError, UnicodeDecodeError, zlib.error) as error:
            raise CodecError(f"Corrupt gzip payload: {error}")

    def open_text_write(self, path: str) -> _LayeredTextIO:
        return _gzip_open_write(path)

    def open_text_read(self, path: str) -> _LayeredTextIO:
        return _gzip_open_read(path)


class XbinCodec(Codec):
    """The parse-free binary archive-node container (:mod:`.xbin`).

    ``encode_archive``/``decode_archive`` move whole node trees as
    length-prefixed records — no XML text on either side — which is the
    seam every backend's chunk reads and writes cross.  The *document*
    methods stay fully interoperable: ``decode_document`` re-emits the
    Fig. 5 XML (byte-identical to what the text codecs store, so fsck's
    deep scrub and recode verification treat xbin payloads like any
    other), and ``encode_document`` wraps bare text in a text-mode
    container for callers that hold no key spec to build records from.

    Like XMill, xbin is a *document* container; its text payloads (the
    external event stream) take the shared framed-gzip path.
    """

    name = "xbin"
    #: What both container versions open with; the version byte that
    #: follows is the decoder's business.
    magic = xbin.XBIN_MAGIC[:2]

    def encode_archive(self, archive) -> bytes:
        return xbin.encode_archive(archive)

    def decode_archive(self, data: bytes, spec, options=None):
        return xbin.decode_archive(data, spec, options)

    def encode_document(self, text: str) -> bytes:
        return xbin.encode_text_blob(text)

    def decode_document(self, data: bytes) -> str:
        return xbin.decode_document_text(data)

    def encode_text(self, text: str) -> bytes:
        return gzipper.gzip_compress(text.encode("utf-8"))

    def decode_text(self, data: bytes) -> str:
        try:
            return gzipper.gzip_decompress(data).decode("utf-8")
        except (OSError, EOFError, UnicodeDecodeError, zlib.error) as error:
            raise CodecError(f"Corrupt gzip payload: {error}")

    def open_text_write(self, path: str) -> _LayeredTextIO:
        return _gzip_open_write(path)

    def open_text_read(self, path: str) -> _LayeredTextIO:
        return _gzip_open_read(path)


RAW = RawCodec()
GZIP = GzipCodec()
XMILL = XMillCodec()
XBIN = XbinCodec()

#: Registry backing manifests, ``--codec`` flags and magic sniffing.
CODECS: dict[str, Codec] = {
    codec.name: codec for codec in (RAW, GZIP, XMILL, XBIN)
}
CODEC_NAMES = tuple(CODECS)

CodecLike = Union[str, Codec, None]


def get_codec(codec: CodecLike) -> Codec:
    """Resolve a codec name (or pass a codec through); ``None`` → raw."""
    if codec is None:
        return RAW
    if isinstance(codec, Codec):
        return codec
    try:
        return CODECS[codec]
    except KeyError:
        raise CodecError(
            f"Unknown codec {codec!r} (choose from {', '.join(CODEC_NAMES)})"
        )
