"""The ``xbin`` binary archive-node container: load chunks without parsing.

Every other codec stores an archive chunk as (possibly compressed) Fig. 5
XML *text*, so each read pays tokenizing, tree building, key re-parsing
and timestamp re-parsing before a single node is usable.  ``xbin``
serializes the :class:`~repro.core.nodes.ArchiveNode` tree itself:
magic-headed, length-prefixed records with interned tag/attribute/key-path
names and :class:`~repro.core.versionset.VersionSet` timestamps stored as
``(start, end)`` interval lists — exactly the in-memory encoding — so a
chunk loads by direct record decoding, no XML parse at all.

Container layout (all integers are LEB128 varints)::

    magic   b"XB\\x01\\x00"
    crc     varint  -- crc32 over (flags byte + compressed body)
    flags   1 byte  -- bit0: weave compaction, bit1: opaque-text mode
    length  varint  -- compressed body size in bytes
    body    <length> bytes of zlib-compressed records (no trailing bytes)

An *archive-mode* body (the normal case, written through the
``encode_archive`` seam) is::

    names   varint count, then count x string   -- interned name table
    root    intervals                           -- the root timestamp
    tree    varint count, then count x node record

where ``string`` is ``varint length + UTF-8 bytes`` and ``intervals`` is
``varint count`` then per interval ``varint start, varint (end - start)``.
A node record is ``tag id, flag byte (timestamp/weave/alternatives),
key components, attributes, the flagged sections, then children`` —
depth-first, in stored (already key-sorted) order.  Frontier content
(:class:`~repro.xmltree.model.Element`/``Text``) nests as typed records
with attributes kept in *element* order, so re-emission is byte-identical.

A *text-mode* body is a plain UTF-8 document blob — the fallback for
``encode_document`` callers that hold only text (no key spec to build
nodes from); ``decode_document`` handles both modes transparently.

Corruption never escapes untyped: a flipped bit fails the crc, a
truncation fails the varint/length accounting, and both raise
:class:`~repro.storage.codec.CodecError` (registered callers translate
that into the exit-2 taxonomy).
"""

from __future__ import annotations

import zlib
from typing import Optional

from ..core.archive import (
    ROOT_TAG,
    STORAGE_ALTERNATIVES,
    STORAGE_ATTR,
    STORAGE_WEAVE,
    T_ATTR,
    T_TAG,
    Archive,
    ArchiveOptions,
)
from ..core.nodes import Alternative, ArchiveNode, Weave, WeaveSegment
from ..core.versionset import VersionSet
from ..keys.annotate import KeyLabel
from ..keys.spec import KeySpec
from ..xmltree.model import Element, Text

#: Leading bytes of every xbin container (version 1, reserved zero byte).
XBIN_MAGIC = b"XB\x01\x00"

_FLAG_COMPACTION = 0x01
_FLAG_TEXT = 0x02

_NODE_HAS_TIMESTAMP = 0x01
_NODE_HAS_WEAVE = 0x02
_NODE_HAS_ALTERNATIVES = 0x04

_ALT_HAS_TIMESTAMP = 0x01

_CONTENT_TEXT = 0
_CONTENT_ELEMENT = 1


class _Corrupt(Exception):
    """Internal decode failure; surfaces as a typed CodecError."""


def _codec_error(message: str):
    from .codec import CodecError  # local: codec.py imports this module

    return CodecError(message)


# -- primitive encoding -------------------------------------------------------


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError(f"xbin varints are unsigned (got {value})")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _write_str(out: bytearray, text: str) -> None:
    data = text.encode("utf-8")
    _write_varint(out, len(data))
    out.extend(data)


def _write_intervals(out: bytearray, timestamp: VersionSet) -> None:
    intervals = timestamp.intervals()
    _write_varint(out, len(intervals))
    for start, end in intervals:
        _write_varint(out, start)
        _write_varint(out, end - start)


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    """Bounds-checked varint at ``pos``: ``(value, position after it)``."""
    result = 0
    shift = 0
    size = len(data)
    while True:
        if pos >= size:
            raise _Corrupt("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise _Corrupt("varint overflow")


# -- name interning -----------------------------------------------------------


class _Names:
    """Write-side interning of tag / attribute / key-path names."""

    __slots__ = ("ids", "ordered")

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.ordered: list[str] = []

    def intern(self, name: str) -> int:
        found = self.ids.get(name)
        if found is not None:
            return found
        index = len(self.ordered)
        self.ids[name] = index
        self.ordered.append(name)
        return index

    def to_bytes(self) -> bytearray:
        out = bytearray()
        _write_varint(out, len(self.ordered))
        for name in self.ordered:
            _write_str(out, name)
        return out


# -- the archive-node records -------------------------------------------------


def _write_content(out: bytearray, names: _Names, item) -> None:
    if isinstance(item, Text):
        out.append(_CONTENT_TEXT)
        _write_str(out, item.text)
        return
    out.append(_CONTENT_ELEMENT)
    _write_varint(out, names.intern(item.tag))
    # Element attributes keep *element* order (the model's order, which
    # serialization preserves) — unlike archive-node attributes, which
    # the archiver stores sorted.
    _write_varint(out, len(item.attributes))
    for attr in item.attributes:
        _write_varint(out, names.intern(attr.name))
        _write_str(out, attr.value)
    _write_varint(out, len(item.children))
    for child in item.children:
        _write_content(out, names, child)


def _write_node(out: bytearray, names: _Names, node: ArchiveNode) -> None:
    _write_varint(out, names.intern(node.label.tag))
    flags = 0
    if node.timestamp is not None:
        flags |= _NODE_HAS_TIMESTAMP
    if node.weave is not None:
        flags |= _NODE_HAS_WEAVE
    if node.alternatives is not None:
        flags |= _NODE_HAS_ALTERNATIVES
    out.append(flags)
    _write_varint(out, len(node.label.key))
    for path, value in node.label.key:
        _write_varint(out, names.intern(path))
        _write_str(out, value)
    _write_varint(out, len(node.attributes))
    for name, value in node.attributes:
        _write_varint(out, names.intern(name))
        _write_str(out, value)
    if node.timestamp is not None:
        _write_intervals(out, node.timestamp)
    if node.weave is not None:
        _write_varint(out, len(node.weave.segments))
        for segment in node.weave.segments:
            _write_intervals(out, segment.timestamp)
            _write_varint(out, len(segment.lines))
            for line in segment.lines:
                _write_str(out, line)
    if node.alternatives is not None:
        _write_varint(out, len(node.alternatives))
        for alternative in node.alternatives:
            out.append(
                _ALT_HAS_TIMESTAMP if alternative.timestamp is not None else 0
            )
            if alternative.timestamp is not None:
                _write_intervals(out, alternative.timestamp)
            _write_varint(out, len(alternative.content))
            for item in alternative.content:
                _write_content(out, names, item)
    _write_varint(out, len(node.children))
    for child in node.children:
        _write_node(out, names, child)


def _read_tree(data: bytes) -> tuple[VersionSet, list[ArchiveNode]]:
    """Decode an archive-mode body: ``(root timestamp, top-level nodes)``.

    The hot loop of every cold read, so the cursor, the body and the
    name table live in one closure's variables and a varint's common
    single-byte form is read inline.  Reading past the end is an
    ``IndexError`` from the body itself (or a failed length check where
    a slice would silently shorten); the caller types it with every
    other malformation.
    """
    size = len(data)
    pos = 0

    def varint() -> int:
        nonlocal pos
        value = data[pos]
        pos += 1
        if value & 0x80:
            value, pos = _read_varint(data, pos - 1)
        return value

    def string() -> str:
        nonlocal pos
        length = varint()
        end = pos + length
        if end > size:
            raise _Corrupt("truncated string")
        text = data[pos:end].decode("utf-8")
        pos = end
        return text

    def name() -> str:
        index = varint()
        if index >= name_count:
            raise _Corrupt(f"name id {index} beyond the interned table")
        return names[index]

    def intervals() -> VersionSet:
        pairs = []
        for _ in range(varint()):
            start = varint()
            pairs.append((start, start + varint()))
        return VersionSet.from_intervals(pairs)

    def content():
        kind = varint()
        if kind == _CONTENT_TEXT:
            text = string()
            if not text:
                raise _Corrupt("empty text record")
            return Text(text)
        if kind != _CONTENT_ELEMENT:
            raise _Corrupt(f"unknown content record type {kind}")
        element = Element(name())
        for _ in range(varint()):
            element.set_attribute(name(), string())
        for _ in range(varint()):
            element.append(content())
        return element

    def named_values() -> tuple:
        # Key components or attributes; most nodes have none of one.
        count = varint()
        return tuple([(name(), string()) for _ in range(count)]) if count else ()

    def node() -> ArchiveNode:
        tag = name()
        flags = varint()
        key = named_values()
        attributes = named_values()
        timestamp = intervals() if flags & _NODE_HAS_TIMESTAMP else None
        weave = None
        if flags & _NODE_HAS_WEAVE:
            weave = Weave(
                segments=[
                    WeaveSegment(
                        timestamp=intervals(),
                        lines=[string() for _ in range(varint())],
                    )
                    for _ in range(varint())
                ]
            )
        alternatives = None
        if flags & _NODE_HAS_ALTERNATIVES:
            alternatives = [
                Alternative(
                    timestamp=(
                        intervals() if varint() & _ALT_HAS_TIMESTAMP else None
                    ),
                    content=[content() for _ in range(varint())],
                )
                for _ in range(varint())
            ]
        count = varint()
        return ArchiveNode(
            label=KeyLabel(tag=tag, key=key),
            timestamp=timestamp,
            attributes=attributes,
            children=[node() for _ in range(count)] if count else [],
            alternatives=alternatives,
            weave=weave,
        )

    names = [string() for _ in range(varint())]
    name_count = len(names)
    root_timestamp = intervals()
    children = [node() for _ in range(varint())]
    if pos != size:
        raise _Corrupt(f"{size - pos} unread byte(s) after the node tree")
    return root_timestamp, children


# -- the container ------------------------------------------------------------


def _pack(body: bytes, flags: int) -> bytes:
    compressed = zlib.compress(body, 6)
    out = bytearray(XBIN_MAGIC)
    crc = zlib.crc32(bytes([flags]) + compressed)
    _write_varint(out, crc)
    out.append(flags)
    _write_varint(out, len(compressed))
    out.extend(compressed)
    return bytes(out)


def _unpack(data: bytes) -> tuple[int, bytes]:
    """Validate the container; return ``(flags, decompressed body)``."""
    if not data.startswith(XBIN_MAGIC):
        raise _codec_error("Not an xbin container (bad magic)")
    try:
        crc, pos = _read_varint(data, len(XBIN_MAGIC))
        if pos >= len(data):
            raise _Corrupt("truncated header")
        flags = data[pos]
        length, pos = _read_varint(data, pos + 1)
        end = pos + length
        if end > len(data):
            raise _Corrupt(
                f"body declares {length} bytes but only "
                f"{len(data) - pos} are present"
            )
        if end != len(data):
            raise _Corrupt(f"{len(data) - end} trailing byte(s) after the body")
        compressed = data[pos:end]
        if zlib.crc32(bytes([flags]) + compressed) != crc:
            raise _Corrupt("crc mismatch (flipped bits)")
        try:
            body = zlib.decompress(compressed)
        except zlib.error as error:
            raise _Corrupt(f"body does not inflate: {error}")
    except _Corrupt as error:
        raise _codec_error(f"Corrupt xbin container: {error}")
    return flags, body


def encode_text_blob(text: str) -> bytes:
    """Encode an opaque document string (text mode — no node records)."""
    return _pack(text.encode("utf-8"), _FLAG_TEXT)


def encode_archive(archive: Archive) -> bytes:
    """Serialize an in-memory archive straight from its node tree."""
    names = _Names()
    records = bytearray()
    root_timestamp = archive.root.timestamp
    _write_intervals(
        records, root_timestamp if root_timestamp is not None else VersionSet()
    )
    _write_varint(records, len(archive.root.children))
    for child in archive.root.children:
        _write_node(records, names, child)
    body = names.to_bytes()
    body.extend(records)
    flags = _FLAG_COMPACTION if archive.options.compaction else 0
    return _pack(bytes(body), flags)


def _decode_tree(body: bytes) -> tuple[VersionSet, list[ArchiveNode]]:
    try:
        return _read_tree(body)
    except _Corrupt as error:
        raise _codec_error(f"Corrupt xbin container: {error}")
    except IndexError:
        raise _codec_error("Corrupt xbin container: truncated record")
    except (ValueError, OverflowError, RecursionError) as error:
        # Model invariants (valid UTF-8, non-empty names, valid version
        # ranges, sane nesting) reject a crafted or damaged body as a
        # typed error.
        raise _codec_error(f"Corrupt xbin container: {error}")


def decode_archive(
    data: bytes, spec: KeySpec, options: Optional[ArchiveOptions] = None
) -> Archive:
    """Rebuild an :class:`Archive` by direct record decoding (no parse).

    The container's own compaction flag decides the frontier storage
    form, exactly like the ``storage=`` marker does for the XML path;
    ``options`` supplies the remaining switches.  Children re-sort under
    the effective options' order so a fingerprinting reader sees the
    same tree :meth:`Archive.from_xml_string` would build.
    """
    flags, body = _unpack(data)
    if flags & _FLAG_TEXT:
        return Archive.from_xml_string(
            body.decode("utf-8"), spec, options
        )
    archive = Archive(spec, options)
    compaction = bool(flags & _FLAG_COMPACTION)
    if compaction != archive.options.compaction:
        archive.options = ArchiveOptions(
            fingerprinter=archive.options.fingerprinter,
            compaction=compaction,
        )
    root_timestamp, children = _decode_tree(body)
    archive.root.timestamp = root_timestamp
    archive.root.children = children
    token = archive.options.merge_options().sort_token()
    _sort_children(archive.root, token)
    return archive


def _sort_children(node: ArchiveNode, token) -> None:
    children = node.children
    if len(children) > 1:
        children.sort(key=lambda child: token(child.label))
    for child in children:
        if child.children:
            _sort_children(child, token)


def decode_document_text(data: bytes) -> str:
    """The Fig. 5 XML text of a container, whatever its mode.

    Archive-mode bodies re-emit through the same serialization rules as
    :meth:`Archive.to_xml_string`, so a round-trip of backend-written
    payloads is byte-identical — which is what lets ``fsck --deep``,
    recode verification and the stats paths treat xbin like any other
    document codec.
    """
    from ..xmltree.serializer import to_pretty_string

    flags, body = _unpack(data)
    if flags & _FLAG_TEXT:
        try:
            return body.decode("utf-8")
        except UnicodeDecodeError as error:
            raise _codec_error(f"Corrupt xbin container: {error}")
    root_timestamp, children = _decode_tree(body)
    wrapper = Element(T_TAG)
    wrapper.set_attribute(T_ATTR, root_timestamp.to_text())
    wrapper.set_attribute(
        STORAGE_ATTR,
        STORAGE_WEAVE if flags & _FLAG_COMPACTION else STORAGE_ALTERNATIVES,
    )
    root_element = wrapper.append(Element(ROOT_TAG))
    try:
        for child in children:
            _emit_node(child, root_element)
    except ValueError as error:
        raise _codec_error(f"Corrupt xbin container: {error}")
    return to_pretty_string(wrapper)


def _emit_node(node: ArchiveNode, parent: Element) -> None:
    """Mirror of :meth:`Archive._emit` — kept in lockstep so xbin text
    output is byte-identical to what the XML-writing codecs store."""
    element = Element(node.label.tag)
    for name, value in node.attributes:
        element.set_attribute(name, value)
    if node.timestamp is not None:
        wrapper = Element(T_TAG)
        wrapper.set_attribute(T_ATTR, node.timestamp.to_text())
        wrapper.append(element)
        parent.append(wrapper)
    else:
        parent.append(element)
    if node.weave is not None:
        for segment in node.weave.segments:
            t_node = Element(T_TAG)
            t_node.set_attribute(T_ATTR, segment.timestamp.to_text())
            t_node.append(Text("\n".join(segment.lines)))
            element.append(t_node)
        return
    if node.alternatives is not None:
        if len(node.alternatives) == 1 and node.alternatives[0].timestamp is None:
            for content in node.alternatives[0].content:
                element.append(content.copy())
        else:
            for alternative in node.alternatives:
                if alternative.timestamp is None:
                    raise ValueError(
                        "multi-alternative frontier with an untimestamped "
                        "alternative"
                    )
                t_node = Element(T_TAG)
                t_node.set_attribute(T_ATTR, alternative.timestamp.to_text())
                for content in alternative.content:
                    t_node.append(content.copy())
                element.append(t_node)
        return
    for child in node.children:
        _emit_node(child, element)
