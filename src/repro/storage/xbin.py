"""The ``xbin`` binary archive-node container: load chunks without parsing.

Every other codec stores an archive chunk as (possibly compressed) Fig. 5
XML *text*, so each read pays tokenizing, tree building, key re-parsing
and timestamp re-parsing before a single node is usable.  ``xbin``
serializes the :class:`~repro.core.nodes.ArchiveNode` tree itself:
magic-headed, length-prefixed records with interned tag/attribute/key-path
names and :class:`~repro.core.versionset.VersionSet` timestamps stored as
``(start, end)`` interval lists — exactly the in-memory encoding — so a
chunk loads by direct record decoding, no XML parse at all, and a read
decodes only the records it touches.

Container layout (all integers are LEB128 varints)::

    magic   b"XB" + version byte + b"\\x00"  -- written: version 2
    crc     varint  -- crc32 over (flags byte + compressed body)
    flags   1 byte  -- bit0: weave compaction, bit1: opaque-text mode
    length  varint  -- compressed body size in bytes
    body    <length> bytes of zlib-compressed records (no trailing bytes)

An *archive-mode* body (the normal case, written through the
``encode_archive`` seam) is::

    names   varint count, then count x string   -- interned name table
    root    intervals                           -- the root timestamp
    tree    children block

where ``string`` is ``varint length + UTF-8 bytes``, ``intervals`` is
``varint count`` then per interval ``varint start, varint (end - start)``
and a *children block* is ``varint count, then count x node record`` —
depth-first, in stored (already key-sorted) order.  A node record is
``tag id, flag byte, key components, attributes, the flagged sections
(timestamp, weave, alternatives), then the node's children block``; flag
bit 3 (*children framed*, version 2 only) says the block's byte length,
a varint, is written before it.  Frontier content
(:class:`~repro.xmltree.model.Element`/``Text``) nests as typed records
with attributes kept in *element* order, so re-emission is byte-identical.

The frame is what lets a reader skip: the decoder builds a framed node's
head (label, key, attributes, timestamp, frontier content), steps over
the block, and decodes it the first time the node's ``children`` are
read (:class:`_DecodedNode`).  A keyed select therefore decodes the
record heads of one chunk and the one record it returns; a history reads
a timestamp off a head and decodes no record at all.  Blocks shorter
than :data:`FRAME_MIN_BYTES` are not framed and decode with their
parent.  Version 1 containers (``XB\\x01\\x00``, written before the flag
existed) never carry it, so the same decoder reads them whole.

So a block is read in one of three ways, all by the one reader closure
of :func:`_read_tree`: with its parent (unframed, or version 1); on the
first read of ``children``, into archive nodes that stay; or *at a
version* (:meth:`_DecodedNode.children_at`), straight into the elements
(:class:`~repro.xmltree.model.Element`) of the children alive then —
timestamps tested as they are read, dead nodes' frames and content
stepped over by their lengths, nothing kept and the node left pending
(the first ``retrieve`` of a decoded tree: one read never builds it).
Both readers make the same checks on every byte they read — name ids
in the table, flag bits known, version numbers positive, string and
frame bounds, content types, non-empty text, UTF-8 — and build through
trusted constructors (``Element.assemble``, ``Text.assemble``); the
names themselves are checked non-empty once, as the table is read.  The
streamed pass never enters a dead node's frame nor decodes a string it
does not return; the full walk (``fsck --deep``, ``recode``) checks all.

On the write side a block can be a fourth thing: *kept*.  A tree a
writer holds between appends (``Archive.kept`` is a dict, not ``None``)
remembers the bytes of every framed block the encoder wrote for it,
beside the name table the block was written against and the names it
added.  Nested Merge drops a node's entry in the call that changes
anything beneath the node (:func:`repro.core.merge.nested_merge`), so
the next encode writes the heads again and copies every block still
kept — provided the table stands where it stood — interning the block's
names in the order the block introduced them.  The output is byte for
byte what the full walk writes, and the full walk is the only path for
a tree that keeps nothing.

A *text-mode* body is a plain UTF-8 document blob — the fallback for
``encode_document`` callers that hold only text (no key spec to build
nodes from); ``decode_document`` handles both modes transparently.

Corruption never escapes untyped: a flipped bit fails the crc, a
truncation fails the varint/length accounting, a children block that
does not end where its frame says fails on the read that first touches
it, and all raise :class:`~repro.storage.codec.CodecError` (registered
callers translate that into the exit-2 taxonomy).
"""

from __future__ import annotations

import threading
import zlib
from typing import Callable, Optional

from ..core.archive import Archive, ArchiveOptions, archive_xml
from ..core.compaction import lines_to_content
from ..core.nodes import Alternative, ArchiveNode, Weave, WeaveSegment
from ..core.tstree import TREE_MIN_CHILDREN, ProbeCount
from ..core.versionset import VersionSet
from ..keys.annotate import KeyLabel
from ..keys.spec import KeySpec
from ..xmltree.model import Element, Text

#: Leading bytes of every container this module writes (version 2,
#: reserved zero byte).
XBIN_MAGIC = b"XB\x02\x00"
#: Version 1: no framed children blocks.  Read, never written.
_MAGIC_V1 = b"XB\x01\x00"

#: Shortest children block (count + child records, in bytes) that gets a
#: frame.  Measured on the e2e store (seed 3: eight chunk bodies, 98 KB,
#: 2,640 nodes): decoding costs ~0.13 us per body byte, and a node left
#: pending costs ~1 us more than an eager one once it is touched (423
#: frames: 12.5 -> 13.0 ms to decode and walk everything), plus one or
#: two length bytes on disk.  A frame therefore pays when more than one
#: read in (1 + 0.13 x length) skips its block — one in 7 at 48 bytes —
#: and never when block and parent are always read together.  48 falls
#: between the two kinds of block OMIM has: those a query leaves behind
#: — a chunk's record list (9-18 KB), a record (0.7-1.2 KB), a
#: ``Contributors`` entry or a ``Creation_Date`` (65-90 B), which the
#: keyed select, the history and the dense select skip — and the three
#: one-field children of a ``Date`` (37 B), read whenever the entry
#: above them is.
FRAME_MIN_BYTES = 48

_FLAG_COMPACTION = 0x01
_FLAG_TEXT = 0x02

_NODE_HAS_TIMESTAMP = 0x01
_NODE_HAS_WEAVE = 0x02
_NODE_HAS_ALTERNATIVES = 0x04
_NODE_CHILDREN_FRAMED = 0x08
_NODE_FLAGS = 0x0F  # every bit a node's flag byte may set

_ALT_HAS_TIMESTAMP = 0x01

_CONTENT_TEXT = 0
_CONTENT_ELEMENT = 1


class _Corrupt(Exception):
    """Internal decode failure; surfaces as a typed CodecError."""


def _codec_error(message: str):
    from .codec import CodecError  # local: codec.py imports this module

    return CodecError(message)


#: What a malformed body raises from the record decoder: its own
#: checks, reads past the end, and the model's invariants (valid UTF-8,
#: non-empty names, valid version ranges, sane nesting).
_MALFORMED = (_Corrupt, IndexError, ValueError, OverflowError, RecursionError)


def _typed_error(error: BaseException):
    detail = "truncated record" if isinstance(error, IndexError) else error
    return _codec_error(f"Corrupt xbin container: {detail}")


def _typed(read: Callable, *args):
    """Run one decoding step; every malformation leaves as a CodecError."""
    try:
        return read(*args)
    except _MALFORMED as error:
        raise _typed_error(error)


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


# -- the archive-node records -------------------------------------------------


class _NameIds(dict):
    """Write-side interning of tag / attribute / key-path names: a
    name's id is its insertion rank, so the table is ``list(self)``."""

    def __missing__(self, name: str) -> int:
        index = self[name] = len(self)
        return index


def _write_tree(archive: Archive) -> bytes:
    """Encode an archive-mode body.

    The hot loop of every append, so the output, the name table and the
    primitives live in one closure's variables and a varint's common
    single-byte form is appended inline.  A children block is framed in
    place: written first, its length inserted before it once known.

    With ``archive.kept`` a dict, a framed block is copied from it when
    the node has an entry written against the name table as it stands,
    and recorded in it — ``id(node) -> (node, block bytes, table then,
    names the block added)`` — when it had to be written.  The node
    rides along so its id is not reused while the entry lives.
    """
    out = bytearray()
    append = out.append
    extend = out.extend
    ids = _NameIds()
    kept = archive.kept
    table: tuple = ()

    def names() -> tuple:
        """The name table so far; a new tuple only once it has grown, so
        blocks written against one state share one."""
        nonlocal table
        if len(table) != len(ids):
            table = tuple(ids)
        return table

    def varint(value: int) -> None:
        # ``append`` rejects a negative value as ``_write_varint`` does.
        if value < 0x80:
            append(value)
        else:
            _write_varint(out, value)

    def string(text: str) -> None:
        data = text.encode("utf-8")
        varint(len(data))
        extend(data)

    def named_values(pairs) -> None:
        varint(len(pairs))
        for name, value in pairs:
            varint(ids[name])
            string(value)

    def intervals(timestamp: VersionSet) -> None:
        pairs = timestamp.intervals()
        varint(len(pairs))
        for start, end in pairs:
            varint(start)
            varint(end - start)

    def content(item) -> None:
        if isinstance(item, Text):
            append(_CONTENT_TEXT)
            string(item.text)
            return
        append(_CONTENT_ELEMENT)
        varint(ids[item.tag])
        # Element attributes keep *element* order (the model's order, which
        # serialization preserves) — unlike archive-node attributes, which
        # the archiver stores sorted.
        varint(len(item.attributes))
        for attr in item.attributes:
            varint(ids[attr.name])
            string(attr.value)
        varint(len(item.children))
        for child in item.children:
            content(child)

    def node(item: ArchiveNode) -> None:
        label = item.label
        timestamp = item.timestamp
        weave = item.weave
        alternatives = item.alternatives
        varint(ids[label.tag])
        flag_at = len(out)
        append(
            (_NODE_HAS_TIMESTAMP if timestamp is not None else 0)
            | (_NODE_HAS_WEAVE if weave is not None else 0)
            | (_NODE_HAS_ALTERNATIVES if alternatives is not None else 0)
        )
        # Most nodes have no key, no attributes or no children: a zero
        # count, written without the call.
        if label.key:
            named_values(label.key)
        else:
            append(0)
        if item.attributes:
            named_values(item.attributes)
        else:
            append(0)
        if timestamp is not None:
            intervals(timestamp)
        if weave is not None:
            varint(len(weave.segments))
            for segment in weave.segments:
                intervals(segment.timestamp)
                varint(len(segment.lines))
                for line in segment.lines:
                    string(line)
        if alternatives is not None:
            varint(len(alternatives))
            for alternative in alternatives:
                if alternative.timestamp is not None:
                    append(_ALT_HAS_TIMESTAMP)
                    intervals(alternative.timestamp)
                else:
                    append(0)
                varint(len(alternative.content))
                for piece in alternative.content:
                    content(piece)
        if not item.children:
            append(0)
            return
        if kept is not None:
            against = names()
            entry = kept.get(id(item))
            if entry is not None and entry[2] == against:
                _, block, _, added = entry
                out[flag_at] |= _NODE_CHILDREN_FRAMED
                varint(len(block))
                extend(block)
                for name in added:
                    ids[name]
                return
        start = len(out)
        children(item.children)
        length = len(out) - start
        if length >= FRAME_MIN_BYTES:
            if kept is not None:
                kept[id(item)] = (
                    item,
                    bytes(out[start:]),
                    against,
                    names()[len(against) :],
                )
            out[flag_at] |= _NODE_CHILDREN_FRAMED
            if length < 0x80:
                out.insert(start, length)
            else:
                frame = bytearray()
                _write_varint(frame, length)
                out[start:start] = frame

    def children(nodes: list) -> None:
        varint(len(nodes))
        for child in nodes:
            node(child)

    root_timestamp = archive.root.timestamp
    intervals(root_timestamp if root_timestamp is not None else VersionSet())
    children(archive.root.children)
    body = bytearray()
    _write_varint(body, len(ids))
    for name in ids:
        encoded = name.encode("utf-8")
        _write_varint(body, len(encoded))
        body += encoded
    body += out
    return bytes(body)


class _FirstTouch:
    """``children`` of a decoded node that has none of its own yet.

    A non-data descriptor: an instance's own ``children`` is found
    before it, so it runs once per framed node — decoding the node's
    children block under the chunk's lock (decoded chunks are shared
    between threads through the chunk cache) and giving the instance
    the list — and never for a node decoded whole.
    """

    def __get__(self, node, owner=None):
        if node is None:
            return self
        block = node._block
        if block is not None:  # else another thread got here first
            lock, read, _read_at, start, end = block
            with lock:
                if node._block is not None:
                    try:
                        node.children = read(start, end)
                    except _MALFORMED as error:
                        raise _typed_error(error)
                    node._block = None  # lets go of the chunk body
        return node.children


class _DecodedNode(ArchiveNode):
    """Every node this module decodes, pending or not.

    A *pending* node has its head and ``_block`` — ``(chunk lock,
    block reader, version-directed block reader, start, end)``, where
    its children block lies — and no ``children`` until they are first
    read (:class:`_FirstTouch`); :meth:`children_at` reads the block
    without settling the node.
    From then on it is an ``ArchiveNode`` like any other to ``core/``
    and ``query/``: same object, same fields.

    One class for all of them, and no change of class on first touch:
    CPython specialises attribute reads per class and instance layout,
    so a tree of one kind of node reads as fast as one built by
    ``ArchiveNode(...)``, while a tree mixing two kinds — or holding
    nodes whose ``__class__`` was assigned, which un-inlines their
    attributes — was measured 1.5-3x slower at every site that meets
    both (7 % on a warm ``retrieve``).  What a node of this class keeps
    paying is the unspecialised lookup of ``children`` itself (~10 ns);
    a ``__getattr__`` in the descriptor's place un-specialises every
    attribute of the class (60 -> 140 ns per node visited).

    What a pending node holds on to: ``_block``'s readers are the
    chunk's decode closure, so the chunk's whole decompressed body
    (about three times its file) stays in memory until the *last*
    framed node of that chunk has been touched — and a first
    ``retrieve`` touches none.  :func:`decode_archive` records the
    body's size on the tree (``Archive.body_bytes``) and whoever keeps
    the tree — the chunk cache, a writer between appends — budgets it
    beside the at-rest bytes; ``fsck --deep``, ``recode`` or any full
    walk releases the body itself.
    """

    children = _FirstTouch()
    _block = None  # what every node but a pending one sees

    def __init__(self, label, timestamp, attributes, alternatives, weave):
        self.label = label
        self.timestamp = timestamp
        self.attributes = attributes
        self.alternatives = alternatives
        self.weave = weave

    def children_at(
        self, version: int, probes: Optional[ProbeCount] = None
    ) -> Optional[list[Element]]:
        """A pending node's children block read straight into the
        elements alive at ``version`` — under the chunk's lock, like a
        first touch, but building no node: the node stays pending."""
        block = self._block
        if block is None:
            return None
        lock, _read, read_at, start, end = block
        with lock:
            try:
                return read_at(start, end, version, probes)
            except _MALFORMED as error:
                raise _typed_error(error)

    def __eq__(self, other):
        # The dataclass's field-wise equality, across the two classes: a
        # decoded node equals the ``ArchiveNode`` it pickles or copies as.
        if not isinstance(other, ArchiveNode):
            return NotImplemented
        return _fields(self) == _fields(other)

    def __reduce_ex__(self, protocol):
        # Pickles and copies as the plain, settled node it stands for.
        return ArchiveNode, _fields(self)


def _fields(node: ArchiveNode) -> tuple:
    """``ArchiveNode``'s fields in declaration order (reading
    ``children`` settles a pending node)."""
    return (
        node.label,
        node.timestamp,
        node.attributes,
        node.children,
        node.alternatives,
        node.weave,
    )


def _read_tree(
    data: bytes, version: int, token: Optional[Callable]
) -> tuple[VersionSet, list[ArchiveNode]]:
    """Decode an archive-mode body: ``(root timestamp, top-level nodes)``.

    The hot loop of every cold read, so the cursor, the body and the
    name table live in one closure's variables, and the common forms — a
    single-byte varint, a one-interval timestamp, a content list of one
    short text — are read inline before the general path.  Reading past
    the end is an ``IndexError`` from the body itself (or a failed length
    check where a slice would silently shorten); the caller types it with
    every other malformation.

    Framed children blocks are stepped over and left to the node
    holding them, whose first ``children`` read calls back into this
    closure's ``block`` — under ``lock``, because the cursor is shared.
    Every child list sorts by ``token`` as it is built (``None``: stored
    order).
    """
    size = len(data)
    pos = 0
    lock = threading.Lock()
    assemble = Element.assemble
    text_node = Text.assemble
    adopt = VersionSet._from_normalized
    #: One label for every keyless node of a tag (labels are frozen).
    keyless: dict[str, KeyLabel] = {}
    native = token is KeyLabel.sort_token  # (tag, len(key), key), no label

    def varint() -> int:
        nonlocal pos
        value = data[pos]
        pos += 1
        if value & 0x80:
            value, pos = _read_varint(data, pos - 1)
        return value

    def string() -> str:
        nonlocal pos
        length = data[pos]
        pos += 1
        if length & 0x80:
            length, pos = _read_varint(data, pos - 1)
        end = pos + length
        if end > size:
            raise _Corrupt("truncated string")
        text = data[pos:end].decode("utf-8")
        pos = end
        return text

    def name() -> str:
        nonlocal pos
        index = data[pos]
        pos += 1
        if index & 0x80:
            index, pos = _read_varint(data, pos - 1)
        if index >= name_count:
            raise _Corrupt(f"name id {index} beyond the interned table")
        return names[index]

    def flag(known: int) -> int:
        """A flag byte, which may set no bit but ``known``'s."""
        nonlocal pos
        value = data[pos]
        pos += 1
        if value & ~known:
            raise _Corrupt(f"unknown flag bits in {value:#04x}")
        return value

    def intervals() -> VersionSet:
        nonlocal pos
        if data[pos] == 1 and data[pos + 1] | data[pos + 2] < 0x80:
            start = data[pos + 1]
            if not start:
                raise _Corrupt("Version numbers are positive, got 0")
            pos += 3
            return adopt([[start, start + data[pos - 1]]])
        pairs = []
        for _ in range(varint()):
            start = varint()
            pairs.append((start, start + varint()))
        return VersionSet.from_intervals(pairs)

    def pieces() -> list:
        """A content list; one text of a single-byte length read inline."""
        nonlocal pos
        if data[pos] == 1 and not data[pos + 1] and 0 < data[pos + 2] < 0x80:
            end = pos + 3 + data[pos + 2]
            if end > size:
                raise _Corrupt("truncated string")
            text = data[pos + 3 : end].decode("utf-8")
            pos = end
            return [text_node(text)]
        return [content() for _ in range(varint())]

    def content():
        nonlocal pos
        kind = data[pos]
        pos += 1
        if kind == _CONTENT_TEXT:
            text = string()
            if not text:
                raise _Corrupt("empty text record")
            return text_node(text)
        if kind != _CONTENT_ELEMENT:
            raise _Corrupt(f"unknown content record type {kind}")
        return assemble(name(), named_values(), [content() for _ in range(varint())])

    def named_values() -> tuple:
        # Key components or attributes; most nodes have none of one.
        count = varint()
        return tuple([(name(), string()) for _ in range(count)]) if count else ()

    def node() -> ArchiveNode:
        nonlocal pos
        tag = name()
        flags = flag(_NODE_FLAGS)
        if data[pos]:
            label = KeyLabel(tag=tag, key=named_values())
        else:
            pos += 1
            label = keyless.get(tag) or keyless.setdefault(tag, KeyLabel(tag, ()))
        if data[pos]:
            attributes = named_values()
        else:
            pos += 1
            attributes = ()
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
                        intervals() if flag(_ALT_HAS_TIMESTAMP) else None
                    ),
                    content=pieces(),
                )
                for _ in range(varint())
            ]
        decoded = _DecodedNode(label, timestamp, attributes, alternatives, weave)
        if flags & _NODE_CHILDREN_FRAMED:
            if version < 2:
                raise _Corrupt("framed children block in a version 1 container")
            length = varint()
            start = pos
            pos = start + length
            if pos > size:
                raise _Corrupt("children block runs past the body")
            decoded._block = (lock, block, block_at, start, pos)
        elif data[pos]:
            decoded.children = children()
        else:  # no children (every frontier node): a zero count
            pos += 1
            decoded.children = []
        return decoded

    def children() -> list[ArchiveNode]:
        count = varint()
        nodes = [node() for _ in range(count)]
        if count > 1 and token is not None:
            nodes.sort(key=sort_key)
        return nodes

    def sort_key(child: ArchiveNode):
        return token(child.label)

    def framed(start: int, end: int, read: Callable, *args) -> list:
        """What ``read`` makes of the children block at ``start``, which
        must end where its frame said."""
        nonlocal pos
        pos = start
        found = read(*args)
        if pos != end:
            raise _Corrupt(
                f"children block of {end - start} byte(s) ends at byte "
                f"{pos - start}"
            )
        return found

    def block(start: int, end: int) -> list[ArchiveNode]:
        return framed(start, end, children)

    # -- the version-directed pass: a block straight to ``Element``s ----------
    #
    # Never reached in a version 1 container: it has no framed block,
    # so no pending node to ask for one.

    def skip_string() -> None:
        nonlocal pos
        length = varint()  # moves ``pos``: never ``pos += varint()``
        pos += length
        if pos > size:
            raise _Corrupt("truncated string")

    def skip_named_values() -> None:
        for _ in range(varint()):
            name()
            skip_string()

    def holds(at: int) -> bool:
        """Whether the timestamp at the cursor holds ``at`` (0: step over)."""
        return at in intervals()

    def skip_content() -> None:
        nonlocal pos
        kind = data[pos]
        pos += 1
        if kind == _CONTENT_TEXT:
            if not data[pos]:
                raise _Corrupt("empty text record")
            skip_string()
            return
        if kind != _CONTENT_ELEMENT:
            raise _Corrupt(f"unknown content record type {kind}")
        name()
        skip_named_values()
        for _ in range(varint()):
            skip_content()

    def skip_children(flags: int) -> None:
        """Step over a children block: a framed one by its length."""
        nonlocal pos
        if flags & _NODE_CHILDREN_FRAMED:
            length = varint()
            pos += length
            if pos > size:
                raise _Corrupt("children block runs past the body")
            return
        for _ in range(varint()):
            name()
            flags = flag(_NODE_FLAGS)
            skip_named_values()
            skip_named_values()
            if flags & _NODE_HAS_TIMESTAMP:
                holds(0)
            skip_sections(flags)

    def skip_sections(flags: int) -> None:
        """Step over what follows a dead node's timestamp."""
        if flags & _NODE_HAS_WEAVE:
            for _ in range(varint()):
                holds(0)
                for _ in range(varint()):
                    skip_string()
        if flags & _NODE_HAS_ALTERNATIVES:
            for _ in range(varint()):
                if flag(_ALT_HAS_TIMESTAMP):
                    holds(0)
                for _ in range(varint()):
                    skip_content()
        skip_children(flags)

    def alive(at: int, probes) -> list[Element]:
        """A children block as the elements of the children alive at
        version ``at`` — what ``Archive._walk`` makes of the
        nodes :func:`children` would build, in the same order.

        The caller's node is alive, so a child that stores no timestamp
        is too; everything under a dead child is stepped over.
        """
        nonlocal pos
        count = varint()
        if probes is not None:
            if count < TREE_MIN_CHILDREN:
                probes.short_scans += count
            else:
                probes.fallback_scans += count
        ordered = count > 1 and token is not None
        elements = []
        tokens = []
        for _ in range(count):
            tag = name()
            flags = flag(_NODE_FLAGS)
            # Most nodes have no key and no attributes: a zero count.
            if data[pos]:
                key = named_values()
            else:
                pos += 1
                key = ()
            if data[pos]:
                attributes = named_values()
            else:
                pos += 1
                attributes = ()
            if flags & _NODE_HAS_TIMESTAMP and not holds(at):
                skip_sections(flags)
                continue
            if ordered:
                rank = (tag, len(key), key) if native else token(KeyLabel(tag, key))
                tokens.append(rank)
            found: list = []
            if flags & _NODE_HAS_WEAVE:
                lines: list[str] = []
                for _ in range(varint()):
                    if holds(at):
                        lines.extend([string() for _ in range(varint())])
                    else:
                        for _ in range(varint()):
                            skip_string()
                found = lines_to_content(lines)
            if flags & _NODE_HAS_ALTERNATIVES:
                # The first alternative current at ``at``; a weave wins.
                wanted = not flags & _NODE_HAS_WEAVE
                if wanted and data[pos] == 1 and not data[pos + 1]:
                    pos += 2  # one alternative, inheriting: the current one
                    found = pieces()
                else:
                    for _ in range(varint()):
                        current = not flag(_ALT_HAS_TIMESTAMP) or holds(at)
                        if current and wanted:
                            wanted = False
                            found = pieces()
                        else:
                            for _ in range(varint()):
                                skip_content()
            if flags & (_NODE_HAS_WEAVE | _NODE_HAS_ALTERNATIVES):
                # A frontier node's children are never read (and it
                # has none: a zero count).
                if flags & _NODE_CHILDREN_FRAMED or data[pos]:
                    skip_children(flags)
                else:
                    pos += 1
            elif flags & _NODE_CHILDREN_FRAMED:
                length = varint()
                found = block_at(pos, pos + length, at, probes)
            else:
                found = alive(at, probes)
            elements.append(assemble(tag, attributes, found))
        if ordered and len(elements) > 1:
            order = sorted(range(len(tokens)), key=tokens.__getitem__)
            elements = [elements[index] for index in order]
        return elements

    def block_at(start: int, end: int, at: int, probes) -> list[Element]:
        return framed(start, end, alive, at, probes)

    names = [string() for _ in range(varint())]
    name_count = len(names)
    if "" in names:
        raise _Corrupt("empty name in the interned table")
    root_timestamp = intervals()
    top = children()
    if pos != size:
        raise _Corrupt(f"{size - pos} unread byte(s) after the node tree")
    return root_timestamp, top


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


def _unpack(data: bytes) -> tuple[int, int, bytes]:
    """Validate the container; return ``(version, flags, decompressed
    body)``."""
    if not data.startswith((XBIN_MAGIC, _MAGIC_V1)):
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
    return data[2], flags, body


def encode_text_blob(text: str) -> bytes:
    """Encode an opaque document string (text mode — no node records)."""
    return _pack(text.encode("utf-8"), _FLAG_TEXT)


def encode_archive(archive: Archive) -> bytes:
    """Serialize an in-memory archive straight from its node tree, and
    cost the tree by the body that makes (``Archive.body_bytes``)."""
    flags = _FLAG_COMPACTION if archive.options.compaction else 0
    body = _write_tree(archive)
    archive.body_bytes = len(body)
    return _pack(body, flags)


def kept_bytes(archive: Archive) -> int:
    """What ``archive`` keeps for its holder — the blocks' bytes and the
    record memo beside them — for whoever budgets it."""
    kept = archive.kept
    if kept is None:
        return 0
    return sum(len(entry[1]) for entry in kept.values()) + kept.records_bytes()


def decode_archive(
    data: bytes, spec: KeySpec, options: Optional[ArchiveOptions] = None
) -> Archive:
    """Rebuild an :class:`Archive` by direct record decoding (no parse).

    The container's own compaction flag decides the frontier storage
    form, exactly like the ``storage=`` marker does for the XML path;
    ``options`` supplies the remaining switches.  Children sort under
    the effective options' order as each list is decoded, so a
    fingerprinting reader sees the same tree
    :meth:`Archive.from_xml_string` would build.
    """
    version, flags, body = _unpack(data)
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
    token = archive.options.merge_options().sort_token()
    archive.root.timestamp, archive.root.children = _typed(
        _read_tree, body, version, token
    )
    if version >= 2:  # framed blocks: pending nodes keep ``body`` alive
        archive.body_bytes = len(body)
    return archive


def decode_document_text(data: bytes) -> str:
    """The Fig. 5 XML text of a container, whatever its mode.

    Archive-mode bodies re-emit through the same serialization rules as
    :meth:`Archive.to_xml_string`, so a round-trip of backend-written
    payloads is byte-identical — which is what lets ``fsck --deep``,
    recode verification and the stats paths treat xbin like any other
    document codec.  The walk reads every children block, so a
    malformed one is reported here whoever else skipped it.
    """
    from ..xmltree.serializer import to_pretty_string
    from .codec import CodecError  # local: codec.py imports this module

    version, flags, body = _unpack(data)
    if flags & _FLAG_TEXT:
        return _typed(body.decode, "utf-8")
    root_timestamp, children = _typed(_read_tree, body, version, None)
    try:
        return to_pretty_string(
            archive_xml(root_timestamp, children, bool(flags & _FLAG_COMPACTION))
        )
    except CodecError:
        raise  # a children block that failed on first touch: typed already
    except (ValueError, RecursionError) as error:
        raise CodecError(f"Corrupt xbin container: {error}")
