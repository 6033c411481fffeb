"""Property-based round-trips and corruption drills for the xbin codec.

Random archived histories — including attribute-heavy, deeply nested
and non-ASCII frontier content — must survive the parse-free binary
round-trip with a byte-identical Fig. 5 re-emission, and any damaged
container (truncated, bit-flipped, or wearing another codec's framing)
must fail as a typed :class:`~repro.storage.codec.CodecError`.  Framed
children blocks are decoded on first touch: that must be invisible
(same tree, same bytes, same value semantics, from any thread) and a
malformed block must fail typed from whichever read reaches it.
"""

import copy
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Archive, ArchiveOptions, Fingerprinter
from repro.core.nodes import ArchiveNode
from repro.data.company import company_key_spec
from repro.storage import xbin
from repro.storage.codec import CodecError, get_codec
from repro.xmltree import Element, Text, to_string

_names = st.sampled_from(["ann", "bob", "cat", "dän", "ève", "面"])
_words = st.sampled_from(["10K", "20K", "ü — ₤", 'q"uo&te', "<amp>"])


@st.composite
def _content_tree(draw, depth=3):
    """Arbitrary frontier content: nested elements, attributes, text."""
    if depth == 0 or draw(st.booleans()):
        return Text(draw(_words))
    element = Element(draw(st.sampled_from(["note", "деталь", "x-y"])))
    for index in range(draw(st.integers(min_value=0, max_value=2))):
        element.set_attribute(f"a{index}", draw(_words))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        element.append(draw(_content_tree(depth=depth - 1)))
    if not element.children:
        element.append(Text(draw(_words)))
    return element


@st.composite
def _employee(draw):
    return {
        "fn": draw(_names),
        "ln": draw(_names),
        "sal": draw(st.one_of(st.none(), _content_tree())),
        "tels": sorted(draw(st.sets(_words, max_size=2))),
    }


@st.composite
def _state(draw):
    dept_names = draw(st.sets(_names, max_size=3))
    state = {}
    for name in sorted(dept_names):
        employees = draw(st.lists(_employee(), max_size=3))
        state[name] = {(emp["fn"], emp["ln"]): emp for emp in employees}
    return state


def _state_to_document(state) -> Element:
    db = Element("db")
    for dept_name, employees in state.items():
        dept = db.append(Element("dept"))
        dept.append(Element("name")).append(Text(dept_name))
        for (fn, ln), emp in employees.items():
            emp_el = dept.append(Element("emp"))
            emp_el.append(Element("fn")).append(Text(fn))
            emp_el.append(Element("ln")).append(Text(ln))
            if emp["sal"] is not None:
                emp_el.append(Element("sal")).append(emp["sal"].copy())
            for tel in emp["tels"]:
                emp_el.append(Element("tel")).append(Text(tel))
    return db


_version_sequences = st.lists(_state(), min_size=1, max_size=4)

_configurations = st.sampled_from(
    [
        ArchiveOptions(),
        ArchiveOptions(compaction=True),
        ArchiveOptions(fingerprinter=Fingerprinter(bits=64)),
        ArchiveOptions(fingerprinter=Fingerprinter(bits=64), compaction=True),
    ]
)


def _build_archive(states, options) -> Archive:
    archive = Archive(company_key_spec(), options)
    for state in states:
        archive.add_version(_state_to_document(state))
    return archive


def _fixed_archive() -> Archive:
    """A small deterministic archive for the corruption drills."""
    archive = Archive(company_key_spec())
    for salary in ("10K", "20K"):
        db = Element("db")
        dept = db.append(Element("dept"))
        dept.append(Element("name")).append(Text("r&d"))
        emp = dept.append(Element("emp"))
        emp.append(Element("fn")).append(Text("ann"))
        emp.append(Element("ln")).append(Text("ü"))
        emp.append(Element("sal")).append(Text(salary))
        archive.add_version(db)
    return archive


def _pending(node) -> bool:
    """Whether ``node``'s children block is still undecoded — asked of
    the decoder's private mark, so asking decodes nothing."""
    return getattr(node, "_block", None) is not None


def _walk(node):
    """Every node at or below ``node``; reads every children list."""
    yield node
    for child in node.children:
        yield from _walk(child)


def _shape(node):
    """A node's whole subtree as a comparable value (frontier content
    compares by its serialization: model nodes compare by identity)."""
    alternatives = node.alternatives and [
        (
            alternative.timestamp,
            [
                item.text if isinstance(item, Text) else to_string(item)
                for item in alternative.content
            ],
        )
        for alternative in node.alternatives
    ]
    return (
        node.label,
        node.timestamp,
        node.attributes,
        alternatives,
        node.weave,
        [_shape(child) for child in node.children],
    )


class TestArchiveRoundTrip:
    @given(_version_sequences, _configurations)
    @settings(max_examples=40, deadline=None)
    def test_binary_round_trip_is_identity(self, states, options):
        archive = _build_archive(states, options)
        spec = company_key_spec()
        encoded = xbin.encode_archive(archive)
        decoded = xbin.decode_archive(encoded, spec, options)
        assert decoded.to_xml_string() == archive.to_xml_string()
        # Fully touched, the lazily decoded tree is the tree that was
        # encoded — no pending node left, equal node for node — and it
        # encodes to the same bytes.
        assert _shape(decoded.root) == _shape(archive.root)
        assert not any(map(_pending, _walk(decoded.root)))
        assert xbin.encode_archive(decoded) == encoded

    @given(_version_sequences, _configurations, _configurations)
    @settings(max_examples=25, deadline=None)
    def test_children_sort_under_the_readers_order(self, states, wrote, reads):
        """A reader whose options order siblings differently (a
        fingerprinter) gets every child list — eager or decoded on
        first touch — in its own order, as the XML path builds it."""
        archive = _build_archive(states, wrote)
        spec = company_key_spec()
        decoded = xbin.decode_archive(xbin.encode_archive(archive), spec, reads)
        parsed = Archive.from_xml_string(archive.to_xml_string(), spec, reads)
        assert _shape(decoded.root) == _shape(parsed.root)

    @given(_version_sequences, _configurations)
    @settings(max_examples=25, deadline=None)
    def test_document_reemission_matches_text_codecs(self, states, options):
        """decode_document re-emits the exact Fig. 5 bytes the raw codec
        stores, so fsck --deep and recode verification treat xbin
        payloads like any other codec's."""
        archive = _build_archive(states, options)
        text = archive.to_xml_string()
        encoded = xbin.encode_archive(archive)
        assert xbin.decode_document_text(encoded) == text
        assert get_codec("xbin").decode_document(encoded) == text

    @given(st.text(max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_text_blob_round_trip(self, text):
        assert xbin.decode_document_text(xbin.encode_text_blob(text)) == text


def _wide_archive(records: int = 40) -> Archive:
    """One department of ``records`` employees: a record list, and
    records, long enough to be framed."""
    archive = Archive(company_key_spec())
    for salary in ("10K", "20K"):
        db = Element("db")
        dept = db.append(Element("dept"))
        dept.append(Element("name")).append(Text("r&d"))
        for number in range(records):
            emp = dept.append(Element("emp"))
            emp.append(Element("fn")).append(Text(f"first-{number:03d}"))
            emp.append(Element("ln")).append(Text(f"last-{number:03d}"))
            emp.append(Element("sal")).append(Text(salary))
            emp.append(Element("tel")).append(Text(f"555-{number:04d}"))
        archive.add_version(db)
    return archive


class TestChildrenOnFirstTouch:
    def test_decode_builds_heads_and_touching_settles_them(self):
        archive = _wide_archive()
        decoded = xbin.decode_archive(
            xbin.encode_archive(archive), company_key_spec()
        )
        (db,) = decoded.root.children
        assert _pending(db) and db.label.tag == "db"
        (dept,) = db.children
        assert not _pending(db) and _pending(dept)
        employees = [c for c in dept.children if c.label.tag == "emp"]
        assert len(employees) == 40 and all(map(_pending, employees))
        # A head carries what a lookup or a history needs.
        assert employees[7].label.key == (("fn", "first-007"), ("ln", "last-007"))
        assert dept.timestamp is None and decoded.root.timestamp.to_text() == "1-2"
        assert [c.label.tag for c in employees[7].children] == [
            "fn", "ln", "sal", "tel"
        ]
        assert sum(map(_pending, employees)) == 39
        assert _shape(decoded.root) == _shape(archive.root)

    def test_the_threshold_is_exact(self):
        """A children block of FRAME_MIN_BYTES - 1 bytes decodes with
        its parent; one byte more and it waits."""
        spec = company_key_spec()
        seen = {}
        for pad in range(60):
            archive = Archive(spec)
            db = Element("db")
            dept = db.append(Element("dept"))
            dept.append(Element("name")).append(Text("n" * (1 + pad)))
            archive.add_version(db)
            decoded = xbin.decode_archive(xbin.encode_archive(archive), spec)
            (db_node,) = decoded.root.children
            (dept_node,) = db_node.children
            # dept's block: count, then <name>: tag, flags, no key, no
            # attributes, one untimestamped alternative of one text.
            block = 1 + (1 + 1 + 1 + 1) + (1 + 1 + 1) + (1 + 1 + 1 + pad) + 1
            seen[block] = _pending(dept_node)
        assert seen[xbin.FRAME_MIN_BYTES - 1] is False
        assert seen[xbin.FRAME_MIN_BYTES] is True
        assert [size for size, framed in sorted(seen.items()) if framed] == [
            size for size in sorted(seen) if size >= xbin.FRAME_MIN_BYTES
        ]

    def test_a_pending_node_pickles_and_copies_as_a_settled_one(self):
        archive = _wide_archive(6)
        spec = company_key_spec()
        encoded = xbin.encode_archive(archive)
        for clone in (
            lambda node: pickle.loads(pickle.dumps(node)),
            copy.deepcopy,
            lambda node: copy.deepcopy(copy.copy(node)),
        ):
            (db,) = xbin.decode_archive(encoded, spec).root.children
            assert _pending(db)
            cloned = clone(db)
            assert all(type(node) is ArchiveNode for node in _walk(cloned))
            assert _shape(cloned) == _shape(archive.root.children[0])

    def test_a_decoded_node_equals_the_plain_node_with_its_fields(self):
        """Field-wise, as two ``ArchiveNode``s compare, whichever class
        is on the left (frontier content compares by identity, hence
        shallow copies)."""
        (db,) = xbin.decode_archive(
            xbin.encode_archive(_wide_archive(6)), company_key_spec()
        ).root.children
        plain = copy.copy(db)
        plain.children = [copy.copy(child) for child in db.children]
        assert type(plain) is type(plain.children[0]) is ArchiveNode
        assert plain == db and db == plain
        plain.children[0].attributes = (("a", "b"),)
        assert plain != db and db != plain
        assert db != "db"

    def test_threads_touching_one_tree_first_see_one_tree(self):
        """xarchd hands one cached decode to every request thread: first
        touches racing on the same blocks must settle each block once."""
        archive = _wide_archive(60)
        spec = company_key_spec()
        encoded = xbin.encode_archive(archive)
        threads = 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                decoded = xbin.decode_archive(encoded, spec)
                barrier = threading.Barrier(threads)
                seen, errors = [], []

                def reader():
                    try:
                        barrier.wait(timeout=30)
                        seen.append([id(n) for n in _walk(decoded.root)])
                    except Exception as error:  # reported by the assert below
                        errors.append(error)

                workers = [threading.Thread(target=reader) for _ in range(threads)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
                assert not any(worker.is_alive() for worker in workers)
                assert not errors
                assert len(seen) == threads
                assert all(ids == seen[0] for ids in seen)
                assert _shape(decoded.root) == _shape(archive.root)
                assert not any(map(_pending, _walk(decoded.root)))
        finally:
            sys.setswitchinterval(interval)


class TestCorruptionDrills:
    def test_every_truncation_is_detected(self):
        spec = company_key_spec()
        data = xbin.encode_archive(_fixed_archive())
        for cut in range(len(data)):
            with pytest.raises(CodecError):
                xbin.decode_archive(data[:cut], spec)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_bit_flip_is_detected(self, data):
        spec = company_key_spec()
        payload = bytearray(xbin.encode_archive(_fixed_archive()))
        position = data.draw(
            st.integers(min_value=0, max_value=len(payload) - 1)
        )
        bit = data.draw(st.integers(min_value=0, max_value=7))
        payload[position] ^= 1 << bit
        with pytest.raises(CodecError):
            xbin.decode_archive(bytes(payload), spec)

    def test_other_codecs_framing_is_rejected(self):
        spec = company_key_spec()
        text = _fixed_archive().to_xml_string()
        for name in ("raw", "gzip", "xmill"):
            with pytest.raises(CodecError):
                xbin.decode_archive(get_codec(name).encode_document(text), spec)

    def test_trailing_garbage_is_rejected(self):
        spec = company_key_spec()
        data = xbin.encode_archive(_fixed_archive())
        with pytest.raises(CodecError):
            xbin.decode_archive(data + b"\x00", spec)


# A minimal archive-mode body, record by record (see the module
# docstring of repro.storage.xbin): one frontier node <db> holding "hi".
_NAMES = b"\x02" + b"\x02db" + b"\x01x"
_ROOT = b"\x01\x01\x00"  # one interval: version 1
_DB = b"\x00"  # tag id of "db"
_FRONTIER = b"\x04\x00\x00"  # alternatives flag, no key, no attributes
_ALTERNATIVE = b"\x01\x00\x01"  # one alternative, untimestamped, one content item
_TEXT = b"\x00\x02hi"
_NO_CHILDREN = b"\x00"


def _body(*, tag=_DB, content=_TEXT, children=_NO_CHILDREN, tail=b""):
    node = tag + _FRONTIER + _ALTERNATIVE + content + children
    return _NAMES + _ROOT + b"\x01" + node + tail


# The same store with <db> as an internal node whose children block —
# one frontier child <x> holding "hi" — is framed.
_INTERNAL_FRAMED = b"\x08\x00\x00"  # children-framed flag, no key, no attributes


def _child(*, tag=b"\x01", content=_TEXT):
    return tag + _FRONTIER + _ALTERNATIVE + content + _NO_CHILDREN


_CHILD_BLOCK = b"\x01" + _child()


def _framed_body(*, block=_CHILD_BLOCK, length=None, top=b"\x01", tail=b""):
    length = len(block) if length is None else length
    node = _DB + _INTERNAL_FRAMED + bytes([length]) + block
    return _NAMES + _ROOT + top + node + tail


class TestWellFramedMalformedBodies:
    """The crc only proves the bytes are the ones that were written;
    a body that is framed correctly but malformed inside must still
    fail typed, from every check of the record decoder."""

    def test_the_hand_built_body_is_valid(self):
        archive = xbin.decode_archive(xbin._pack(_body(), 0), company_key_spec())
        (node,) = archive.root.children
        assert node.label.tag == "db"
        assert node.alternatives[0].content[0].text == "hi"

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param(_body(tag=b"\x05"), id="name-id-past-the-table"),
            pytest.param(
                _body(children=b"\xff" * 10 + b"\x01"), id="varint-overflow"
            ),
            pytest.param(
                _body(content=b"\x00\x7fhi", children=b""),
                id="string-runs-past-the-end",
            ),
            pytest.param(_body(content=b"\x00\x00"), id="empty-text-record"),
            pytest.param(_body(content=b"\x07\x02hi"), id="unknown-content-kind"),
            pytest.param(_body(content=b"\x00\x02\xff\xfe"), id="invalid-utf8"),
            pytest.param(_body(tail=b"\x00"), id="unread-trailing-bytes"),
            pytest.param(_body(children=b"\x01"), id="missing-child-record"),
        ],
    )
    def test_malformed_body_raises_codec_error(self, body):
        data = xbin._pack(body, 0)
        with pytest.raises(CodecError):
            xbin.decode_archive(data, company_key_spec())
        with pytest.raises(CodecError):
            xbin.decode_document_text(data)

    def test_every_truncation_inside_the_frame_is_detected(self):
        body = _body()
        for cut in range(len(body)):
            with pytest.raises(CodecError):
                xbin.decode_archive(
                    xbin._pack(body[:cut], 0), company_key_spec()
                )

    # -- framed children blocks: the same checks, on first touch ------------

    def test_the_hand_built_framed_body_is_valid(self):
        data = xbin._pack(_framed_body(), 0)
        archive = xbin.decode_archive(data, company_key_spec())
        (node,) = archive.root.children
        assert _pending(node) and node.label.tag == "db"
        (child,) = node.children
        assert child.label.tag == "x"
        assert child.alternatives[0].content[0].text == "hi"
        assert "<x>hi</x>" in xbin.decode_document_text(data)

    @pytest.mark.parametrize(
        "body, fails_at_decode",
        [
            pytest.param(
                _framed_body(length=len(_CHILD_BLOCK) + 1, tail=b"\x00"),
                False,
                id="length-too-long",
            ),
            pytest.param(
                _framed_body(length=len(_CHILD_BLOCK) - 1),
                True,
                id="length-too-short",
            ),
            pytest.param(
                # ... and the block's last byte plus the tail happen to
                # read as a second top-level record.
                _framed_body(
                    length=len(_CHILD_BLOCK) - 1,
                    top=b"\x02",
                    tail=b"\x00\x00\x00\x00",
                ),
                False,
                id="length-too-short-rest-parses",
            ),
            pytest.param(
                _framed_body(length=0x7F), True, id="length-runs-past-the-body"
            ),
            pytest.param(
                _framed_body(block=b"\x01" + _child(tag=b"\x05")),
                False,
                id="name-id-past-the-table",
            ),
            pytest.param(
                _framed_body(block=b"\x01" + _child(content=b"\x00\x82")[:-1]),
                False,
                id="truncated-varint",
            ),
            pytest.param(
                _framed_body(block=b"\x02" + _child()),
                False,
                id="missing-child-record",
            ),
            pytest.param(
                _framed_body(block=b"\x01" + _child(content=b"\x00\x02\xff\xfe")),
                False,
                id="invalid-utf8",
            ),
        ],
    )
    def test_malformed_children_block_raises_codec_error(
        self, body, fails_at_decode
    ):
        """Inside a crc-valid container, every malformation of a framed
        block is a CodecError — at decode when the frame itself cannot
        be stepped over, else from the read that first touches the
        block (a first ``retrieve`` streaming it included), again on
        every later touch, and from the document walk that fsck --deep
        and recode verification run."""
        data = xbin._pack(body, 0)
        spec = company_key_spec()
        if fails_at_decode:
            with pytest.raises(CodecError):
                xbin.decode_archive(data, spec)
        else:
            archive = xbin.decode_archive(data, spec)
            for _streamed_then_walked in range(2):
                with pytest.raises(CodecError, match="^Corrupt xbin container: (?!Corrupt)"):
                    archive.retrieve(1)
            node = next(
                child
                for child in xbin.decode_archive(data, spec).root.children
                if _pending(child)
            )
            for _ in range(2):
                with pytest.raises(CodecError, match="^Corrupt xbin container: (?!Corrupt)"):
                    node.children
                assert _pending(node)
        with pytest.raises(CodecError, match="^Corrupt xbin container: (?!Corrupt)"):
            xbin.decode_document_text(data)

    def test_a_streamed_read_checks_what_it_returns_the_walk_everything(self):
        """A record that died before the version asked for is stepped
        over by its lengths: damage inside it is the walk's to find."""
        dead = (
            b"\x01\x05\x00\x00"  # <x>, timestamped + alternatives, no key/attrs
            + b"\x01\x02\x00"  # alive at version 2 only
            + _ALTERNATIVE
            + b"\x00\x02\xff\xfe"  # its text is not UTF-8
            + _NO_CHILDREN
        )
        block = b"\x02" + _child() + dead
        node = _DB + _INTERNAL_FRAMED + bytes([len(block)]) + block
        body = _NAMES + b"\x01\x01\x01" + b"\x01" + node  # versions 1-2
        data = xbin._pack(body, 0)
        spec = company_key_spec()
        first = xbin.decode_archive(data, spec).retrieve(1)
        assert to_string(first) == "<db><x>hi</x></db>"
        with pytest.raises(CodecError, match="utf-8|UTF-8"):
            xbin.decode_archive(data, spec).retrieve(2)
        with pytest.raises(CodecError):
            xbin.decode_document_text(data)
        with pytest.raises(CodecError):
            list(_walk(xbin.decode_archive(data, spec).root))

    def test_the_framed_bit_is_malformed_under_version_1(self):
        v2 = xbin._pack(_framed_body(), 0)
        v1 = b"XB\x01\x00" + v2[4:]
        with pytest.raises(CodecError, match="version 1"):
            xbin.decode_archive(v1, company_key_spec())
        with pytest.raises(CodecError, match="version 1"):
            xbin.decode_document_text(v1)
        # ... and version 1 without the bit still decodes, eagerly.
        v1 = b"XB\x01\x00" + xbin._pack(_body(), 0)[4:]
        (node,) = xbin.decode_archive(v1, company_key_spec()).root.children
        assert not _pending(node)

    def test_an_unknown_version_byte_is_not_xbin(self):
        data = xbin._pack(_body(), 0)
        with pytest.raises(CodecError, match="bad magic"):
            xbin.decode_archive(b"XB\x03\x00" + data[4:], company_key_spec())

    def test_every_truncation_inside_a_framed_block_is_detected(self):
        body = _framed_body()
        for cut in range(len(body)):
            data = xbin._pack(body[:cut], 0)
            with pytest.raises(CodecError):
                list(_walk(xbin.decode_archive(data, company_key_spec()).root))
            with pytest.raises(CodecError):
                xbin.decode_document_text(data)
