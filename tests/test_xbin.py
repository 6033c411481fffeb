"""Property-based round-trips and corruption drills for the xbin codec.

Random archived histories — including attribute-heavy, deeply nested
and non-ASCII frontier content — must survive the parse-free binary
round-trip with a byte-identical Fig. 5 re-emission, and any damaged
container (truncated, bit-flipped, or wearing another codec's framing)
must fail as a typed :class:`~repro.storage.codec.CodecError`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Archive, ArchiveOptions, Fingerprinter
from repro.data.company import company_key_spec
from repro.storage import xbin
from repro.storage.codec import CodecError, get_codec
from repro.xmltree import Element, Text

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


class TestArchiveRoundTrip:
    @given(_version_sequences, _configurations)
    @settings(max_examples=40, deadline=None)
    def test_binary_round_trip_is_identity(self, states, options):
        archive = _build_archive(states, options)
        spec = company_key_spec()
        decoded = xbin.decode_archive(
            xbin.encode_archive(archive), spec, options
        )
        assert decoded.to_xml_string() == archive.to_xml_string()

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
