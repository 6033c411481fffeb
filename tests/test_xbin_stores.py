"""``xbin`` version 2 through whole stores.

Three things the container-level suite (``test_xbin.py``) cannot show:
that a read on a fresh handle really leaves the blocks it does not
need undecoded (and a first ``retrieve`` all of them); that a children
block which is malformed inside a crc- and SHA-valid chunk fails typed
from whichever surface first reads it — streamed or walked — (and only
from those that do); and that stores written before the
format gained framed blocks — ``tests/fixtures/xbin_v1`` — still open,
scrub, answer identically and accept appends.  Then the slow paths the
readers' inline reads step around: a chunk multi-byte at every such
site, and node heads whose flag bits or version numbers are malformed.
"""

import collections
import os
import shutil

import pytest

import repro
from repro.cli import EXIT_CORRUPT
from repro.cli import main as xarch_main
from repro.client import RemoteError, connect
from repro.core import Archive
from repro.core.tstree import ProbeCount
from repro.data import OmimGenerator
from repro.data.company import company_key_spec
from repro.data.omim import OMIM_KEY_TEXT
from repro.keys.annotate import KeyLabel
from repro.server.http import make_server, run_in_thread
from repro.storage import create_archive, fsck_archive, open_archive, xbin
from repro.storage.cache import reset_chunk_cache
from repro.storage.codec import CodecError
from repro.storage.backend import manifest_location, read_manifest
from repro.storage.integrity import ChecksumMismatch, checksum_entry
from repro.storage.legacy import current_manifest, retire
from repro.xmltree import Element, Text, to_pretty_string, to_string

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "xbin_v1")
DENSE = "/ROOT/Record/Num/text()"
#: A dense select of a field that is not on the record's key label.
TITLES = "/ROOT/Record/Title/text()"


def omim_versions(count: int = 4, records: int = 12, seed: int = 15):
    return list(
        OmimGenerator(seed=seed, initial_records=records).generate_versions(count)
    )


def nums(document) -> list[str]:
    return [record.find("Num").text_content() for record in document.children]


@pytest.fixture
def store(tmp_path):
    """A two-chunk xbin store of four OMIM versions; the documents."""
    versions = omim_versions()
    path = str(tmp_path / "omim-store")
    backend = create_archive(
        path, OMIM_KEY_TEXT, kind="chunked", chunk_count=2, codec="xbin"
    )
    backend.ingest_batch(version.copy() for version in versions)
    backend.close()
    reset_chunk_cache()
    yield path, versions
    reset_chunk_cache()


def census(archive) -> tuple[collections.Counter, collections.Counter]:
    """Tags of the settled and of the still-pending nodes of a decoded
    chunk, told apart by the decoder's private ``_block`` mark so that
    counting decodes nothing."""
    settled, pending = collections.Counter(), collections.Counter()
    stack = list(archive.root.children)
    while stack:
        node = stack.pop()
        if getattr(node, "_block", None) is None:
            settled[node.label.tag] += 1
            stack.extend(node.children)
        else:
            pending[node.label.tag] += 1
    return settled, pending


def owner_of(handle, num: str) -> int:
    return handle.chunk_index_for_label(
        KeyLabel(tag="Record", key=(("Num", num),))
    )


# -- laziness is real ---------------------------------------------------------


class TestAReadDecodesWhatItTouches:
    def test_keyed_select_settles_one_record_of_one_chunk(self, store):
        path, versions = store
        num = nums(versions[-1])[3]
        handle = open_archive(path, recover=False)
        answer = repro.open(handle).at(4).select(f"/ROOT/Record[Num='{num}']").all()
        assert [element.find("Num").text_content() for element in answer] == [num]
        assert handle.cache_misses == 1  # the owning chunk, no other
        settled, pending = census(handle.load_part(owner_of(handle, num)))
        assert handle.cache_hits == 1  # ... and that was the tree the query used
        assert settled["Record"] == 1 and pending["Record"] >= 3
        assert settled["Contributors"] >= 1 and not pending["Contributors"]
        handle.close()

    def test_keyed_path_history_settles_no_record(self, store):
        path, versions = store
        num = nums(versions[0])[0]
        handle = open_archive(path, recover=False)
        history = repro.open(handle).history(f"/ROOT/Record[Num={num}]")
        assert history.existence.to_text() == "1-4"
        assert handle.cache_misses == 1
        settled, pending = census(handle.load_part(owner_of(handle, num)))
        assert settled == {"ROOT": 1} and set(pending) == {"Record"}
        handle.close()

    def test_dense_select_leaves_every_contributors_block_pending(self, store):
        path, versions = store
        handle = open_archive(path, recover=False)
        answer = repro.open(handle).at(4).select(TITLES).all()
        in_key_order = sorted(
            versions[3].children, key=lambda record: record.find("Num").text_content()
        )
        assert answer == [record.find("Title").text_content() for record in in_key_order]
        for index in range(handle.part_count):
            settled, pending = census(handle.load_part(index))
            assert settled["Record"] and not pending["Record"]
            assert settled["Title"] == settled["Record"]
            assert pending["Contributors"] and not settled["Contributors"]
        handle.close()

    def test_dense_key_projection_settles_no_record(self, store):
        path, versions = store
        handle = open_archive(path, recover=False)
        answer = repro.open(handle).at(4).select(DENSE).all()
        assert answer == sorted(nums(versions[3]))
        for index in range(handle.part_count):
            settled, pending = census(handle.load_part(index))
            assert not settled["Record"] and pending["Record"]
        handle.close()

    def test_first_retrieve_settles_nothing_it_streams(self, store):
        path, versions = store
        handle = open_archive(path, recover=False)
        document = handle.retrieve(4)
        assert sorted(nums(document)) == sorted(nums(versions[3]))
        for index in range(handle.part_count):
            settled, pending = census(handle.load_part(index))
            # The record list itself is a framed block: not one node
            # below the chunk's shell was built.
            assert not settled and pending == {"ROOT": 1}
        handle.close()

    def test_second_retrieve_settles_everything_alive(self, store):
        path, versions = store
        handle = open_archive(path, recover=False)
        first = handle.retrieve(4)
        second = handle.retrieve(4)
        assert to_pretty_string(second) == to_pretty_string(first)
        for index in range(handle.part_count):
            settled, pending = census(handle.load_part(index))
            assert settled["Record"]
            # Only records that died before version 4 may stay behind.
            assert set(pending) <= {"Record"}
        handle.close()

    def test_first_retrieve_streams_only_what_is_still_pending(self, store):
        path, versions = store
        handle = open_archive(path, recover=False)
        db = repro.open(handle)
        db.at(4).select(TITLES).all()  # settles records, not Contributors
        before = [census(handle.load_part(index)) for index in range(2)]
        document = handle.retrieve(4)
        assert [census(handle.load_part(index)) for index in range(2)] == before
        assert to_pretty_string(handle.retrieve(4)) == to_pretty_string(document)
        handle.close()


# -- a malformed block inside a valid chunk ------------------------------------


def republish(store: str, name: str, payload: bytes) -> None:
    """Put ``payload`` at ``store/name`` with a matching checksum entry
    in the manifest: what a writer with a bug (or a forger) leaves —
    every checksum holds, and the damage is inside.  A store an earlier
    release wrote is rewritten as today's, as by a commit."""
    with open(os.path.join(store, name), "wb") as handle:
        handle.write(payload)
    manifest, retired = current_manifest(store, read_manifest(store))
    manifest.checksums[name] = checksum_entry(payload)
    with open(manifest_location(store), "w", encoding="utf-8") as handle:
        handle.write(manifest.to_json())
    retire(store, retired)


def break_one_record(store: str, index: int) -> str:
    """Point the first child record of one record's children block at a
    name the table does not hold; returns that record's ``Num``."""
    handle = open_archive(store, recover=False)
    payload = handle.read_part_payload(index)
    spec = handle.spec
    handle.close()
    version, flags, body = xbin._unpack(payload)
    (root,) = xbin.decode_archive(payload, spec).root.children
    victim = root.children[1]
    _lock, _read, _read_at, start, _end = victim._block
    damaged = bytearray(body)
    assert damaged[start] < 0x80  # a one-byte child count, then a tag id
    damaged[start + 1] = 0x7F
    republish(store, f"chunk-{index:04d}.xml", xbin._pack(bytes(damaged), flags))
    reset_chunk_cache()
    return dict(victim.label.key)["Num"]


class TestAMalformedBlockInAValidChunk:
    @pytest.fixture
    def damaged(self, store):
        path, versions = store
        victim = break_one_record(path, 0)
        assert victim in nums(versions[-1])  # alive at the last version
        return path, versions, victim

    def test_reads_that_touch_it_raise_codec_error(self, damaged):
        path, versions, victim = damaged
        handle = open_archive(path, recover=False)
        db = repro.open(handle)
        with pytest.raises(CodecError, match="name id 127"):
            handle.retrieve(4)
        with pytest.raises(CodecError, match="name id 127"):
            db.at(4).select(f"/ROOT/Record[Num='{victim}']").all()
        with pytest.raises(CodecError, match="name id 127"):
            db.at(4).select(TITLES).all()
        with pytest.raises(CodecError, match="name id 127"):
            db.history(f"/ROOT/Record[Num={victim}]/Title")
        handle.close()

    def test_a_first_retrieve_over_it_raises_typed_and_builds_nothing(
        self, damaged
    ):
        """The streamed read meets the damage inside the chunk's lock
        and its own pass; it fails as typed as the walk after it."""
        path, versions, victim = damaged
        handle = open_archive(path, recover=False)
        with pytest.raises(CodecError, match="^Corrupt xbin container: name id 127"):
            handle.retrieve(4)
        settled, pending = census(handle.load_part(0))
        assert not settled and pending == {"ROOT": 1}
        with pytest.raises(CodecError, match="^Corrupt xbin container: name id 127"):
            handle.retrieve(4)
        settled, pending = census(handle.load_part(0))
        assert settled["Record"] and pending["Record"]  # the walk got that far
        handle.close()

    def test_reads_that_do_not_touch_it_answer(self, damaged):
        path, versions, victim = damaged
        handle = open_archive(path, recover=False)
        db = repro.open(handle)
        neighbours = [
            num
            for num in nums(versions[-1])
            if num != victim and owner_of(handle, num) == 0
        ]
        assert neighbours
        for num in neighbours:
            (element,) = db.at(4).select(f"/ROOT/Record[Num='{num}']").all()
            assert element.find("Num").text_content() == num
        # The victim's own ``Num``, and its existence, are on its head.
        assert victim in db.at(4).select(DENSE).all()
        assert db.history(f"/ROOT/Record[Num={victim}]").existence.to_text()
        handle.close()

    def test_skip_policy_serves_the_healthy_chunk(self, damaged):
        path, versions, victim = damaged
        handle = open_archive(path, recover=False, on_corrupt="skip")
        healthy = sorted(
            num for num in nums(versions[3]) if owner_of(handle, num) == 1
        )
        # The first retrieve streams, the second walks: both skip.
        for skipped in (1, 2):
            assert nums(handle.retrieve(4)) == healthy
            assert handle.chunks_skipped_corrupt == skipped
        handle.close()

    def test_cli_exits_2_and_client_reports_codec_corrupt(self, damaged, capsys):
        path, versions, victim = damaged
        assert xarch_main(["get", path, "4"]) == EXIT_CORRUPT
        assert (
            xarch_main(["query", path, f"/ROOT/Record[Num='{victim}']", "--at", "4"])
            == EXIT_CORRUPT
        )
        assert "corruption detected" in capsys.readouterr().err
        server = make_server(os.path.dirname(path), port=0)
        run_in_thread(server)
        try:
            host, port = server.server_address
            url = f"http://{host}:{port}/archives/{os.path.basename(path)}"
            with connect(url) as db:
                with pytest.raises(RemoteError) as caught:
                    db.at(4).select(f"/ROOT/Record[Num='{victim}']").all()
                assert caught.value.code == "codec-corrupt"
                with pytest.raises(RemoteError) as caught:
                    db.at(4).select("/ROOT").all()
                assert caught.value.code == "codec-corrupt"
                healthy = db.history(f"/ROOT/Record[Num={victim}]")
                assert healthy.existence.to_text()
        finally:
            server.shutdown()
            server.server_close()

    def test_deep_scrub_and_recode_still_find_it(self, damaged):
        path, versions, victim = damaged
        assert fsck_archive(path).clean  # every checksum holds
        report = fsck_archive(path, deep=True)
        assert [(finding.code, finding.path) for finding in report.findings] == [
            ("undecodable", "chunk-0000.xml")
        ]
        assert xarch_main(["fsck", path, "--deep"]) == 1
        handle = open_archive(path)
        with pytest.raises(CodecError, match="name id 127"):
            handle.recode("gzip")
        handle.close()
        assert open_archive(path, recover=False).codec.name == "xbin"


# -- stores written before version 2 ---------------------------------------------


def magic_of(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read(4)


def payload_files(store: str) -> list[str]:
    if os.path.isfile(store):
        return [store]
    return sorted(
        os.path.join(store, name)
        for name in os.listdir(store)
        if name.startswith("chunk-") and name.endswith(".xml")
    )


def answers(store: str) -> dict:
    """Every answer the store gives, with the work counters of each."""
    reset_chunk_cache()
    handle = open_archive(store, recover=False)
    db = repro.open(handle)
    found: dict = {}
    last = handle.last_version
    records = nums(handle.retrieve(last))
    for version in range(1, last + 1):
        probes = ProbeCount() if handle.supports_probes else None
        document = handle.retrieve(version, probes=probes)
        found["retrieve", version] = (
            to_pretty_string(document),
            probes and probes.total(),
        )
        for expression in (DENSE, f"/ROOT/Record[Num='{records[0]}']", "//Title"):
            query = db.at(version).select(expression)
            items = [
                item if isinstance(item, str) else to_string(item)
                for item in query
            ]
            found["select", version, expression] = (items, vars(query.stats))
    for num in records:
        for path in (f"/ROOT/Record[Num={num}]", f"/ROOT/Record[Num={num}]/Title"):
            history = db.history(path)
            found["history", path] = (
                history.existence.to_text(),
                [
                    (stamp.to_text(), content)
                    for stamp, content in history.changes or ()
                ],
            )
    handle.close()
    reset_chunk_cache()
    return found


@pytest.mark.parametrize("layout", ["chunked", "file/archive.xml"])
class TestVersion1Stores:
    @pytest.fixture
    def old(self, tmp_path, layout):
        """A private copy of the committed version 1 store."""
        shutil.copytree(
            os.path.join(FIXTURES, layout.split("/")[0]), tmp_path / "store"
        )
        parts = layout.split("/")[1:]
        path = str(tmp_path.joinpath("store", *parts))
        assert {magic_of(name) for name in payload_files(path)} == {b"XB\x01\x00"}
        return path

    def test_opens_and_scrubs_clean(self, old):
        handle = open_archive(old)
        assert handle.last_version == 4 and handle.codec.name == "xbin"
        assert len(nums(handle.retrieve(4))) >= 8
        handle.close()
        assert fsck_archive(old, deep=True).clean
        assert xarch_main(["fsck", old, "--deep"]) == 0
        assert {magic_of(name) for name in payload_files(old)} == {b"XB\x01\x00"}

    def test_fsck_sniffs_the_codec_of_a_store_that_lost_its_manifest(self, old):
        """The rebuilt manifest carries the checksum table — the old
        sidecar's, or one taken from the payloads where the table went
        with the manifest — and reads verify against it."""
        os.remove(manifest_location(old))
        report = fsck_archive(old, repair=True)
        assert "manifest-missing" in {finding.code for finding in report.findings}
        assert not report.unrepaired
        handle = open_archive(old)
        assert handle.codec.name == "xbin" and handle.last_version == 4
        handle.close()
        rebuilt = read_manifest(old)
        assert {os.path.basename(name) for name in payload_files(old)} <= set(
            rebuilt.checksums
        )
        assert "payload" not in rebuilt.extra
        assert not os.path.exists(os.path.join(old, "checksums.json"))
        assert fsck_archive(old, deep=True).clean
        victim = payload_files(old)[0]
        with open(victim, "r+b") as handle:
            handle.seek(100)
            byte = handle.read(1)
            handle.seek(100)
            handle.write(bytes([byte[0] ^ 0x01]))
        reset_chunk_cache()
        handle = open_archive(old, recover=False)
        with pytest.raises(ChecksumMismatch):
            handle.retrieve(4)
        handle.close()

    def test_answers_equal_the_store_reencoded_as_version_2(self, old):
        before = answers(old)
        handle = open_archive(old)
        handle.recode("xbin")
        handle.close()
        assert {magic_of(name) for name in payload_files(old)} == {b"XB\x02\x00"}
        after = answers(old)
        assert before.keys() == after.keys()
        for key in before:
            assert before[key] == after[key], key

    def test_an_append_republishes_as_version_2(self, old):
        before = answers(old)
        appended = omim_versions(5, records=8)[4]
        handle = open_archive(old)
        handle.add_version(appended.copy())
        handle.close()
        assert {magic_of(name) for name in payload_files(old)} == {b"XB\x02\x00"}
        assert fsck_archive(old, deep=True).clean
        # The table moved into the manifest, and nothing else holds it.
        manifest = read_manifest(old)
        assert {os.path.basename(name) for name in payload_files(old)} <= set(
            manifest.checksums
        )
        assert "payload" not in manifest.extra
        assert not os.path.exists(os.path.join(old, "checksums.json"))
        after = answers(old)
        for version in range(1, 5):
            assert after["retrieve", version][0] == before["retrieve", version][0]
        handle = open_archive(old, recover=False)
        assert sorted(nums(handle.retrieve(5))) == sorted(nums(appended))
        handle.close()


def test_one_store_may_hold_both_versions(tmp_path):
    """A chunk republished by this writer beside one the old writer
    left: the next open reads the mix."""
    path = str(tmp_path / "store")
    shutil.copytree(os.path.join(FIXTURES, "chunked"), path)
    before = answers(path)
    handle = open_archive(path, recover=False)
    archive = handle.load_part(0)
    handle.close()
    republish(path, "chunk-0000.xml", xbin.encode_archive(archive))
    assert [magic_of(name) for name in payload_files(path)] == [
        b"XB\x02\x00",
        b"XB\x01\x00",
    ]
    assert fsck_archive(path, deep=True).clean
    assert answers(path) == before


# -- the slow paths behind the inline reads ----------------------------------------
#
# The readers take a varint's single-byte form, a one-interval timestamp
# with single-byte start and length, and a content list of one short
# text inline; everything else goes the general way.  This store makes
# every one of those sites multi-byte somewhere.

WIDE_ITEMS = 140  # distinct field tags: name ids past 127; a 140-child node
WIDE_VERSIONS = 130  # interval starts and lengths past 127
WIDE_KEYS = "(/, (db, {}))\n(/db, (item, {id}))\n" + "".join(
    f"(/db/item, (f{k}, {{}}))\n" for k in range(WIDE_ITEMS)
)


def wide_version(number: int):
    def element(tag, *children):
        built = Element(tag)
        for child in children:
            built.append(child)
        return built

    db = Element("db")
    for k in range(WIDE_ITEMS):
        if k == 0 and number == WIDE_VERSIONS:
            continue  # alive 1-129: a length of 128
        if k == WIDE_ITEMS - 1 and number < WIDE_VERSIONS - 1:
            continue  # alive 129-130: a start of 129
        if k == 1:  # alternatives 1-129 and 130
            value = [Text("early" if number < WIDE_VERSIONS else "late")]
        elif k == 2:  # 130 content pieces
            value = [element("p", Text(str(piece))) for piece in range(130)]
        else:
            value = [Text(f"value {k}")]
        fields = element("id", Text(str(k))), element(f"f{k}", *value)
        db.append(element("item", *fields))
    return db


def wide_expected(number: int) -> str:
    """Version ``number`` as the archive hands it back: keyed siblings
    in key order (items by ``id`` text, an item's fields by tag)."""
    db = wide_version(number)
    db.children.sort(key=lambda item: item.find("id").text_content())
    for item in db.children:
        item.children.sort(key=lambda field: field.tag)
    return to_pretty_string(db)


def wide_reach(archive, body: bytes) -> dict:
    """The largest value each inlined varint site holds in ``archive``."""
    reach = collections.Counter()
    reach["names"] = xbin._read_varint(body, 0)[0]

    def stamp(timestamp) -> None:
        for start, end in timestamp.intervals() if timestamp is not None else ():
            reach["start"] = max(reach["start"], start)
            reach["length"] = max(reach["length"], end - start)

    stack = list(archive.root.children)
    while stack:
        node = stack.pop()
        stamp(node.timestamp)
        reach["children"] = max(reach["children"], len(node.children))
        for alternative in node.alternatives or ():
            stamp(alternative.timestamp)
            reach["pieces"] = max(reach["pieces"], len(alternative.content))
        stack.extend(node.children)
    return reach


class TestMultiByteVarints:
    """Each reader — a cold (streamed) read, a settled tree, a select —
    gives what the Fig. 5 text of the same chunk gives once re-read
    through ``Archive.from_xml_string``, on a chunk whose varints are
    multi-byte at every site the readers take inline."""

    @pytest.fixture(scope="class")
    def wide(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("wide") / "store")
        backend = create_archive(
            path, WIDE_KEYS, kind="chunked", chunk_count=1, codec="xbin"
        )
        backend.ingest_batch(wide_version(n) for n in range(1, WIDE_VERSIONS + 1))
        backend.close()
        handle = open_archive(path, recover=False)
        payload, spec = handle.read_part_payload(0), handle.spec
        handle.close()
        text = xbin.decode_document_text(payload)
        return path, payload, spec, text, Archive.from_xml_string(text, spec)

    def test_every_inlined_site_is_multi_byte(self, wide):
        _path, payload, _spec, _text, reference = wide
        reach = wide_reach(reference, xbin._unpack(payload)[2])
        assert min(reach.values()) >= 128, reach

    def test_a_cold_read_streams_the_text_paths_versions(self, wide):
        path, payload, spec, _text, reference = wide
        for version in range(1, WIDE_VERSIONS + 1):
            cold = xbin.decode_archive(payload, spec).retrieve(version)
            assert to_pretty_string(cold) == to_pretty_string(
                reference.retrieve(version)
            ), version
        for version in (1, 64, WIDE_VERSIONS - 1, WIDE_VERSIONS):  # and right
            cold = xbin.decode_archive(payload, spec).retrieve(version)
            assert to_pretty_string(cold) == wide_expected(version)
        for version in (1, WIDE_VERSIONS - 1, WIDE_VERSIONS):
            reset_chunk_cache()
            handle = open_archive(path, recover=False)
            assert to_pretty_string(handle.retrieve(version)) == to_pretty_string(
                reference.retrieve(version)
            )
            handle.close()

    def test_a_settled_tree_is_the_text_paths_tree(self, wide):
        _path, payload, spec, text, reference = wide
        settled = xbin.decode_archive(payload, spec)
        assert settled.to_xml_string() == text == reference.to_xml_string()
        for version in range(1, WIDE_VERSIONS + 1):  # the walk, not the stream
            assert to_pretty_string(settled.retrieve(version)) == to_pretty_string(
                reference.retrieve(version)
            ), version

    @pytest.mark.parametrize(
        "expression",
        ["/db/item/id/text()", "/db/item[id='2']", "/db/item/f1/text()", "//p"],
    )
    def test_select_answers_what_the_text_path_answers(self, wide, expression):
        path, payload, spec, _text, reference = wide
        settled = repro.open(xbin.decode_archive(payload, spec))
        for version in (1, 64, WIDE_VERSIONS - 1, WIDE_VERSIONS):
            expected = [
                item if isinstance(item, str) else to_string(item)
                for item in repro.open(reference).at(version).select(expression)
            ]
            cold = repro.open(xbin.decode_archive(payload, spec))
            for db in (cold, settled):
                answer = [
                    item if isinstance(item, str) else to_string(item)
                    for item in db.at(version).select(expression)
                ]
                assert answer == expected, (version, expression)
        reset_chunk_cache()
        handle = open_archive(path, recover=False)
        answer = repro.open(handle).at(WIDE_VERSIONS).select(expression).all()
        assert [a if isinstance(a, str) else to_string(a) for a in answer] == expected
        handle.close()


# -- hand-built bodies: what the inline reads still reject -------------------------
#
# A body is the name table, the root timestamp, then the top-level block
# (see the module docstring of repro.storage.xbin).  <db> is internal and
# its children block — one frontier child <x> holding "hi" — is framed,
# so the same bytes reach the streamed pass and the settling one.

HAND_NAMES = b"\x02" + b"\x02db" + b"\x01x"


def hand_body(
    *, flags=b"\x04", stamp=b"", alternative=b"\x00", names=HAND_NAMES
) -> bytes:
    child = b"\x01" + flags + b"\x00\x00" + stamp
    child += b"\x01" + alternative + b"\x01" + b"\x00\x02hi" + b"\x00"
    block = b"\x01" + child
    db = b"\x00" + b"\x08\x00\x00" + bytes([len(block)]) + block
    return names + b"\x01\x01\x00" + b"\x01" + db


def test_the_hand_built_body_reads_both_ways():
    data = xbin._pack(hand_body(), 0)
    spec = company_key_spec()
    streamed = xbin.decode_archive(data, spec).retrieve(1)
    assert to_string(streamed) == "<db><x>hi</x></db>"
    (db,) = xbin.decode_archive(data, spec).root.children
    (x,) = db.children
    assert x.label.tag == "x" and x.alternatives[0].content[0].text == "hi"


@pytest.mark.parametrize(
    "body, message",
    [
        pytest.param(
            hand_body(flags=b"\x14"), "unknown flag bits", id="node-flag-0x10"
        ),
        pytest.param(
            # Read as a two-byte varint before flag bytes were checked.
            hand_body(flags=b"\x84"),
            "unknown flag bits",
            id="node-flag-0x80",
        ),
        pytest.param(
            hand_body(alternative=b"\x02"), "unknown flag bits", id="alternative-flag"
        ),
        pytest.param(
            hand_body(flags=b"\x05", stamp=b"\x01\x00\x03"),
            "Version numbers are positive, got 0",
            id="zero-start-inline",
        ),
        pytest.param(
            hand_body(flags=b"\x05", stamp=b"\x02\x00\x01\x03\x00"),
            "Version numbers are positive, got 0",
            id="zero-start-general",
        ),
    ],
)
def test_a_malformed_head_fails_typed_from_both_readers(body, message):
    data = xbin._pack(body, 0)
    spec = company_key_spec()
    with pytest.raises(CodecError, match=message):
        xbin.decode_archive(data, spec).retrieve(1)  # streamed
    (db,) = xbin.decode_archive(data, spec).root.children
    with pytest.raises(CodecError, match=message):
        db.children  # settled
    with pytest.raises(CodecError, match=message):
        xbin.decode_document_text(data)


def test_an_empty_name_in_the_table_fails_typed():
    data = xbin._pack(hand_body(names=b"\x02" + b"\x02db" + b"\x00"), 0)
    with pytest.raises(CodecError, match="empty name"):
        xbin.decode_archive(data, company_key_spec())
    with pytest.raises(CodecError, match="empty name"):
        xbin.decode_document_text(data)


FILE_V1 = os.path.join(os.path.dirname(__file__), "fixtures", "file_v1")


class TestWholeFileStoreFromBeforeTheOneLoop:
    """``tests/fixtures/file_v1``: a whole-file store its own engine
    wrote, before the one-chunk layout took over."""

    @staticmethod
    def documents():
        versions = list(
            OmimGenerator(seed=16, initial_records=8).generate_versions(4)
        )
        return [versions[0], None, versions[1], versions[2]], versions[3]

    @pytest.fixture
    def old(self, tmp_path):
        shutil.copytree(FILE_V1, tmp_path / "store")
        return str(tmp_path / "store" / "archive.xml")

    def test_every_version_retrieves_as_its_document(self, old):
        documents, _ = self.documents()
        handle = open_archive(old)
        assert handle.kind == "file" and handle.last_version == 4
        spec = handle.spec
        for number, document in enumerate(documents, start=1):
            found = handle.retrieve(number)
            if document is None:
                assert found is None
            else:
                assert repro.documents_equivalent(found, document, spec), number
        handle.close()
        assert fsck_archive(old, deep=True).clean

    def test_takes_an_append_that_writes_what_a_fresh_store_writes(
        self, old, tmp_path
    ):
        documents, fifth = self.documents()
        handle = open_archive(old)
        handle.add_version(fifth.copy())
        handle.close()
        assert fsck_archive(old, deep=True).clean
        fresh = str(tmp_path / "fresh.xml")
        backend = create_archive(fresh, OMIM_KEY_TEXT, kind="file", codec="xbin")
        backend.ingest_batch(d and d.copy() for d in documents + [fifth])
        backend.close()
        with open(old, "rb") as ours, open(fresh, "rb") as theirs:
            assert ours.read() == theirs.read()
        assert read_manifest(old).version_count == 5
