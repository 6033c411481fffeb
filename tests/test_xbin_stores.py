"""``xbin`` version 2 through whole stores.

Three things the container-level suite (``test_xbin.py``) cannot show:
that a read on a fresh handle really leaves the blocks it does not
need undecoded (and a first ``retrieve`` all of them); that a children
block which is malformed inside a crc- and SHA-valid chunk fails typed
from whichever surface first reads it — streamed or walked — (and only
from those that do); and that stores written before the
format gained framed blocks — ``tests/fixtures/xbin_v1`` — still open,
scrub, answer identically and accept appends.
"""

import collections
import os
import shutil

import pytest

import repro
from repro.cli import EXIT_CORRUPT
from repro.cli import main as xarch_main
from repro.client import RemoteError, connect
from repro.core.tstree import ProbeCount
from repro.data import OmimGenerator
from repro.data.omim import OMIM_KEY_TEXT
from repro.keys.annotate import KeyLabel
from repro.server.http import make_server, run_in_thread
from repro.storage import create_archive, fsck_archive, open_archive, xbin
from repro.storage.cache import reset_chunk_cache
from repro.storage.codec import CodecError
from repro.storage.integrity import ChecksumSidecar
from repro.xmltree import to_pretty_string, to_string

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "xbin_v1")
DENSE = "/ROOT/Record/Num/text()"


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
        answer = repro.open(handle).at(4).select(DENSE).all()
        assert answer == sorted(nums(versions[3]))
        for index in range(handle.part_count):
            settled, pending = census(handle.load_part(index))
            assert settled["Record"] and not pending["Record"]
            assert settled["Num"] == settled["Record"]
            assert pending["Contributors"] and not settled["Contributors"]
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
        db.at(4).select(DENSE).all()  # settles records, not Contributors
        before = [census(handle.load_part(index)) for index in range(2)]
        document = handle.retrieve(4)
        assert [census(handle.load_part(index)) for index in range(2)] == before
        assert to_pretty_string(handle.retrieve(4)) == to_pretty_string(document)
        handle.close()


# -- a malformed block inside a valid chunk ------------------------------------


def republish(store: str, name: str, payload: bytes) -> None:
    """Put ``payload`` at ``store/name`` with a matching checksum entry:
    what a writer with a bug (or a forger) leaves — every checksum
    holds, and the damage is inside."""
    with open(os.path.join(store, name), "wb") as handle:
        handle.write(payload)
    sidecar = ChecksumSidecar.load(os.path.join(store, "checksums.json"))
    sidecar.record(name, payload)
    with open(sidecar.path, "w", encoding="utf-8") as handle:
        handle.write(sidecar.to_json())


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
            db.at(4).select(DENSE).all()
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
        # The victim's own existence is on its head.
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
            history = handle.history(path)
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
        manifest = (
            old + ".manifest.json"
            if os.path.isfile(old)
            else os.path.join(old, "manifest.json")
        )
        os.remove(manifest)
        report = fsck_archive(old, repair=True)
        assert "manifest-missing" in {finding.code for finding in report.findings}
        assert not report.unrepaired
        handle = open_archive(old)
        assert handle.codec.name == "xbin" and handle.last_version == 4
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
