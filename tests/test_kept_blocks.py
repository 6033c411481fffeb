"""Kept ``xbin`` blocks never show in the bytes.

A tree a writer holds between appends keeps the encoded children blocks
of what stood still (``Archive.kept``); Nested Merge drops a node's
block in the call that changes anything beneath it, and the next encode
copies the rest.  Whatever the versions do, the result must be the
bytes of the full walk — over the same tree with its blocks stripped,
and over a tree decoded from the previous bytes and merged afresh — and
a store written through held trees must be, file for file, the store a
handle per append writes.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Archive, ArchiveOptions
from repro.core.merge import AttributeChangeError, Kept
from repro.data.company import company_key_spec
from repro.data.omim import OMIM_KEY_TEXT
from repro.keys.annotate import annotate_keys
from repro.storage import (
    CrashPoint,
    FaultInjector,
    create_archive,
    inject,
    open_archive,
    xbin,
)
from repro.storage.cache import chunk_cache, reset_chunk_cache
from repro.xmltree import parse_document
from test_core_properties import _configurations, _state, _state_to_document
from test_storage_chunked import (  # noqa: F401
    CHUNKS,
    _copy,
    _files,
    _payloads,
    churn,
)

SPEC = company_key_spec()


def encoded_three_ways(archive, previous, document):
    """The tree's body with its kept blocks; the same asserted of the
    tree stripped of them, and of ``previous`` (the body before
    ``document`` was merged) decoded and merged afresh."""
    options = archive.options
    flags = xbin._FLAG_COMPACTION if options.compaction else 0
    body = xbin._write_tree(archive)
    kept, archive.kept = archive.kept, None
    try:
        assert xbin._write_tree(archive) == body
    finally:
        archive.kept = kept
    if previous is not None:
        fresh = xbin.decode_archive(xbin._pack(previous, flags), SPEC, options)
        fresh.add_version(_copy(document))
        assert xbin._write_tree(fresh) == body
    return body


def run(documents, options=None):
    """Merge and encode ``documents`` one by one on a tree that keeps
    its blocks; returns the tree."""
    archive = Archive(SPEC, options or ArchiveOptions())
    archive.kept = Kept()
    body = None
    for document in documents:
        archive.add_version(_copy(document))
        body = encoded_three_ways(archive, body, document)
    return archive


def company(*departments):
    """``("dx", ("ann", "bob", {"sal": "10K", "tel": ["1"]}), ...)``"""
    parts = []
    for name, *employees in departments:
        parts.append(f"<dept><name>{name}</name>")
        for first, last, fields in employees:
            parts.append(f"<emp><fn>{first}</fn><ln>{last}</ln>")
            if "sal" in fields:
                parts.append(f"<sal>{fields['sal']}</sal>")
            parts.extend(f"<tel>{tel}</tel>" for tel in fields.get("tel", ()))
            parts.append("</emp>")
        parts.append("</dept>")
    return parse_document("<db>" + "".join(parts) + "</db>")


#: Enough telephone numbers that an employee's children block is framed.
TELS = ["111-1111", "222-2222", "333-3333", "444-4444", "555-5555"]


def staff(*names, **fields):
    fields.setdefault("tel", TELS)
    return [(name, "smith", dict(fields)) for name in names]


class TestEveryEncodeIsTheFullWalk:
    @given(
        st.lists(st.one_of(st.none(), _state()), min_size=2, max_size=8),
        _configurations,
    )
    @settings(max_examples=60, deadline=None)
    def test_random_version_sequences(self, states, options):
        run(
            [
                _state_to_document(state) if state is not None else None
                for state in states
            ],
            options,
        )

    @pytest.mark.parametrize("compaction", [False, True])
    def test_blocks_are_kept_and_copied(self, compaction):
        """The property above is not vacuous: blocks of what stood
        still survive an append, and the encoder copies them."""
        quiet = company(("dx", *staff("ann", "bob")), ("dy", *staff("cat")))
        busy = company(("dx", *staff("ann", "bob")), ("dy", *staff("cat", "dan")))
        archive = run([quiet, quiet], ArchiveOptions(compaction=compaction))
        before = dict(archive.kept)
        assert len(before) >= 5  # db, two depts, their employees
        archive.add_version(_copy(busy))
        survivors = set(archive.kept)
        if compaction:  # every live weave segment gains the version
            assert not survivors
            return
        dropped = set(before) - survivors
        tags = sorted(before[key][0].label.tag for key in dropped)
        assert tags == ["db", "dept"]  # dy and what holds it, nothing else
        encoded_three_ways(archive, None, None)
        for key in survivors:  # copied, not rewritten
            assert archive.kept[key] is before[key]

    def test_a_deleted_record_outdates_its_parent(self):
        """Mutation spot check: not dropping on ``_terminate``."""
        both = company(("dx", *staff("ann", "bob")))
        one = company(("dx", *staff("ann")))
        run([both, both, one, one, both])

    def test_an_extended_alternative_outdates_its_record(self):
        """Mutation spot check: not dropping when an alternative's
        timestamp is extended (content changed once, then stood)."""
        first = company(("dx", *staff("ann", "bob", sal="10K")))
        second = company(("dx", *staff("ann", "bob", sal="20K")))
        run([first, second, second, second, first, first])

    def test_a_copied_block_interns_the_names_it_introduced(self):
        """Mutation spot check: copying without interning.  ``tel``
        first occurs inside dx, which stands still; ``sal`` first occurs
        in dz, rewritten after dx's block was copied."""
        dx = ("dx", *staff("ann", "bob"))
        first = company(dx, ("dz", ("eve", "jones", {"sal": "10K"})))
        second = company(dx, ("dz", ("eve", "jones", {"sal": "20K"})))
        run([first, second, second])

    def test_the_name_table_grows_before_a_kept_block(self):
        """A tag first seen in a late record, then in an early one: the
        late record's block was written against a table that no longer
        stands, and is written again."""
        late = company(
            ("dx", ("ann", "smith", {"tel": TELS})),
            ("dz", ("eve", "jones", {"sal": "10K", "tel": TELS})),
        )
        early = company(
            ("dx", ("ann", "smith", {"sal": "30K", "tel": TELS})),
            ("dz", ("eve", "jones", {"sal": "10K", "tel": TELS})),
        )
        archive = run([late, late])
        stale = {
            key: entry
            for key, entry in archive.kept.items()
            if entry[0].label.tag == "dept" and "sal" in entry[3]
        }
        assert len(stale) == 1  # dz's block introduced ``sal``
        archive.add_version(_copy(early))
        encoded_three_ways(archive, None, None)
        (key,) = stale
        assert archive.kept[key] is not stale[key]
        assert "sal" not in archive.kept[key][3]
        run([late, early, late, early])

    def test_empty_versions_and_a_root_that_comes_back(self):
        document = company(("dx", *staff("ann", "bob")))
        run([document, None, None, document, document, None, document])


# -- through the backends -----------------------------------------------------


def kept_of(handle):
    """The kept-block dicts of the trees a handle holds, in chunk order."""
    return [handle._held[index][1].kept for index in sorted(handle._held)]


class TestStoresAreTheSameFiles:
    @pytest.mark.parametrize("compaction", [False, True])
    @pytest.mark.parametrize("kind", ["chunked", "file"])
    def test_one_handle_a_handle_per_append_one_batch(
        self, tmp_path, churn, kind, compaction  # noqa: F811
    ):
        """The PR 13 equivalence with blocks kept: forty appends on one
        handle leave the directory a handle per append leaves (``diff
        -r``), and the payloads one batch writes."""
        options = ArchiveOptions(compaction=compaction)

        def store(name):
            base = tmp_path / name
            base.mkdir()
            return create_archive(
                str(base / "store"), OMIM_KEY_TEXT, kind=kind,
                chunk_count=CHUNKS, codec="xbin", options=options,
            )

        one_handle = store("one-handle")
        copied = 0
        for version in churn:
            before = [dict(kept or {}) for kept in kept_of(one_handle)]
            one_handle.add_version(_copy(version))
            after = kept_of(one_handle)
            assert after and None not in after
            copied += sum(
                new.get(key) is entry
                for old, new in zip(before, after)
                for key, entry in old.items()
            )
        if not compaction:
            assert copied > len(churn)  # what stood still was copied
        one_handle.close()

        store("per-append").close()
        for version in churn:
            handle = open_archive(
                str(tmp_path / "per-append" / "store"), options=options
            )
            handle.add_version(_copy(version))
            handle.close()

        def files(name):  # the archive's files: beside it, or inside
            base = tmp_path / name
            return _files(base if kind == "file" else base / "store")

        assert files("one-handle") == files("per-append")

        batch = store("batch")
        batch.ingest_batch(_copy(version) for version in churn)
        batch.close()
        if kind == "file":
            assert files("one-handle")["store"] == files("batch")["store"]
        else:
            ours = _payloads(tmp_path / "one-handle" / "store")
            assert ours == _payloads(tmp_path / "batch" / "store")


class TestWhoHoldsABlock:
    @pytest.fixture
    def writer(self, tmp_path, churn):  # noqa: F811
        handle = create_archive(
            str(tmp_path / "s"), OMIM_KEY_TEXT, kind="chunked",
            chunk_count=CHUNKS, codec="xbin",
        )
        for version in churn[:3]:
            stats = handle.add_version(_copy(version))
        assert len(handle._held) == CHUNKS
        assert all(xbin.kept_bytes(tree) for _sha, tree in handle._held.values())
        # The record memo beside the blocks: filled, and used by now.
        assert all(tree.kept.records for _sha, tree in handle._held.values())
        assert stats.records_kept > 0
        return handle

    @staticmethod
    def fresh_copy(tmp_path, versions):
        fresh = create_archive(
            str(tmp_path / "fresh"), OMIM_KEY_TEXT, kind="chunked",
            chunk_count=CHUNKS, codec="xbin",
        )
        for version in versions:
            fresh.add_version(_copy(version))
        fresh.close()
        return _files(tmp_path / "fresh")

    def test_a_failed_commit_leaves_no_kept_block(
        self, tmp_path, churn, writer  # noqa: F811
    ):
        trees = [tree for _sha, tree in writer._held.values()]
        with inject(FaultInjector().crash_at_op(5)):
            with pytest.raises(CrashPoint):
                writer.add_version(_copy(churn[3]))
        assert writer._held == {} and writer.last_version == 3
        del trees  # nothing else referred to them, nor to their memos
        assert writer.add_version(_copy(churn[3])).records_kept == 0
        writer.close()
        assert _files(tmp_path / "s") == self.fresh_copy(tmp_path, churn[:4])

    def test_a_failed_merge_leaves_no_kept_block(
        self, tmp_path, churn, writer  # noqa: F811
    ):
        """The merge had changed timestamps, and dropped blocks, in
        some chunks when it was refused in another."""
        rejected = _copy(churn[3])
        stored = {
            record.find("Num").text_content()
            for record in churn[2].element_children()
        }
        spec = writer.spec
        annotated = annotate_keys(rejected, spec)
        last = max(
            (
                record
                for record in rejected.element_children()
                if record.find("Num").text_content() in stored
            ),
            key=lambda record: writer.chunk_index_for_label(annotated.label(record)),
        )
        assert writer.chunk_index_for_label(annotated.label(last)) > 0
        last.set_attribute("flag", "new")
        with pytest.raises(AttributeChangeError):
            writer.add_version(rejected)
        assert writer._held == {} and writer.last_version == 3
        # Records confirmed in the chunks merged first went with them.
        assert writer.add_version(_copy(churn[3])).records_kept == 0
        writer.close()
        assert _files(tmp_path / "s") == self.fresh_copy(tmp_path, churn[:4])

    def test_file_backend_reloads_after_a_failed_write(
        self, tmp_path, churn  # noqa: F811
    ):
        path = str(tmp_path / "archive.xml")
        handle = create_archive(path, OMIM_KEY_TEXT, kind="file", codec="xbin")
        for version in churn[:3]:
            handle.add_version(_copy(version))
        (_sha, tree), = handle._held.values()
        assert xbin.kept_bytes(tree) > 0
        assert tree.kept.records
        with inject(FaultInjector().crash_at_op(1)):
            with pytest.raises(CrashPoint):
                handle.add_version(_copy(churn[3]))
        assert handle._held == {} and handle.last_version == 3
        assert handle.add_version(_copy(churn[3])).records_kept == 0
        assert handle.add_version(_copy(churn[3])).records_kept > 0
        handle.close()
        other = str(tmp_path / "other.xml")
        fresh = create_archive(other, OMIM_KEY_TEXT, kind="file", codec="xbin")
        for version in churn[:4] + [churn[3]]:
            fresh.close()
            fresh = open_archive(other)
            fresh.add_version(_copy(version))
        fresh.close()
        with open(path, "rb") as ours, open(other, "rb") as theirs:
            assert ours.read() == theirs.read()

    def test_a_reader_never_sees_a_writers_tree(
        self, tmp_path, churn, writer  # noqa: F811
    ):
        reset_chunk_cache()
        try:
            held = {id(tree) for _sha, tree in writer._held.values()}
            reader = open_archive(str(tmp_path / "s"), recover=False)
            for index in range(CHUNKS):
                for handle in (writer, reader):
                    tree = handle.load_part(index)
                    # Neither blocks nor record memo: nothing is kept.
                    assert id(tree) not in held and tree.kept is None
            assert chunk_cache().entry_count == CHUNKS  # the reader's
            reader.close()
            writer.add_version(_copy(churn[3]))
            assert {id(tree) for _sha, tree in writer._held.values()} == held
            reader = open_archive(str(tmp_path / "s"), recover=False)
            for index in range(CHUNKS):
                tree = reader.load_part(index)
                assert id(tree) not in held and tree.kept is None
            reader.close()
        finally:
            reset_chunk_cache()

    def test_nothing_is_kept_without_a_budget(self, tmp_path, churn):  # noqa: F811
        reset_chunk_cache(0)
        try:
            path = str(tmp_path / "archive.xml")
            handle = create_archive(path, OMIM_KEY_TEXT, kind="file", codec="xbin")
            for version in churn[:3]:
                stats = handle.add_version(_copy(version))
                (_sha, tree), = handle._held.values()
                assert tree.kept is None  # no block, no memo
                assert stats.records_kept == 0
            handle.close()
        finally:
            reset_chunk_cache()
        assert os.path.getsize(path) > 0
