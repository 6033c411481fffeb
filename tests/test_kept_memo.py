"""The kept record memo never shows in the bytes, nor in the counters.

A tree a writer holds between appends keeps, beside its encoded blocks,
a memo of the records alive at the last version (``Archive.kept.records``):
an incoming record whose digest the memo confirmed at that version is
neither annotated nor descended — Nested Merge extends the timestamps
the memo names and drops the kept blocks they sit in.  Whatever the
versions do, the tree must encode to the bytes of a tree decoded from
the previous bytes and merged afresh, report the ``MergeStats`` that
merge reports, and a store written through held trees must be, file for
file, the store a handle per append writes.
"""

import dataclasses
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Archive, ArchiveOptions, Fingerprinter
from repro.core.merge import Kept
from repro.data.company import COMPANY_KEY_TEXT, company_key_spec
from repro.keys import KeyViolationError
from repro.storage import create_archive, open_archive, xbin
from repro.xmltree import parse_document
from test_core_properties import _configurations, _state, _state_to_document
from test_kept_blocks import TELS, company, encoded_three_ways, kept_of, staff
from test_storage_chunked import _copy, _files, _payloads

SPEC = company_key_spec()

#: What a merge that remembers nothing reports: every counter but the
#: two that say what the memo saved.
MEMOLESS = [
    field.name
    for field in dataclasses.fields(Archive(SPEC).add_version(None))
    if field.name not in ("records_kept", "nodes_kept")
]


def merge_both(documents, options=None):
    """Merge ``documents`` one by one into a tree that keeps records and
    into one that keeps nothing; after every version the two encode
    alike (and like the previous bytes decoded and merged afresh) and
    report the same memo-less counters.  Returns the keeping tree and
    its per-version stats."""
    keeping = Archive(SPEC, options or ArchiveOptions())
    keeping.kept = Kept()
    plain = Archive(SPEC, options or ArchiveOptions())
    body, reports = None, []
    for document in documents:
        stats = keeping.add_version(_copy(document))
        expected = plain.add_version(_copy(document))
        for name in MEMOLESS:
            assert getattr(stats, name) == getattr(expected, name), name
        assert stats.nodes_kept <= stats.nodes_matched
        body = encoded_three_ways(keeping, body, document)
        assert xbin._write_tree(plain) == body
        reports.append(stats)
    return keeping, reports


def kept_records(reports):
    return [stats.records_kept for stats in reports]


def department(archive, name):
    (db,) = archive.root.children
    (found,) = [
        dept for dept in db.children if dict(dept.label.key)["name"] == name
    ]
    return found


class TestEveryVersionIsTheFullMerge:
    @given(
        st.lists(st.one_of(st.none(), _state()), min_size=2, max_size=8),
        _configurations,
    )
    @settings(max_examples=80, deadline=None)
    def test_random_version_sequences(self, states, options):
        merge_both(
            [
                _state_to_document(state) if state is not None else None
                for state in states
            ],
            options,
        )

    @pytest.mark.parametrize("compaction", [False, True])
    def test_a_version_in_which_nothing_changed(self, compaction):
        """Not vacuous: the root enters whole at version 1 and fills the
        memo, and from version 2 every record is kept."""
        quiet = company(("dx", *staff("ann", "bob")), ("dy", *staff("cat")))
        archive, reports = merge_both(
            [quiet] * 5, ArchiveOptions(compaction=compaction)
        )
        assert kept_records(reports) == [0, 2, 2, 2, 2]
        last = reports[-1]
        assert last.nodes_kept == last.nodes_matched - 1  # all but <db>
        assert last.nodes_inserted == last.nodes_terminated == 0
        assert len(archive.kept.records) == 2

    def test_kept_records_leave_their_blocks_alone(self):
        """Records that inherit every timestamp extend nothing, so the
        blocks above them survive a version that only confirms them."""
        quiet = company(("dx", *staff("ann", "bob")), ("dy", *staff("cat")))
        archive, _ = merge_both([quiet] * 3)
        before = dict(archive.kept)
        assert before
        stats = archive.add_version(_copy(quiet))
        assert stats.records_kept == 2
        assert dict(archive.kept) == before
        for entry in archive.kept.records.values():
            assert entry.timestamps == [] and entry.owners == []
            assert entry.version == 4

    def test_a_record_deleted_and_reinserted_with_the_same_content(self):
        """Its entry went with it: the record that comes back is merged
        in full (its node's timestamp must gain the version)."""
        both = company(("dx", *staff("ann")), ("dy", *staff("cat")))
        one = company(("dx", *staff("ann")))
        archive, reports = merge_both([both, both, both, one, both, both])
        assert kept_records(reports) == [0, 2, 2, 1, 1, 2]
        assert department(archive, "dy").timestamp.to_text() == "1-3,5-6"

    def test_a_record_that_comes_back_after_a_batch(self):
        """A batch on a held tree confirms through the same memo, and
        ``dy`` — deleted inside the batch — leaves it: its old entry,
        which would bring it back without its timestamp, never hits."""
        both = company(("dx", *staff("ann")), ("dy", *staff("cat")))
        one = company(("dx", *staff("ann")))
        keeping, plain = Archive(SPEC), Archive(SPEC)
        keeping.kept = Kept()
        for archive in (keeping, plain):
            archive.add_version(_copy(both))
            archive.add_version(_copy(both))
        (old,) = [
            entry
            for entry in keeping.kept.records.values()
            if entry.node is department(keeping, "dy")
        ]
        batch = keeping.add_versions([_copy(one), _copy(one)])
        plain.add_versions([_copy(one), _copy(one)])
        assert batch.records_kept == 2  # dx, at versions 3 and 4
        assert old not in keeping.kept.records.values()
        assert {entry.version for entry in keeping.kept.records.values()} == {4}
        stats = keeping.add_version(_copy(both))
        assert stats.records_kept == 1  # dx; dy is merged in full
        plain.add_version(_copy(both))
        assert xbin._write_tree(keeping) == xbin._write_tree(plain)
        assert department(keeping, "dy").timestamp.to_text() == "1-2,5"
        assert keeping.add_version(_copy(both)).records_kept == 2

    def test_an_empty_version_confirms_nothing(self):
        quiet = company(("dx", *staff("ann")), ("dy", *staff("cat")))
        _, reports = merge_both([quiet, quiet, quiet, None, quiet, quiet, quiet])
        assert kept_records(reports) == [0, 2, 2, 0, 0, 2, 2]

    def test_keyed_siblings_reordered_inside_an_equal_record(self):
        """The digest is of the record as it arrived: another order is
        a miss, and the merge finds nothing changed."""
        forward = company(("dx", *staff("ann", "bob")), ("dy", *staff("cat")))
        backward = company(("dx", *staff("bob", "ann")), ("dy", *staff("cat")))
        archive, reports = merge_both([forward, forward, forward, backward, backward])
        assert kept_records(reports) == [0, 2, 2, 1, 2]
        changed = reports[3]
        assert changed.nodes_inserted == changed.nodes_terminated == 0
        assert changed.frontier_content_changes == 0
        assert archive.root.timestamp_count() == 2  # the root's and <db>'s

    def test_a_change_below_the_frontier(self):
        """``sal`` is a frontier node; what differs lies inside it."""
        def paid(amount):
            return parse_document(
                "<db><dept><name>dx</name><emp><fn>ann</fn><ln>smith</ln>"
                f"<sal><amount currency='usd'>{amount}</amount></sal>"
                "</emp></dept><dept><name>dy</name></dept></db>"
            )

        archive, reports = merge_both([paid(10), paid(10), paid(10), paid(20), paid(20)])
        assert kept_records(reports) == [0, 2, 2, 1, 2]
        assert reports[3].frontier_content_changes == 1
        # The alternative current since version 4 is what a hit extends.
        (entry,) = [
            entry
            for entry in archive.kept.records.values()
            if entry.node is department(archive, "dx")
        ]
        assert [stamp.to_text() for stamp in entry.timestamps] == ["4-5"]

    def test_a_kept_record_inserted_after_version_one(self):
        """It carries an explicit timestamp, which a hit must extend:
        the block it is encoded in — the root element's — is written
        again, while its own block, and its neighbours', are copied."""
        early = company(("dx", *staff("ann", "bob")))
        late = company(("dx", *staff("ann", "bob")), ("dz", *staff("eve", "fay")))
        archive, reports = merge_both([early, early, late, late])
        assert kept_records(reports) == [0, 1, 1, 2]
        (db,) = archive.root.children
        dx, dz = department(archive, "dx"), department(archive, "dz")
        assert dz.timestamp.to_text() == "3-4"
        before = dict(archive.kept)
        assert {id(db), id(dx), id(dz)} <= set(before)
        stats = archive.add_version(_copy(late))
        assert stats.records_kept == 2 and dz.timestamp.to_text() == "3-5"
        assert id(db) not in archive.kept
        assert archive.kept[id(dx)] is before[id(dx)]
        assert archive.kept[id(dz)] is before[id(dz)]
        encoded_three_ways(archive, None, None)
        assert archive.kept[id(db)] is not before[id(db)]


class TestWhatIsStillRefused:
    """Every key violation is raised before any tree is touched, with
    hits among the siblings it is checked against."""

    quiet = company(("dx", *staff("ann", "bob")), ("dy", *staff("cat")))

    @pytest.fixture
    def archive(self):
        archive, _ = merge_both([self.quiet] * 3)
        return archive

    @staticmethod
    def state(archive):
        memo = {
            digest: (entry.version, entry.count, list(entry.timestamps))
            for digest, entry in archive.kept.records.items()
        }
        return xbin._write_tree(archive), archive.last_version, memo, dict(archive.kept)

    def test_a_second_record_with_a_hits_key_but_other_content(self, archive):
        clash = company(
            ("dx", *staff("ann", "bob")),
            ("dy", *staff("cat")),
            ("dx", *staff("zed")),
        )
        before = self.state(archive)
        with pytest.raises(KeyViolationError) as refused:
            archive.add_version(clash)
        with pytest.raises(KeyViolationError) as memoless:
            Archive(SPEC).add_version(_copy(clash))
        assert str(refused.value) == str(memoless.value)
        assert "Duplicate key value dept{name=dx}" in str(refused.value)
        assert self.state(archive) == before
        assert archive.add_version(_copy(self.quiet)).records_kept == 2

    def test_the_same_record_twice_in_one_version(self, archive):
        twice = company(
            ("dx", *staff("ann", "bob")),
            ("dy", *staff("cat")),
            ("dx", *staff("ann", "bob")),
        )
        before = self.state(archive)
        with pytest.raises(KeyViolationError, match="Duplicate key value"):
            archive.add_version(twice)
        assert self.state(archive) == before

    def test_a_violation_inside_a_miss_beside_hits(self, archive):
        broken = company(("dx", *staff("ann", "bob")), ("dy", *staff("cat", "cat")))
        before = self.state(archive)
        with pytest.raises(KeyViolationError, match="emp"):
            archive.add_version(broken)
        assert self.state(archive) == before


# -- through the backends -----------------------------------------------------

_store_options = st.sampled_from(
    [
        ArchiveOptions(),
        ArchiveOptions(compaction=True),
        ArchiveOptions(fingerprinter=Fingerprinter(bits=2)),
    ]
)


class TestStoresAreTheSameFiles:
    @pytest.mark.parametrize("kind", ["chunked", "file"])
    @given(
        states=st.lists(st.one_of(st.none(), _state()), min_size=3, max_size=7),
        options=_store_options,
    )
    @settings(max_examples=12, deadline=None)
    def test_one_handle_a_handle_per_append_one_batch(self, kind, states, options):
        documents = [
            _state_to_document(state) if state is not None else None
            for state in states
        ]
        with tempfile.TemporaryDirectory() as scratch:

            def store(name):
                return create_archive(
                    f"{scratch}/{name}/store", COMPANY_KEY_TEXT, kind=kind,
                    chunk_count=2, codec="xbin", options=options,
                )

            def files(name):  # the archive's files: beside it, or inside
                base = f"{scratch}/{name}"
                return _files(base if kind == "file" else f"{base}/store")

            for name in ("one-handle", "per-append", "batch"):
                os.makedirs(f"{scratch}/{name}")
            one_handle = store("one-handle")
            for document in documents:
                one_handle.add_version(_copy(document))
            assert None not in kept_of(one_handle)  # its trees keep records
            one_handle.close()

            store("per-append").close()
            for document in documents:
                handle = open_archive(f"{scratch}/per-append/store", options=options)
                assert handle.add_version(_copy(document)).records_kept == 0
                handle.close()
            assert files("one-handle") == files("per-append")

            batch = store("batch")
            batch.ingest_batch(_copy(document) for document in documents)
            batch.close()
            if kind == "file":
                assert files("one-handle")["store"] == files("batch")["store"]
            else:
                ours = _payloads(f"{scratch}/one-handle/store")
                assert ours == _payloads(f"{scratch}/batch/store")

    @pytest.mark.parametrize("kind", ["chunked", "file"])
    def test_records_are_kept_through_a_handle(self, tmp_path, kind):
        """The property above is not vacuous, and a batch between two
        appends costs at most the memo, never the store."""
        quiet = company(
            ("dx", *staff("ann", "bob")), ("dy", *staff("cat")),
            ("dz", *staff("eve")), ("dw", ("fay", "jones", {"tel": TELS})),
        )
        busy = company(
            ("dx", *staff("ann", "bob")), ("dy", *staff("cat", "dan")),
            ("dz", *staff("eve")), ("dw", ("fay", "jones", {"tel": TELS})),
        )
        versions = [quiet, quiet, quiet, busy, busy, quiet, quiet]

        def store(name):
            (tmp_path / name).mkdir()
            return create_archive(
                str(tmp_path / name / "store"), COMPANY_KEY_TEXT, kind=kind,
                chunk_count=2, codec="xbin",
            )

        held = store("held")
        kept = [held.add_version(_copy(version)).records_kept for version in versions]
        # Version 1 enters whole and fills the memos.
        assert kept == [0, 4, 4, 3, 4, 3, 4]
        batch = held.ingest_batch([_copy(busy), _copy(busy)])
        kept = [held.add_version(_copy(busy)).records_kept for _ in range(3)]
        if kind == "chunked":
            # A chunked batch decodes every tree afresh (its first
            # version confirms nothing) and holds none afterwards.
            assert batch.records_kept == 4 and kept == [0, 4, 4]
        else:
            # The file backend batches on the tree it holds, memo and all.
            assert batch.records_kept == 3 + 4 and kept == [4, 4, 4]
        held.close()

        fresh = store("fresh")
        for version in versions + [busy] * 5:
            fresh.close()
            fresh = open_archive(str(tmp_path / "fresh" / "store"))
            fresh.add_version(_copy(version))
        fresh.close()
        # The payloads (the batch was one commit, not two: generations differ).
        if kind == "chunked":
            ours = _payloads(tmp_path / "held" / "store")
            assert ours == _payloads(tmp_path / "fresh" / "store")
        else:
            ours = _files(tmp_path / "held")["store"]
            assert ours == _files(tmp_path / "fresh")["store"]
