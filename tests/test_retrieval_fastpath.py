"""The retrieval fast path: archive-resident timestamp trees, the
mutation counter, copy-on-write content sharing, and chunk pruning.

Locks down the PR-2 contract: tree-guided retrieval is byte-identical
to the reference scan in every configuration, the trees are patched (not
rebuilt) as versions land, indexes built before an ``add_version`` never
serve stale answers, and the chunked store prunes whole chunk files
whose presence timestamps exclude the requested version.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Archive,
    ArchiveError,
    ArchiveOptions,
    Fingerprinter,
    ProbeCount,
    archive_diff,
    documents_equivalent,
)
from repro.core.tstree import TREE_MIN_CHILDREN
from repro.data import OmimChangeRates, OmimGenerator, omim_key_spec
from repro.data.company import company_key_spec, company_versions
from repro.indexes import KeyIndex, TimestampTreeIndex
from repro.storage import ChunkedArchiver, PersistentIngestor
from repro.xmltree import Element, Text
from repro.xmltree.serializer import to_string

CONFIGURATIONS = [
    ArchiveOptions(),
    ArchiveOptions(compaction=True),
    ArchiveOptions(fingerprinter=Fingerprinter(bits=64)),
    ArchiveOptions(fingerprinter=Fingerprinter(bits=2)),  # force collisions
    ArchiveOptions(fingerprinter=Fingerprinter(bits=64), compaction=True),
]


def _omim_archive(options=None, versions=8):
    generator = OmimGenerator(
        seed=11,
        initial_records=5,
        rates=OmimChangeRates(
            delete_fraction=0.1, insert_fraction=0.5, modify_fraction=0.3
        ),
    )
    archive = Archive(omim_key_spec(), options)
    for version in generator.generate_versions(versions):
        archive.add_version(version)
    return archive


class TestScanTreeEquivalence:
    @pytest.mark.parametrize("options", CONFIGURATIONS)
    def test_byte_identical_across_configs(self, options):
        archive = _omim_archive(options)
        for version in range(1, archive.last_version + 1):
            scan = archive.retrieve(version, guided=False)
            tree = archive.retrieve(version, guided=True)
            if scan is None or tree is None:
                assert scan is None and tree is None
                continue
            assert to_string(scan) == to_string(tree)

    @pytest.mark.parametrize("options", CONFIGURATIONS)
    def test_company_versions(self, options):
        archive = Archive(company_key_spec(), options)
        for version in company_versions():
            archive.add_version(version)
        for version in range(1, archive.last_version + 1):
            scan = archive.retrieve(version, guided=False)
            tree = archive.retrieve(version, guided=True)
            assert (scan is None) == (tree is None)
            if scan is not None:
                assert to_string(scan) == to_string(tree)

    def test_empty_versions(self):
        spec = company_key_spec()
        archive = Archive(spec)
        versions = company_versions()
        archive.add_version(versions[0])
        archive.add_version(None)
        archive.add_version(versions[1])
        assert archive.retrieve(2, guided=True) is None
        assert archive.retrieve(2, guided=False) is None
        assert to_string(archive.retrieve(3, guided=True)) == to_string(
            archive.retrieve(3, guided=False)
        )

    def test_shared_probe_counter_does_not_change_budgeting(self):
        """The 2k fallback threshold is budgeted per search, so passing
        a cumulative ProbeCount must not alter the work done — a shared
        counter crossing one node's budget used to force every later
        node into a spurious leaf scan."""
        archive = _omim_archive()
        for version in (1, archive.last_version):
            probes = ProbeCount()
            with_counter = archive.retrieve(version, probes=probes)
            without_counter = archive.retrieve(version)
            assert (with_counter is None) == (without_counter is None)
            if with_counter is not None:
                assert to_string(with_counter) == to_string(without_counter)
            # No per-node budget is ever exceeded by cumulative spill:
            # wide lists were searched through their trees, and the
            # by-design scans of short lists are not fallbacks.
            assert probes.fallback_scans == 0
            assert probes.tree_probes > 0 and probes.short_scans > 0

    def test_probe_savings_vs_scan(self):
        generator = OmimGenerator(
            seed=6,
            initial_records=6,
            rates=OmimChangeRates(
                delete_fraction=0.0, insert_fraction=0.6, modify_fraction=0.0
            ),
        )
        archive = Archive(omim_key_spec())
        for version in generator.generate_versions(9):
            archive.add_version(version)
        probes = ProbeCount()
        assert archive.retrieve(1, probes=probes) is not None
        assert probes.total() < archive.scan_probe_count(1)


def _departments(width, alive=lambda index: True):
    state = Element("db")
    for index in range(width):
        if alive(index):
            dept = state.append(Element("dept"))
            dept.append(Element("name")).append(Text(f"d{index:02d}"))
    return state


def _department_archive(width):
    """``width`` departments; the odd ones skip version 2."""
    archive = Archive(company_key_spec())
    archive.add_version(_departments(width))
    archive.add_version(_departments(width, alive=lambda index: index % 2 == 0))
    archive.add_version(_departments(width))
    return archive


class TestShortListsAreScanned:
    """Child lists below TREE_MIN_CHILDREN never get a timestamp tree;
    the rule looks at the child count and nothing else."""

    @pytest.mark.parametrize(
        "width",
        [1, TREE_MIN_CHILDREN - 1, TREE_MIN_CHILDREN, TREE_MIN_CHILDREN + 1, 20],
    )
    def test_guided_equals_scan_on_both_sides_of_the_bound(self, width):
        archive = _department_archive(width)
        for version in (1, 2, 3):
            assert to_string(archive.retrieve(version)) == to_string(
                archive.retrieve(version, guided=False)
            )

    def test_short_list_costs_its_child_count_and_no_tree(self):
        archive = _department_archive(TREE_MIN_CHILDREN - 1)
        database = archive.root.children[0]
        for version, alive in ((1, TREE_MIN_CHILDREN - 1), (2, TREE_MIN_CHILDREN // 2)):
            probes = ProbeCount()
            found = archive.relevant_children(
                database, version, archive.root.timestamp, probes
            )
            assert len(found) == alive
            assert probes.total() == probes.short_scans == len(database.children)
        archive.retrieve(2)
        assert not archive._trees

    def test_wide_list_probes_its_tree(self):
        archive = _department_archive(TREE_MIN_CHILDREN)
        database = archive.root.children[0]
        probes = ProbeCount()
        found = archive.relevant_children(
            database, 2, archive.root.timestamp, probes
        )
        assert found == list(range(0, TREE_MIN_CHILDREN, 2))
        assert probes.tree_probes > 0
        assert probes.short_scans == probes.fallback_scans == 0
        assert list(archive._trees) == [id(database)]

    def test_repeat_visits_count_the_same(self):
        archive = _omim_archive()
        first, second = ProbeCount(), ProbeCount()
        archive.retrieve(archive.last_version, probes=first)
        archive.retrieve(archive.last_version, probes=second)
        assert first == second
        assert first.tree_probes > 0 and first.short_scans > 0


# Hypothesis sweep: random keyed states across every configuration.

_names = st.sampled_from(["ann", "bob", "cat", "dan"])
_salaries = st.one_of(st.none(), st.sampled_from(["10K", "20K", "30K"]))


@st.composite
def _company_state(draw):
    state = Element("db")
    # Up to ten departments: child lists on both sides of
    # TREE_MIN_CHILDREN, so scanned and tree-searched lists both occur.
    for dept_name in sorted(
        draw(st.sets(st.sampled_from([f"d{i}" for i in range(10)]), max_size=10))
    ):
        dept = state.append(Element("dept"))
        dept.append(Element("name")).append(Text(dept_name))
        seen = set()
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            fn, ln = draw(_names), draw(_names)
            if (fn, ln) in seen:
                continue
            seen.add((fn, ln))
            emp = dept.append(Element("emp"))
            emp.append(Element("fn")).append(Text(fn))
            emp.append(Element("ln")).append(Text(ln))
            sal = draw(_salaries)
            if sal is not None:
                emp.append(Element("sal")).append(Text(sal))
    return state


class TestScanTreeEquivalenceProperties:
    @given(
        st.lists(st.one_of(st.none(), _company_state()), min_size=1, max_size=5),
        st.sampled_from(CONFIGURATIONS),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_states(self, states, options):
        archive = Archive(company_key_spec(), options)
        for state in states:
            archive.add_version(state.copy() if state is not None else None)
        for version in range(1, archive.last_version + 1):
            scan = archive.retrieve(version, guided=False)
            tree = archive.retrieve(version, guided=True)
            assert (scan is None) == (tree is None)
            if scan is not None:
                assert to_string(scan) == to_string(tree)


class TestMutationCounterAndPatching:
    def test_add_version_bumps_counter(self):
        archive = Archive(company_key_spec())
        before = archive.mutation_count
        archive.add_version(company_versions()[0])
        assert archive.mutation_count == before + 1
        archive.add_version(None)
        assert archive.mutation_count == before + 2

    def test_retrieve_does_not_bump_counter(self):
        archive = Archive(company_key_spec())
        archive.add_version(company_versions()[0])
        before = archive.mutation_count
        archive.retrieve(1)
        archive.retrieve(1, guided=False)
        assert archive.mutation_count == before

    def test_tree_patched_in_place_when_shape_stable(self):
        versions = company_versions()
        archive = Archive(company_key_spec())
        archive.add_version(versions[0])
        archive.retrieve(1)  # build the trees lazily
        root_ts = archive.root.timestamp
        tree_before = archive.timestamp_tree(archive.root, root_ts)
        # An empty version touches no child list, only timestamps.
        archive.add_version(None)
        archive.retrieve(1)
        tree_after = archive.timestamp_tree(
            archive.root, archive.root.timestamp
        )
        assert tree_after is tree_before  # same object: patched, not rebuilt
        # The patched root tree reflects the new root timestamp.
        assert 2 in archive.root.timestamp
        assert 2 not in tree_after.timestamp  # children terminated at v2

    def test_tree_rebuilt_when_children_change(self):
        spec = omim_key_spec()
        generator = OmimGenerator(
            seed=3,
            initial_records=3,
            rates=OmimChangeRates(
                delete_fraction=0.0, insert_fraction=1.0, modify_fraction=0.0
            ),
        )
        archive = Archive(spec)
        versions = generator.generate_versions(2)
        archive.add_version(versions[0])
        archive.retrieve(1)
        top = archive.root.children[0]  # the ROOT node holding records
        tree_before = archive.timestamp_tree(
            top, top.effective_timestamp(archive.root.timestamp)
        )
        child_count = len(top.children)
        archive.add_version(versions[1])  # inserts fresh records
        assert len(top.children) > child_count
        archive.retrieve(2)
        tree_after = archive.timestamp_tree(
            top, top.effective_timestamp(archive.root.timestamp)
        )
        assert tree_after is not tree_before

    def test_retrieval_correct_across_incremental_growth(self):
        """Retrieve between every ingested version: each query patches
        the trees against the new state and must agree with the scan."""
        generator = OmimGenerator(seed=5, initial_records=4)
        archive = Archive(omim_key_spec())
        for version in generator.generate_versions(6):
            archive.add_version(version)
            for number in range(1, archive.last_version + 1):
                scan = archive.retrieve(number, guided=False)
                tree = archive.retrieve(number, guided=True)
                assert (scan is None) == (tree is None)
                if scan is not None:
                    assert to_string(scan) == to_string(tree)


class TestIndexStaleness:
    def test_timestamp_tree_index_sees_new_versions(self):
        versions = company_versions()
        archive = Archive(company_key_spec())
        archive.add_version(versions[0])
        index = TimestampTreeIndex(archive)
        index.retrieve(1)
        archive.add_version(versions[1])  # no refresh() call
        document, probes = index.retrieve(2)
        assert documents_equivalent(
            document, archive.retrieve(2, guided=False), archive.spec
        )
        assert probes.total() > 0

    def test_key_index_sees_new_versions(self):
        versions = company_versions()
        archive = Archive(company_key_spec())
        archive.add_version(versions[0])
        index = KeyIndex(archive)
        before, _ = index.history("/db/dept[name=finance]")
        archive.add_version(versions[1])  # no refresh() call
        after, _ = index.history("/db/dept[name=finance]")
        assert after == archive.history("/db/dept[name=finance]").existence
        assert after != before

    def test_key_index_record_count_refreshes(self):
        versions = company_versions()
        archive = Archive(company_key_spec())
        archive.add_version(versions[0])
        index = KeyIndex(archive)
        before = index.record_count()
        archive.add_version(versions[1])  # inserts new employees
        assert index.record_count() > before

    def test_archive_history_tracks_mutations(self):
        versions = company_versions()
        archive = Archive(company_key_spec())
        archive.add_version(versions[0])
        archive.history("/db/dept[name=finance]")  # warm token caches
        for version in versions[1:]:
            archive.add_version(version)
        history = archive.history("/db/dept[name=finance]/emp[fn=John, ln=Doe]")
        assert history.existence.to_text() == "3-4"


class TestErrorGuards:
    def test_retrieve_empty_archive_raises_archive_error(self):
        archive = Archive(company_key_spec())
        with pytest.raises(ArchiveError):
            archive.retrieve(1)

    def test_missing_root_timestamp_is_archive_error(self):
        archive = Archive(company_key_spec())
        archive.root.timestamp = None
        with pytest.raises(ArchiveError):
            archive.retrieve(1)
        with pytest.raises(ArchiveError):
            archive.history("/db")
        with pytest.raises(ArchiveError):
            archive.last_version
        with pytest.raises(ArchiveError):
            archive_diff(archive, 1, 1)

    def test_history_missing_element_raises(self):
        archive = Archive(company_key_spec())
        archive.add_version(company_versions()[0])
        with pytest.raises(ArchiveError):
            archive.history("/db/dept[name=nowhere]")


class TestCopyOnWriteSharing:
    def test_default_retrieval_shares_frontier_content(self):
        archive = Archive(company_key_spec())
        archive.add_version(company_versions()[0])
        shared = archive.retrieve(1)
        copied = archive.retrieve(1, copy_content=True)
        assert to_string(shared) == to_string(copied)
        stored = {
            id(content)
            for node in _frontier_nodes(archive.root)
            for alternative in node.alternatives
            for content in alternative.content
        }
        shared_ids = {id(node) for node in _content_leaves(shared)}
        copied_ids = {id(node) for node in _content_leaves(copied)}
        assert shared_ids & stored  # shares the archive's stored nodes
        assert not (copied_ids & stored)  # deep copy on request

    def test_shared_content_survives_reingestion(self):
        """A retrieved (shared) document can be merged into another
        archive — annotate and merge never mutate their input."""
        archive = Archive(company_key_spec())
        for version in company_versions():
            archive.add_version(version)
        before = archive.to_xml_string()
        other = Archive(company_key_spec())
        for number in range(1, archive.last_version + 1):
            other.add_version(archive.retrieve(number))
        assert archive.to_xml_string() == before
        for number in range(1, archive.last_version + 1):
            a, b = archive.retrieve(number), other.retrieve(number)
            assert (a is None) == (b is None)
            if a is not None:
                assert documents_equivalent(a, b, archive.spec)


def _frontier_nodes(node):
    if node.alternatives is not None:
        yield node
    for child in node.children:
        yield from _frontier_nodes(child)


def _content_leaves(element):
    for child in element.children:
        yield child
        if isinstance(child, Element):
            yield from _content_leaves(child)


class TestChunkPruning:
    def _versions(self):
        def doc(*pairs):
            root = Element("ROOT")
            for num, text in pairs:
                record = root.append(Element("Record"))
                record.append(Element("Num")).append(Text(num))
                record.append(Element("Title")).append(Text(text))
            return root

        return [
            doc(("1", "a")),
            doc(("1", "a"), ("2", "b"), ("3", "c"), ("4", "d")),
            doc(("2", "b"), ("3", "c"), ("4", "d"), ("5", "e")),
        ]

    def test_retrieve_prunes_excluded_chunks(self, tmp_path):
        spec = omim_key_spec()
        versions = self._versions()
        chunked = ChunkedArchiver(str(tmp_path), spec, chunk_count=8)
        for version in versions:
            chunked.add_version(version.copy())
        monolithic = Archive(spec)
        for version in versions:
            monolithic.add_version(version.copy())
        # Expected prunes for v1: chunks on disk whose presence excludes 1.
        expected = sum(
            1
            for index in range(chunked.chunk_count)
            if os.path.exists(chunked._chunk_path(index))
            and 1 not in chunked.chunk_presence(index)
        )
        assert expected > 0  # records 2..5 land in other chunks than 1
        document = chunked.retrieve(1)
        assert chunked.chunks_pruned == expected
        assert documents_equivalent(
            document, monolithic.retrieve(1), spec
        )

    def test_unknown_presence_falls_back_to_parsing(self, tmp_path):
        spec = omim_key_spec()
        versions = self._versions()
        chunked = ChunkedArchiver(str(tmp_path), spec, chunk_count=4)
        for version in versions:
            chunked.add_version(version.copy())
        reopened = ChunkedArchiver(str(tmp_path), spec, chunk_count=4)
        assert reopened._presence == chunked._presence != {}
        reopened._presence = {}  # a map that names no chunk
        monolithic = Archive(spec)
        for version in versions:
            monolithic.add_version(version.copy())
        for number in range(1, len(versions) + 1):
            assert documents_equivalent(
                reopened.retrieve(number), monolithic.retrieve(number), spec
            )
        assert reopened.chunks_pruned == 0

    def test_persistent_ingestor_copy_content_isolates_cache(self, tmp_path):
        """Mutating a ``copy_content=True`` retrieval must not leak into
        the ingestor's cached chunk archives (which later flushes would
        persist)."""
        spec = omim_key_spec()
        versions = self._versions()
        ingestor = PersistentIngestor(str(tmp_path), spec, chunk_count=4)
        ingestor.ingest_batch([v.copy() for v in versions])
        document, _ = ingestor.retrieve(2, copy_content=True)
        before = to_string(ingestor.retrieve(2)[0])
        for node in document.iter_elements():
            if node.tag == "Title" and node.children:
                node.children[0].text = "VANDALIZED"
        assert to_string(ingestor.retrieve(2)[0]) == before

    def test_persistent_ingestor_prunes_unadopted_chunks(self, tmp_path):
        spec = omim_key_spec()
        versions = self._versions()
        ingestor = PersistentIngestor(str(tmp_path), spec, chunk_count=8)
        ingestor.ingest_batch([v.copy() for v in versions])
        ingestor.drop_caches()  # force re-adoption through the prune gate
        expected = sum(
            1
            for index in range(ingestor.backend.chunk_count)
            if os.path.exists(ingestor.backend._chunk_path(index))
            and 1 not in ingestor.backend.chunk_presence(index)
        )
        document, _ = ingestor.retrieve(1)
        assert ingestor.chunks_pruned == expected > 0
        monolithic = Archive(spec)
        for version in versions:
            monolithic.add_version(version.copy())
        assert documents_equivalent(document, monolithic.retrieve(1), spec)


class TestWeaveHistoryRuns:
    def test_changes_match_per_version_rendering(self):
        """The run-based weave history equals the brute-force
        version-at-a-time computation, including delete/reinsert gaps."""
        spec = company_key_spec()
        options = ArchiveOptions(compaction=True)

        def doc(salary):
            db = Element("db")
            dept = db.append(Element("dept"))
            dept.append(Element("name")).append(Text("finance"))
            emp = dept.append(Element("emp"))
            emp.append(Element("fn")).append(Text("John"))
            emp.append(Element("ln")).append(Text("Doe"))
            emp.append(Element("sal")).append(Text(salary))
            return db

        def doc_without_emp():
            db = Element("db")
            dept = db.append(Element("dept"))
            dept.append(Element("name")).append(Text("finance"))
            return db

        archive = Archive(spec, options)
        for document in [
            doc("10K"),
            doc("10K"),
            doc("20K"),
            doc_without_emp(),  # John vanishes at v4
            doc("20K"),  # ... and returns
            doc("10K"),
        ]:
            archive.add_version(document)
        path = "/db/dept[name=finance]/emp[fn=John, ln=Doe]/sal"
        history = archive.history(path)
        node = archive.root
        inherited = archive.root.timestamp
        for step in ["db", "dept", "emp", "sal"]:
            for child in node.children:
                if child.label.tag == step:
                    inherited = child.effective_timestamp(inherited)
                    node = child
                    break
        assert node.weave is not None
        # Brute force: render every living version, group equal runs.
        from repro.core import VersionSet

        expected = []
        previous, run = None, None
        for version in history.existence:
            rendered = "\n".join(node.weave.lines_at(version))
            if rendered == previous and run is not None:
                run.add(version)
            else:
                if run is not None and previous is not None:
                    expected.append((run.to_text(), previous))
                run = VersionSet([version])
                previous = rendered
        if run is not None and previous is not None:
            expected.append((run.to_text(), previous))
        got = [(ts.to_text(), content) for ts, content in history.changes]
        assert got == expected
