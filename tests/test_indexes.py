"""Tests for timestamp trees (Sec. 7.1) and the key index (Sec. 7.2)."""

import pytest

from repro.core import Archive, ArchiveError, VersionSet, documents_equivalent
from repro.data import OmimGenerator, omim_key_spec
from repro.data.company import company_key_spec, company_versions
from repro.indexes import (
    KeyIndex,
    TimestampTreeIndex,
    build_timestamp_tree,
    search_timestamp_tree,
)
from repro.core.nodes import ArchiveNode
from repro.core.tstree import TREE_MIN_CHILDREN
from repro.keys.annotate import KeyLabel


def company_archive():
    archive = Archive(company_key_spec())
    for version in company_versions():
        archive.add_version(version)
    return archive


def _leaf(tag, versions, inherited):
    return ArchiveNode(
        label=KeyLabel(tag=tag, key=()), timestamp=VersionSet(versions)
    )


class TestTimestampTree:
    def test_build_empty(self):
        assert build_timestamp_tree([], VersionSet([1])) is None

    def test_root_union(self):
        inherited = VersionSet.parse("1-9")
        children = [
            _leaf("a", [1, 2], inherited),
            _leaf("b", [3, 4, 5], inherited),
            _leaf("c", [7], inherited),
        ]
        tree = build_timestamp_tree(children, inherited)
        assert tree.timestamp == VersionSet.parse("1-5,7")

    def test_search_finds_relevant_children(self):
        inherited = VersionSet.parse("1-9")
        children = [
            _leaf("a", [1, 2], inherited),
            _leaf("b", [3, 4, 5], inherited),
            _leaf("c", [2, 7], inherited),
            _leaf("d", [9], inherited),
        ]
        tree = build_timestamp_tree(children, inherited)
        assert search_timestamp_tree(tree, 2, 4) == [0, 2]
        assert search_timestamp_tree(tree, 9, 4) == [3]
        assert search_timestamp_tree(tree, 6, 4) == []

    def test_paper_figure15_shape(self):
        """Fig. 15: searching version 2 prunes the 3-9 subtree."""
        inherited = VersionSet.parse("1-9")
        timestamps = ["1-2", "1-2", "3-5", "4", "3-5", "3-5", "4-6", "3-5,7-9"]
        children = [
            ArchiveNode(
                label=KeyLabel(tag=f"l{i}", key=()),
                timestamp=VersionSet.parse(text),
            )
            for i, text in enumerate(timestamps, start=1)
        ]
        tree = build_timestamp_tree(children, inherited)
        from repro.indexes import ProbeCount

        probes = ProbeCount()
        found = search_timestamp_tree(tree, 2, len(children), probes)
        assert found == [0, 1]
        # Pruning means far fewer probes than the full tree (15 nodes).
        assert probes.tree_probes < 10

    def test_inherited_timestamp_children(self):
        inherited = VersionSet.parse("1-4")
        children = [ArchiveNode(label=KeyLabel(tag="a", key=()), timestamp=None)]
        tree = build_timestamp_tree(children, inherited)
        assert search_timestamp_tree(tree, 3, 1) == [0]


class TestTimestampTreeIndex:
    def test_indexed_retrieval_matches_plain(self):
        archive = company_archive()
        index = TimestampTreeIndex(archive)
        spec = company_key_spec()
        for version in range(1, 5):
            plain = archive.retrieve(version)
            indexed, probes = index.retrieve(version)
            assert documents_equivalent(plain, indexed, spec)
            assert probes.total() > 0

    def test_unknown_version_raises(self):
        index = TimestampTreeIndex(company_archive())
        with pytest.raises(ValueError):
            index.retrieve(40)

    def test_probe_savings_on_sparse_version(self):
        """Retrieving a sparse early version probes far fewer nodes than
        the naive scan when the archive has accreted many elements."""
        spec = omim_key_spec()
        generator = OmimGenerator(seed=9, initial_records=4)
        # Accrete aggressively so version 1 is a small slice of the end.
        from repro.data import OmimChangeRates

        generator.rates = OmimChangeRates(
            delete_fraction=0.0, insert_fraction=0.8, modify_fraction=0.0
        )
        archive = Archive(spec)
        for version in generator.generate_versions(8):
            archive.add_version(version)
        index = TimestampTreeIndex(archive)
        _, probes = index.retrieve(1)
        naive = index.naive_probe_count(1)
        assert probes.total() < naive

    def test_tree_node_count_covers_wide_lists_only(self):
        """The space cost counts the trees retrieval uses: one per child
        list of TREE_MIN_CHILDREN or more, none for shorter lists."""
        # Every child list of the company archive is short.
        assert TimestampTreeIndex(company_archive()).tree_node_count() == 0
        archive = Archive(omim_key_spec())
        archive.add_version(
            OmimGenerator(seed=2, initial_records=9).generate_versions(1)[0]
        )
        widths, stack = [], [archive.root]
        while stack:
            node = stack.pop()
            widths.append(len(node.children))
            stack.extend(node.children)
        assert 9 in widths and min(w for w in widths if w) < TREE_MIN_CHILDREN
        # A tree over k leaves has 2k - 1 nodes.
        assert TimestampTreeIndex(archive).tree_node_count() == sum(
            2 * w - 1 for w in widths if w >= TREE_MIN_CHILDREN
        )


class TestKeyIndex:
    def test_history_matches_archive(self):
        archive = company_archive()
        index = KeyIndex(archive)
        for path in [
            "/db",
            "/db/dept[name=finance]",
            "/db/dept[name=marketing]",
            "/db/dept[name=finance]/emp[fn=John, ln=Doe]",
            "/db/dept[name=finance]/emp[fn=Jane, ln=Smith]",
            "/db/dept[name=finance]/emp[fn=John, ln=Doe]/sal",
        ]:
            expected = archive.history(path).existence
            got, comparisons = index.history(path)
            assert got == expected, path
            assert comparisons >= 1

    def test_paper_example(self):
        """Sec. 7.2: John Doe's history via the index is 3,4."""
        index = KeyIndex(company_archive())
        timestamps, _ = index.history(
            "/db/dept[name=finance]/emp[fn=John, ln=Doe]"
        )
        assert timestamps.to_text() == "3-4"

    def test_missing_element_raises(self):
        index = KeyIndex(company_archive())
        with pytest.raises(ArchiveError):
            index.history("/db/dept[name=hr]")

    def test_comparisons_logarithmic(self):
        """O(l log d): the comparison count stays near l * log2(d)."""
        spec = omim_key_spec()
        generator = OmimGenerator(seed=3, initial_records=200)
        archive = Archive(spec)
        version = generator.initial_version()
        archive.add_version(version)
        index = KeyIndex(archive)
        record = version.find("Record")
        num = record.find("Num").text_content()
        _, comparisons = index.history(f"/ROOT/Record[Num={num}]")
        # Two steps; degree ~200 → ~2 * 8 comparisons, far below 200.
        assert comparisons < 40

    def test_record_count(self):
        index = KeyIndex(company_archive())
        assert index.record_count() >= 8
