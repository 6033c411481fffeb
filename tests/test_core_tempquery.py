"""Tests for temporal queries / semantic change reports (core.tempquery)."""

import pytest

import repro
from repro.core import (
    Archive,
    ArchiveError,
    ArchiveOptions,
    archive_diff,
    keyed_diff,
)
from repro.data.company import company_key_spec, company_versions
from repro.keys import KeySpec, key
from repro.xmltree import parse_document


def company_archive(options=None):
    archive = Archive(company_key_spec(), options)
    for version in company_versions():
        archive.add_version(version)
    return archive


class TestArchiveDiff:
    def test_additions_reported(self):
        archive = company_archive()
        report = archive_diff(archive, 1, 2)
        assert [c.path for c in report.added()] == [
            "/db/dept[name=finance]/emp[fn=Jane, ln=Smith]"
        ]
        assert not report.deleted()
        assert not report.changed()

    def test_deletion_reported(self):
        archive = company_archive()
        report = archive_diff(archive, 3, 4)
        deleted = [c.path for c in report.deleted()]
        assert "/db/dept[name=marketing]" in deleted

    def test_content_change_reported(self):
        archive = company_archive()
        report = archive_diff(archive, 3, 4)
        changed = {c.path: (c.old_content, c.new_content) for c in report.changed()}
        sal_path = "/db/dept[name=finance]/emp[fn=John, ln=Doe]/sal"
        assert changed[sal_path] == ("90K", "95K")

    def test_subtree_reported_once(self):
        """A deleted department is one change, not one per descendant."""
        archive = company_archive()
        report = archive_diff(archive, 3, 4)
        marketing = [c for c in report.changes if "marketing" in c.path]
        assert len(marketing) == 1

    def test_no_changes_between_identical_versions(self):
        spec = company_key_spec()
        archive = Archive(spec)
        archive.add_version(company_versions()[3])
        archive.add_version(company_versions()[3])
        report = archive_diff(archive, 1, 2)
        assert len(report) == 0
        assert str(report).endswith("none")

    def test_backwards_diff(self):
        archive = company_archive()
        forward = archive_diff(archive, 1, 2)
        backward = archive_diff(archive, 2, 1)
        assert [c.path for c in forward.added()] == [
            c.path for c in backward.deleted()
        ]

    def test_unknown_version_raises(self):
        archive = company_archive()
        with pytest.raises(ArchiveError):
            archive_diff(archive, 1, 99)

    def test_weave_mode_content_change(self):
        archive = company_archive(ArchiveOptions(compaction=True))
        report = archive_diff(archive, 3, 4)
        sal_changes = [c for c in report.changed() if c.path.endswith("/sal")]
        assert len(sal_changes) == 1


class TestKeyedDiff:
    GENE_SPEC = KeySpec(
        explicit_keys=[
            key("/", "genes"),
            key("/genes", "gene", ("id",)),
            key("/genes/gene", "name"),
            key("/genes/gene", "seq"),
        ]
    )

    def test_figure1_is_described_sensibly(self):
        """The motivating example: keyed diff never 'renames' genes."""
        v1 = parse_document(
            "<genes>"
            "<gene><id>6230</id><name>GRTM</name><seq>GTCG</seq></gene>"
            "<gene><id>2953</id><name>ACV2</name><seq>AGTT</seq></gene>"
            "</genes>"
        )
        v2 = parse_document(
            "<genes>"
            "<gene><id>2953</id><name>ACV2</name><seq>GTCG</seq></gene>"
            "<gene><id>6230</id><name>GRTM</name><seq>AGTT</seq></gene>"
            "</genes>"
        )
        report = keyed_diff(v1, v2, self.GENE_SPEC)
        # No gene is added or deleted — only sequences changed.
        assert not report.added()
        assert not report.deleted()
        assert {c.path for c in report.changed()} == {
            "/genes/gene[id=6230]/seq",
            "/genes/gene[id=2953]/seq",
        }

    def test_reorder_is_no_change(self):
        v1 = parse_document(
            "<genes><gene><id>1</id><name>A</name><seq>x</seq></gene>"
            "<gene><id>2</id><name>B</name><seq>y</seq></gene></genes>"
        )
        v2 = parse_document(
            "<genes><gene><id>2</id><name>B</name><seq>y</seq></gene>"
            "<gene><id>1</id><name>A</name><seq>x</seq></gene></genes>"
        )
        assert len(keyed_diff(v1, v2, self.GENE_SPEC)) == 0


class TestPointQueries:
    def test_first_appearance(self):
        archive = company_archive()
        path = "/db/dept[name=finance]/emp[fn=John, ln=Doe]"
        assert repro.open(archive).first_appearance(path) == 3

    def test_last_change_of_frontier(self):
        archive = company_archive()
        path = "/db/dept[name=finance]/emp[fn=John, ln=Doe]/sal"
        assert repro.open(archive).last_change(path) == 4

    def test_last_change_of_stable_element(self):
        archive = company_archive()
        path = "/db/dept[name=finance]/emp[fn=John, ln=Doe]/tel[.=123-4567]"
        assert repro.open(archive).last_change(path) == 3  # unchanged since creation
