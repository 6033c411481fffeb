"""Tests for the archiver facade: merge, retrieval, history, XML round-trip."""

import pytest

from repro.core import (
    Archive,
    ArchiveError,
    ArchiveOptions,
    AttributeChangeError,
    Fingerprinter,
    documents_equivalent,
)
from repro.data.company import company_key_spec, company_version, company_versions
from repro.keys import KeySpec, empty_spec, key
from repro.xmltree import parse_document


@pytest.fixture
def spec():
    return company_key_spec()


def archive_of_company(options=None):
    archive = Archive(company_key_spec(), options)
    for version in company_versions():
        archive.add_version(version)
    return archive


class TestAddVersion:
    def test_version_numbers_advance(self, spec):
        archive = Archive(spec)
        assert archive.last_version == 0
        archive.add_version(company_version(1))
        assert archive.last_version == 1
        archive.add_version(company_version(2))
        assert archive.last_version == 2

    def test_merge_stats(self, spec):
        archive = Archive(spec)
        stats1 = archive.add_version(company_version(1))
        assert stats1.nodes_inserted >= 1
        stats2 = archive.add_version(company_version(2))
        assert stats2.nodes_inserted >= 1  # Jane Smith appears
        assert stats2.nodes_matched >= 1

    def test_empty_version(self, spec):
        archive = Archive(spec)
        archive.add_version(company_version(1))
        archive.add_version(None)
        assert archive.last_version == 2
        assert archive.retrieve(2) is None
        assert documents_equivalent(archive.retrieve(1), company_version(1), spec)

    def test_rejected_version_touches_no_timestamp(self, spec):
        """Annotation is the validation, and it runs first: a key
        violation must not leave the root timestamp a version ahead."""
        from repro.keys import KeyViolationError, annotate_keys

        archive = Archive(spec)
        archive.add_version(company_version(1))
        before = archive.to_xml_string()
        duplicate = parse_document(
            "<db><dept><name>a</name></dept><dept><name>a</name></dept></db>"
        )
        with pytest.raises(KeyViolationError):
            archive.add_version(duplicate)
        with pytest.raises(KeyViolationError):
            archive.add_versions([duplicate])
        assert archive.kept is None  # a failed batch keeps no memo either
        assert archive.last_version == 1
        assert archive.to_xml_string() == before
        # An annotation the caller already paid for is taken as it is.
        archive.add_version(annotate_keys(company_version(2), spec))
        assert documents_equivalent(archive.retrieve(2), company_version(2), spec)

    def test_element_reappears_after_empty_version(self, spec):
        archive = Archive(spec)
        archive.add_version(company_version(1))
        archive.add_version(None)
        archive.add_version(company_version(1))
        history = archive.history("/db")
        assert history.existence.to_text() == "1,3"


class TestRetrieve:
    @pytest.mark.parametrize("compaction", [False, True])
    def test_all_versions_round_trip(self, spec, compaction):
        archive = archive_of_company(ArchiveOptions(compaction=compaction))
        for number, original in enumerate(company_versions(), start=1):
            rebuilt = archive.retrieve(number)
            assert rebuilt is not None
            assert documents_equivalent(rebuilt, original, spec)

    def test_retrieve_unknown_version_raises(self, spec):
        archive = archive_of_company()
        with pytest.raises(ArchiveError):
            archive.retrieve(99)

    def test_retrieval_does_not_mutate_archive(self, spec):
        archive = archive_of_company()
        before = archive.to_xml_string()
        archive.retrieve(3)
        assert archive.to_xml_string() == before

    def test_idempotent_merge(self, spec):
        """Merging an identical version twice stores almost nothing new."""
        archive = Archive(spec)
        archive.add_version(company_version(4))
        nodes_before = archive.root.node_count()
        archive.add_version(company_version(4))
        assert archive.root.node_count() == nodes_before
        assert documents_equivalent(archive.retrieve(2), company_version(4), spec)


class TestTimestamps:
    def test_timestamp_superset_invariant(self, spec):
        """A node's timestamp is a superset of every descendant's (Sec. 2)."""
        archive = archive_of_company()

        def check(node, inherited):
            timestamp = node.effective_timestamp(inherited)
            assert inherited.issuperset(timestamp)
            for child in node.children:
                check(child, timestamp)

        root_timestamp = archive.root.timestamp
        for child in archive.root.children:
            check(child, root_timestamp)

    def test_marketing_dept_only_version3(self):
        archive = archive_of_company()
        history = archive.history("/db/dept[name=marketing]")
        assert history.existence.to_text() == "3"

    def test_gene_continuity_preserved(self):
        """The Fig. 1 motivating example: swapped gene data keeps identity."""
        gene_spec = KeySpec(
            explicit_keys=[
                key("/", "genes"),
                key("/genes", "gene", ("id",)),
                key("/genes/gene", "name"),
                key("/genes/gene", "seq"),
                key("/genes/gene", "pos"),
            ]
        )
        v1 = parse_document(
            "<genes>"
            "<gene><id>6230</id><name>GRTM</name><seq>GTCG</seq><pos>11A52</pos></gene>"
            "<gene><id>2953</id><name>ACV2</name><seq>AGTT</seq><pos>08A96</pos></gene>"
            "</genes>"
        )
        v2 = parse_document(
            "<genes>"
            "<gene><id>2953</id><name>ACV2</name><seq>GTCG</seq><pos>11A52</pos></gene>"
            "<gene><id>6230</id><name>GRTM</name><seq>AGTT</seq><pos>08A96</pos></gene>"
            "</genes>"
        )
        archive = Archive(gene_spec)
        archive.add_version(v1)
        archive.add_version(v2)
        # Gene 6230 exists throughout — identity by key, not by position.
        assert archive.history("/genes/gene[id=6230]").existence.to_text() == "1-2"
        # Its name never changed; its sequence did.
        name_changes = archive.history("/genes/gene[id=6230]/name").changes
        assert len(name_changes) == 1
        seq_changes = archive.history("/genes/gene[id=6230]/seq").changes
        assert len(seq_changes) == 2


class TestHistory:
    def test_paper_example(self):
        """Sec. 7.2: John Doe's history is versions 3,4."""
        archive = archive_of_company()
        history = archive.history("/db/dept[name=finance]/emp[fn=John, ln=Doe]")
        assert history.existence.to_text() == "3-4"

    def test_salary_changes(self):
        archive = archive_of_company()
        history = archive.history("/db/dept[name=finance]/emp[fn=John, ln=Doe]/sal")
        changes = [(ts.to_text(), content) for ts, content in history.changes]
        assert changes == [("3", "90K"), ("4", "95K")]

    def test_tel_keyed_by_content(self):
        archive = archive_of_company()
        history = archive.history(
            "/db/dept[name=finance]/emp[fn=Jane, ln=Smith]/tel[.=112-3456]"
        )
        assert history.existence.to_text() == "4"

    def test_missing_element_raises(self):
        archive = archive_of_company()
        with pytest.raises(ArchiveError):
            archive.history("/db/dept[name=hr]")

    def test_malformed_path_raises(self):
        archive = archive_of_company()
        with pytest.raises(ArchiveError):
            archive.history("db/dept")
        with pytest.raises(ArchiveError):
            archive.history("/db/dept[name=finance")


class TestXMLRoundTrip:
    @pytest.mark.parametrize("compaction", [False, True])
    def test_round_trip_preserves_all_versions(self, spec, compaction):
        options = ArchiveOptions(compaction=compaction)
        archive = archive_of_company(options)
        text = archive.to_xml_string()
        again = Archive.from_xml_string(text, spec, options)
        for number in range(1, 5):
            assert documents_equivalent(
                archive.retrieve(number), again.retrieve(number), spec
            )

    def test_round_trip_stable(self, spec):
        archive = archive_of_company()
        text = archive.to_xml_string()
        again = Archive.from_xml_string(text, spec)
        assert again.to_xml_string() == text

    def test_archive_is_valid_xml(self, spec):
        text = archive_of_company().to_xml_string()
        parsed = parse_document(text)
        assert parsed.tag == "T"
        assert parsed.get_attribute("t") == "1-4"

    def test_from_xml_rejects_garbage(self, spec):
        with pytest.raises(ArchiveError):
            Archive.from_xml_string("<notanarchive/>", spec)

    def test_continue_archiving_after_round_trip(self, spec):
        archive = Archive(spec)
        for version in company_versions()[:2]:
            archive.add_version(version)
        revived = Archive.from_xml_string(archive.to_xml_string(), spec)
        for version in company_versions()[2:]:
            revived.add_version(version)
        for number, original in enumerate(company_versions(), start=1):
            assert documents_equivalent(revived.retrieve(number), original, spec)


class TestFingerprints:
    def test_fingerprint_merge_equivalent(self, spec):
        plain = archive_of_company()
        fp = archive_of_company(ArchiveOptions(fingerprinter=Fingerprinter(bits=64)))
        for number in range(1, 5):
            assert documents_equivalent(
                plain.retrieve(number), fp.retrieve(number), spec
            )

    def test_weak_fingerprints_still_correct(self, spec):
        """1-bit fingerprints collide constantly; archive stays correct."""
        options = ArchiveOptions(fingerprinter=Fingerprinter(bits=1))
        archive = archive_of_company(options)
        for number, original in enumerate(company_versions(), start=1):
            assert documents_equivalent(archive.retrieve(number), original, spec)

    def test_fingerprinter_validates_bits(self):
        with pytest.raises(ValueError):
            Fingerprinter(bits=0)
        with pytest.raises(ValueError):
            Fingerprinter(bits=512)

    def test_fingerprint_respects_value_equality(self):
        fp = Fingerprinter(bits=64)
        assert fp.fingerprint("abc") == fp.fingerprint("abc")
        assert fp.fingerprint("abc") != fp.fingerprint("abd")


class TestUnkeyedDocuments:
    def test_empty_spec_sccs_degeneration(self):
        """Without keys the whole document is one frontier (Sec. 2)."""
        spec = empty_spec()
        archive = Archive(spec, ArchiveOptions(compaction=True))
        v1 = parse_document("<doc><line>a</line><line>b</line></doc>")
        v2 = parse_document("<doc><line>a</line><line>c</line></doc>")
        archive.add_version(v1)
        archive.add_version(v2)
        assert documents_equivalent(archive.retrieve(1), v1, spec)
        assert documents_equivalent(archive.retrieve(2), v2, spec)

    def test_empty_spec_shares_common_lines(self):
        spec = empty_spec()
        archive = Archive(spec, ArchiveOptions(compaction=True))
        lines_v1 = "".join(f"<line>row {i}</line>" for i in range(50))
        lines_v2 = "".join(f"<line>row {i}</line>" for i in range(51))
        archive.add_version(parse_document(f"<doc>{lines_v1}</doc>"))
        archive.add_version(parse_document(f"<doc>{lines_v2}</doc>"))
        weave = archive.root.children[0].weave
        # 51 distinct lines total, not 101: common content stored once.
        assert weave.line_count() == 51


class TestAttributes:
    def test_attributes_preserved(self):
        spec = KeySpec(
            explicit_keys=[
                key("/", "site"),
                key("/site", "item", ("id",)),
                key("/site/item", "name"),
            ]
        )
        archive = Archive(spec)
        v1 = parse_document('<site><item id="i1"><name>a</name></item></site>')
        archive.add_version(v1)
        rebuilt = archive.retrieve(1)
        assert rebuilt.find("item").get_attribute("id") == "i1"

    def test_attribute_mutation_rejected(self):
        spec = KeySpec(
            explicit_keys=[
                key("/", "site"),
                key("/site", "item", ("name",)),
            ]
        )
        archive = Archive(spec)
        archive.add_version(
            parse_document('<site><item flag="x"><name>a</name></item></site>')
        )
        with pytest.raises(AttributeChangeError):
            archive.add_version(
                parse_document('<site><item flag="y"><name>a</name></item></site>')
            )


class TestStats:
    def test_stats_shape(self):
        archive = archive_of_company()
        stats = archive.stats()
        assert stats.versions == 4
        assert stats.nodes > 10
        assert stats.stored_timestamps >= 1
        assert stats.serialized_bytes > 100
