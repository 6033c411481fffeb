"""Tests for Annotate Keys (Sec. 4.1) and key validation."""

import os

import pytest
from test_xmltree_model import assert_acyclic

from repro.data.company import COMPANY_KEY_TEXT, company_key_spec, company_version
from repro.keys import (
    KeyCoverageError,
    KeyLabel,
    KeyViolationError,
    annotate_keys,
    check_document,
    empty_spec,
    iter_keyed_nodes,
    key,
    KeySpec,
    satisfies,
)
from repro.keys import annotate as annotate_module
from repro.storage import create_archive
from repro.xmltree import parse_document


@pytest.fixture
def spec():
    return company_key_spec()


class TestAnnotateCompany:
    def test_version4_emp_labels(self, spec):
        doc = annotate_keys(company_version(4), spec)
        emp_labels = {
            str(label)
            for node, label in iter_keyed_nodes(doc)
            if node.tag == "emp"
        }
        assert emp_labels == {
            "emp{fn=John, ln=Doe}",
            "emp{fn=Jane, ln=Smith}",
        }

    def test_dept_label(self, spec):
        doc = annotate_keys(company_version(4), spec)
        dept = doc.root.find("dept")
        assert str(doc.label(dept)) == "dept{name=finance}"

    def test_tel_keyed_by_contents(self, spec):
        doc = annotate_keys(company_version(4), spec)
        tels = [
            str(label)
            for node, label in iter_keyed_nodes(doc)
            if node.tag == "tel"
        ]
        assert "tel{.=123-4567}" in tels
        assert "tel{.=112-3456}" in tels

    def test_singleton_keys_have_empty_key(self, spec):
        doc = annotate_keys(company_version(4), spec)
        sal = doc.root.find("dept").find("emp").find("sal")
        assert doc.label(sal) == KeyLabel(tag="sal", key=())

    def test_frontier_classification(self, spec):
        doc = annotate_keys(company_version(4), spec)
        dept = doc.root.find("dept")
        emp = dept.find("emp")
        assert doc.is_frontier(dept.find("name"))
        assert doc.is_frontier(emp.find("sal"))
        assert not doc.is_frontier(emp)
        assert not doc.is_frontier(doc.root)

    def test_all_versions_annotate(self, spec):
        for number in range(1, 5):
            doc = annotate_keys(company_version(number), spec)
            assert doc.label(doc.root) is not None

    def test_same_name_different_dept_allowed(self, spec):
        # Version 3 has John Doe in both finance and marketing.
        doc = annotate_keys(company_version(3), spec)
        emps = [n for n, lab in iter_keyed_nodes(doc) if n.tag == "emp"]
        assert len(emps) == 2


class TestAnnotateViolations:
    def test_missing_key_path(self, spec):
        doc = parse_document("<db><dept><name>x</name><emp><fn>A</fn></emp></dept></db>")
        with pytest.raises(KeyViolationError):
            annotate_keys(doc, spec)

    def test_duplicate_key_path(self, spec):
        doc = parse_document(
            "<db><dept><name>x</name>"
            "<emp><fn>A</fn><fn>B</fn><ln>C</ln></emp></dept></db>"
        )
        with pytest.raises(KeyViolationError):
            annotate_keys(doc, spec)

    def test_duplicate_siblings(self, spec):
        doc = parse_document(
            "<db><dept><name>x</name>"
            "<emp><fn>A</fn><ln>B</ln></emp>"
            "<emp><fn>A</fn><ln>B</ln></emp>"
            "</dept></db>"
        )
        with pytest.raises(KeyViolationError):
            annotate_keys(doc, spec)

    def test_uncovered_node(self, spec):
        doc = parse_document(
            "<db><dept><name>x</name><mystery/></dept></db>"
        )
        with pytest.raises(KeyCoverageError):
            annotate_keys(doc, spec)

    def test_stray_text_above_frontier(self, spec):
        doc = parse_document("<db><dept>stray<name>x</name></dept></db>")
        with pytest.raises(KeyCoverageError):
            annotate_keys(doc, spec)


class TestAnnotateEdgeCases:
    def test_empty_spec_makes_root_frontier(self):
        doc = parse_document("<lines><line>a</line><line>a</line></lines>")
        annotated = annotate_keys(doc, empty_spec())
        assert annotated.is_frontier(annotated.root)

    def test_attribute_key(self):
        spec = KeySpec(explicit_keys=[key("/", "site"), key("/site", "item", ("id",))])
        doc = parse_document('<site><item id="i1"/><item id="i2"/></site>')
        annotated = annotate_keys(doc, spec)
        labels = {str(lab) for _, lab in iter_keyed_nodes(annotated) if lab.tag == "item"}
        assert labels == {"item{id=i1}", "item{id=i2}"}

    def test_content_beyond_frontier_unlabeled(self, spec):
        doc = parse_document(
            "<db><dept><name>x</name>"
            "<emp><fn>A</fn><ln>B</ln><tel><area>215</area></tel></emp>"
            "</dept></db>"
        )
        annotated = annotate_keys(doc, spec)
        tel = annotated.root.find("dept").find("emp").find("tel")
        area = tel.find("area")
        assert annotated.label(area) is None


class TestSatisfaction:
    def test_company_versions_satisfy(self, spec):
        for number in range(1, 5):
            assert satisfies(company_version(number), spec)

    def test_paper_appendix_example(self):
        # Appendix A.4: the document violates (/DB/A, {B}) but satisfies
        # (/DB/A, {C}).
        doc = parse_document(
            "<DB><A><B>1</B><C>1</C></A><A><B>1</B><C>2</C></A></DB>"
        )
        spec_b = KeySpec(explicit_keys=[key("/", "DB"), key("/DB", "A", ("B",))])
        spec_c = KeySpec(explicit_keys=[key("/", "DB"), key("/DB", "A", ("C",))])
        assert not satisfies(doc, spec_b)
        assert satisfies(doc, spec_c)

    def test_violations_carry_messages(self, spec):
        doc = parse_document(
            "<db><dept><name>x</name></dept><dept><name>x</name></dept></db>"
        )
        violations = check_document(doc, spec)
        assert violations
        assert any("share the key value" in str(v) for v in violations)

    def test_empty_key_allows_at_most_one(self):
        spec = KeySpec(explicit_keys=[key("/", "db"), key("/db", "meta")])
        doc = parse_document("<db><meta/><meta/></db>")
        assert not satisfies(doc, spec)


class TestKeyedLabelOrdering:
    def test_sort_token_orders_by_tag_first(self):
        a = KeyLabel(tag="a", key=(("k", "z"),))
        b = KeyLabel(tag="b", key=(("k", "a"),))
        assert a.sort_token() < b.sort_token()

    def test_sort_token_orders_by_value(self):
        a = KeyLabel(tag="emp", key=(("fn", "Jane"),))
        b = KeyLabel(tag="emp", key=(("fn", "John"),))
        assert a.sort_token() < b.sort_token()

    def test_fewer_components_first(self):
        a = KeyLabel(tag="emp", key=())
        b = KeyLabel(tag="emp", key=(("fn", "A"),))
        assert a.sort_token() < b.sort_token()


# -- one annotation per append: the chunked backend's routed partition ----------

#: One document per way a version can break the company key specification.
REJECTED = {
    "unkeyed record": "<db><dept><name>a</name></dept><office/></db>",
    "duplicate top-level key": (
        "<db><dept><name>a</name></dept><dept><name>b</name></dept>"
        "<dept><name>a</name></dept></db>"
    ),
    "stray text under the root": "<db>stray<dept><name>a</name></dept></db>",
    "missing key path on a record": "<db><dept><nom>a</nom></dept></db>",
    "violation three levels down": (
        "<db><dept><name>a</name><emp><fn>J</fn><ln>D</ln>"
        "<tel>1</tel><tel>1</tel></emp></dept>"
        "<dept><name>b</name></dept></db>"
    ),
    "stray text three levels down": (
        "<db><dept><name>a</name><emp><fn>J</fn><ln>D</ln>stray</emp></dept></db>"
    ),
}


class TestRoutedPartition:
    """The chunked backend annotates a version once and hands every chunk
    its slice of that annotation: what it rejects, and how, must be what
    whole-document ``annotate_keys`` rejects."""

    @pytest.fixture
    def backend(self, tmp_path):
        backend = create_archive(
            str(tmp_path / "store"), COMPANY_KEY_TEXT, kind="chunked", chunk_count=4
        )
        backend.add_version(company_version(1))
        return backend

    @pytest.mark.parametrize("why", sorted(REJECTED))
    def test_same_error_as_whole_document_annotation(self, spec, backend, why):
        with pytest.raises(KeyViolationError) as whole:
            annotate_keys(parse_document(REJECTED[why]), spec)
        before = sorted(os.listdir(backend.directory))
        attempts = (
            lambda doc: backend._partition(doc),
            lambda doc: backend.add_version(doc),
            lambda doc: backend.ingest_batch([company_version(2), doc]),
        )
        for attempt in attempts:
            with pytest.raises(KeyViolationError) as routed:
                attempt(parse_document(REJECTED[why]))
            assert type(routed.value) is type(whole.value)
            assert str(routed.value) == str(whole.value)
        # Raised before anything was staged, and the handle carries on.
        assert sorted(os.listdir(backend.directory)) == before
        assert backend.last_version == 1
        backend.add_version(company_version(2))
        assert backend.last_version == 2

    def test_every_keyed_node_is_annotated_once_per_append(
        self, backend, monkeypatch
    ):
        computed = []
        original = annotate_module.compute_key_value

        def counting(node, key, value_of=None):
            computed.append(node)
            return original(node, key, value_of)

        monkeypatch.setattr(annotate_module, "compute_key_value", counting)
        document = company_version(4)
        backend.add_version(document)
        keyed = list(iter_keyed_nodes(annotate_keys(document, backend.spec)))
        assert len(computed) == 2 * len(keyed)  # the append's scan, and this one
        assert len({id(node) for node in computed}) == len(keyed)

    def test_slices_share_one_label_table(self, spec):
        document = company_version(3)
        annotated = annotate_keys(document, spec)
        shell = annotated.shell()
        finance, marketing = document.children
        shell.root.children.append(marketing)
        assert shell.labels is annotated.labels
        assert shell.label(shell.root) == annotated.label(document)
        assert shell.label(marketing) == annotated.label(marketing)
        assert_acyclic(document)
        assert_acyclic(shell.root)
        assert [node.tag for node, _ in iter_keyed_nodes(shell)] == [
            "db", "dept", "name", "emp", "fn", "ln",
        ]
