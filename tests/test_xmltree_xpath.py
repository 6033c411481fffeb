"""Tests for the XPath evaluator — including queries over archives."""

import pytest

from repro.core import Archive
from repro.data.company import company_key_spec, company_versions
from repro.xmltree import parse_document
from repro.xmltree.xpath import (
    ATTRIBUTE,
    CHILD_VALUE,
    POSITION,
    XPathError,
    XPathResult,
    evaluate,
    parse_steps,
    xpath,
    xpath_first,
)

DOC = parse_document(
    "<db>"
    "<dept><name>finance</name>"
    "<emp><fn>John</fn><ln>Doe</ln><tel>111</tel><tel>222</tel></emp>"
    "<emp><fn>Jane</fn><ln>Smith</ln></emp></dept>"
    "<dept><name>marketing</name>"
    "<emp><fn>John</fn><ln>Doe</ln></emp></dept>"
    "</db>"
)


class TestChildSteps:
    def test_simple_path(self):
        assert len(xpath(DOC, "/db/dept/emp")) == 3

    def test_root_mismatch(self):
        assert xpath(DOC, "/nope/dept") == []

    def test_wildcard(self):
        assert len(xpath(DOC, "/db/*/emp")) == 3

    def test_text_result(self):
        assert xpath(DOC, "/db/dept/name/text()") == ["finance", "marketing"]


class TestDescendantSteps:
    def test_double_slash_root(self):
        assert len(xpath(DOC, "//tel")) == 2

    def test_double_slash_mid(self):
        assert len(xpath(DOC, "/db//fn")) == 3

    def test_no_duplicates(self):
        names = xpath(DOC, "//name")
        assert len(names) == len({id(n) for n in names})


class TestPredicates:
    def test_child_value(self):
        (dept,) = xpath(DOC, "/db/dept[name='finance']")
        assert dept.find("name").text_content() == "finance"

    def test_chained(self):
        emps = xpath(DOC, "/db/dept[name='finance']/emp[fn='John'][ln='Doe']")
        assert len(emps) == 1

    def test_positional(self):
        (second,) = xpath(DOC, "/db/dept[2]")
        assert second.find("name").text_content() == "marketing"

    def test_attribute(self):
        doc = parse_document('<site><item id="i1"/><item id="i2"/></site>')
        (item,) = xpath(doc, "/site/item[@id='i2']")
        assert item.get_attribute("id") == "i2"

    def test_text_predicate(self):
        (name,) = xpath(DOC, "/db/dept/name[text()='finance']")
        assert name.text_content() == "finance"

    def test_first_helper(self):
        assert xpath_first(DOC, "/db/dept") is not None
        assert xpath_first(DOC, "/db/zzz") is None


class TestErrors:
    @pytest.mark.parametrize(
        "expression",
        [
            "dept/emp",             # relative
            "/db/dept[name='finance]",  # unclosed quote
            "/db/dept[",            # unbalanced
            "/db//",                # empty step
            "/text()",              # text() with no element step
            "/db/dept[0]",          # positions are 1-based
        ],
    )
    def test_rejected(self, expression):
        with pytest.raises(XPathError):
            xpath(DOC, expression)


class TestTypedResults:
    """The XPathResult wrapper fixes the mixed list return type."""

    def test_element_result(self):
        result = evaluate(DOC, "/db/dept")
        assert isinstance(result, XPathResult)
        assert result.kind == XPathResult.ELEMENTS
        assert len(result.elements) == 2
        with pytest.raises(XPathError):
            result.strings

    def test_string_result(self):
        result = evaluate(DOC, "/db/dept/name/text()")
        assert result.kind == XPathResult.STRINGS
        assert result.strings == ["finance", "marketing"]
        with pytest.raises(XPathError):
            result.elements

    def test_sequence_protocol(self):
        result = evaluate(DOC, "/db/dept/emp")
        assert len(result) == 3
        assert result[0].tag == "emp"
        assert [node.tag for node in result] == ["emp", "emp", "emp"]
        assert result.first() is result[0]
        assert evaluate(DOC, "/db/zzz").first() is None

    def test_equality_with_lists(self):
        result = evaluate(DOC, "/db/dept/name/text()")
        assert result == ["finance", "marketing"]
        assert result == evaluate(DOC, "/db/dept/name/text()")

    def test_shim_returns_bare_list(self):
        assert isinstance(xpath(DOC, "/db/dept"), list)
        assert xpath(DOC, "/db/dept") == evaluate(DOC, "/db/dept").items


class TestStructuredSteps:
    """Steps and predicates parse into inspectable structures."""

    def test_parse_steps(self):
        steps = parse_steps("/db/dept[name='x']//emp[2][@id='a'][text()='t']")
        assert [s.axis for s in steps] == ["child", "child", "descendant"]
        dept_pred = steps[1].predicates[0]
        assert dept_pred.kind == CHILD_VALUE
        assert (dept_pred.name, dept_pred.value) == ("name", "x")
        kinds = [p.kind for p in steps[2].predicates]
        assert kinds == [POSITION, ATTRIBUTE, "text"]
        assert steps[2].predicates[0].position == 2

    def test_the_papers_key_spelling_parses_as_chained_predicates(self):
        assert parse_steps("/db/emp[fn=John, ln=Doe]") == parse_steps(
            "/db/emp[fn='John'][ln='Doe']"
        )
        (step,) = parse_steps("/e[ln='Doe, Jr'][k=a/b][q = 'a]b' ][r=o\"k]")
        assert [p.value for p in step.predicates] == ["Doe, Jr", "a/b", "a]b", 'o"k']

    def test_steps_render_back(self):
        steps = parse_steps("/db//emp[fn='John']")
        assert str(steps[0]) == "/db"
        assert str(steps[1]).startswith("//emp")


class TestQueryingArchives:
    """Sec. 8: the archive is XML, so XML query tools apply directly."""

    @pytest.fixture
    def archive_xml(self):
        archive = Archive(company_key_spec())
        for version in company_versions():
            archive.add_version(version)
        return archive.to_xml()

    def test_find_timestamp_elements(self, archive_xml):
        t_nodes = xpath(archive_xml, "//T[@t='3']")
        assert t_nodes  # the marketing dept and John's 90K salary

    def test_navigate_through_timestamps(self, archive_xml):
        salaries = xpath(archive_xml, "//sal/T/text()")
        assert set(salaries) >= {"90K", "95K"}

    def test_employees_in_archive(self, archive_xml):
        first_names = set(xpath(archive_xml, "//emp/fn/text()"))
        assert first_names == {"John", "Jane"}
