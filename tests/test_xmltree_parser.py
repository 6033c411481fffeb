"""Unit tests for the hand-written XML parser (repro.xmltree.parser)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_xmltree_model import assert_acyclic

from repro.xmltree import (
    Element,
    Text,
    XMLSyntaxError,
    parse_document,
    to_pretty_string,
    to_string,
    value_equal,
)


class TestBasicParsing:
    def test_single_element(self):
        root = parse_document("<db/>")
        assert root.tag == "db"
        assert root.children == []

    def test_nested_elements(self):
        root = parse_document("<db><dept><name>finance</name></dept></db>")
        assert root.find("dept").find("name").text_content() == "finance"

    def test_attributes_double_and_single_quotes(self):
        root = parse_document("<item id=\"item1\" cat='c1'/>")
        assert root.get_attribute("id") == "item1"
        assert root.get_attribute("cat") == "c1"

    def test_text_entities(self):
        root = parse_document("<t>&lt;a&gt; &amp; &quot;b&quot; &apos;c&apos;</t>")
        assert root.text_content() == "<a> & \"b\" 'c'"

    def test_numeric_character_references(self):
        root = parse_document("<t>&#65;&#x42;</t>")
        assert root.text_content() == "AB"

    def test_attribute_entities(self):
        root = parse_document('<t a="&amp;&lt;"/>')
        assert root.get_attribute("a") == "&<"

    def test_cdata(self):
        root = parse_document("<t><![CDATA[<not><parsed>]]></t>")
        assert root.text_content() == "<not><parsed>"

    def test_comments_skipped(self):
        root = parse_document("<db><!-- note --><dept/></db>")
        assert [c.tag for c in root.element_children()] == ["dept"]

    def test_prolog_and_doctype_skipped(self):
        source = '<?xml version="1.0"?><!DOCTYPE db [<!ELEMENT db ANY>]><db/>'
        assert parse_document(source).tag == "db"

    def test_processing_instruction_in_content(self):
        root = parse_document("<db><?pi data?><dept/></db>")
        assert root.find("dept") is not None


class TestWhitespaceModel:
    def test_interelement_whitespace_dropped(self):
        root = parse_document("<db>\n  <dept>\n    <name>finance</name>\n  </dept>\n</db>")
        assert all(isinstance(c, Element) for c in root.children)

    def test_text_only_content_kept(self):
        root = parse_document("<t>  padded  </t>")
        assert root.text_content() == "  padded  "

    def test_mixed_content_meaningful_text_kept(self):
        root = parse_document("<t>hello <b>world</b></t>")
        assert root.text_content() == "hello world"


class TestErrors:
    @pytest.mark.parametrize(
        "source",
        [
            "<db>",
            "<db></dept>",
            "<db><dept></db></dept>",
            "<db id=1/>",
            "<db id='x' id='y'/>",
            "<db/><extra/>",
            "<t>&unknown;</t>",
            "",
            "<t><![CDATA[unterminated</t>",
        ],
    )
    def test_malformed_raises(self, source):
        with pytest.raises((XMLSyntaxError, ValueError)):
            parse_document(source)

    def test_error_carries_line(self):
        try:
            parse_document("<db>\n<dept>\n</db>")
        except XMLSyntaxError as err:
            assert err.line >= 2
        else:
            pytest.fail("expected XMLSyntaxError")


#: One input per malformation class with the ``position``/``line``/message
#: the scanner reports for it.  The values were recorded from the
#: per-character scanner before the tokenizer rewrite and must not move.
PINNED_ERRORS = [
    ("<db>\n<dept>x</dept>\n", 19, 2, "Unclosed element <db>"),
    ("<db><dept/>", 11, 1, "Unclosed element <db>"),
    ("<db>\n<dept>\n</db>", 16, 3, "Mismatched close tag </db> for <dept>"),
    ("<db>\n<dept></dopt>\n</db>", 17, 2, "Mismatched close tag </dopt> for <dept>"),
    ("<db>\n<!-- never closed\n</db>", 5, 2, "Unterminated comment"),
    ("<!-- never closed\n<db/>", 0, 1, "Unterminated comment"),
    ("<db/>\n<!-- never closed", 6, 2, "Unterminated comment"),
    ("<t>\n<![CDATA[unterminated</t>", 4, 2, "Unterminated CDATA section"),
    ("<db>\n<?pi data\n</db>", 5, 2, "Unterminated processing instruction"),
    ("<?xml version='1.0'\n<db/>", 0, 1, "Unterminated processing instruction"),
    ('<db>\n<dept name="x>\n</dept></db>', 17, 2, "Unterminated attribute value"),
    ("<db id=1/>", 7, 1, "Attribute value must be quoted"),
    ("<db>\n<dept name/>\n</db>", 15, 2, "Expected '=', found '/'"),
    ("<db id=", 7, 1, "Unexpected end of input"),
    ("<db>\n<dept id='x' id='y'/>\n</db>", 24, 2, "Duplicate attribute 'id' on <dept>"),
    ("<t>\nab&unknown;cd</t>", 17, 2, "Unknown entity &unknown;"),
    ('<t>\n<a v="x&unknown;"/></t>', 10, 2, "Unknown entity &unknown;"),
    ("<t>\nab&amp cd</t>", 13, 2, "Unterminated entity reference"),
    ("<db/>\n<extra/>", 6, 2, "Content after document root"),
    ("<db/>\ntrailing", 6, 2, "Content after document root"),
    ("<db>\n<1dept/>\n</db>", 6, 2, "Expected a name"),
    ("<-db/>", 1, 1, "Expected a name"),
    ("<db>\n</ db>", 7, 2, "Expected a name"),
    ("<db>\n< dept/></db>", 6, 2, "Expected a name"),
    ("<db><!ELEMENT x></db>", 5, 1, "Expected a name"),
    ("<db>\n<dept", 10, 2, "Expected a name"),
    ("<db a='1'/ >", 9, 1, "Expected a name"),
    ("", 0, 1, "Expected '<', found ''"),
    ("  \n ", 4, 2, "Expected '<', found ''"),
    ("hello<db/>", 0, 1, "Expected '<', found 'h'"),
    ("<db></db", 8, 1, "Expected '>', found ''"),
    ("<db></db x>", 9, 1, "Expected '>', found 'x'"),
    ("<!DOCTYPE db [\n<db/>", 20, 2, "Unterminated DOCTYPE"),
]


class TestPinnedErrors:
    @pytest.mark.parametrize("source, position, line, message", PINNED_ERRORS)
    def test_position_line_and_message(self, source, position, line, message):
        with pytest.raises(XMLSyntaxError) as caught:
            parse_document(source)
        assert (caught.value.position, caught.value.line) == (position, line)
        assert str(caught.value) == (
            f"{message} (at offset {position}, line {line})"
        )

    def test_text_error_outranks_the_markup_behind_it(self):
        # The bad entity is reported (at the "<" that ends its text run)
        # before the malformed tag that follows is ever looked at.
        with pytest.raises(XMLSyntaxError, match="Unknown entity &x;") as caught:
            parse_document("<t>a&x;b<1/></t>")
        assert caught.value.position == 8

    def test_attribute_errors_come_in_document_order(self):
        with pytest.raises(XMLSyntaxError, match="Unknown entity &x;") as caught:
            parse_document("<t a='&x;' a='2' b=>")
        assert caught.value.position == 6

    def test_mismatch_outranks_a_malformed_close_tag(self):
        with pytest.raises(XMLSyntaxError, match="Mismatched close tag </b>"):
            parse_document("<a></b junk>")


class TestAcceptedLanguage:
    """Corners of the accepted language the tokenizer must keep."""

    def test_attributes_need_no_separating_space(self):
        root = parse_document("<a x='1'y=\"2\"\n z = '3' />")
        assert [(a.name, a.value) for a in root.attributes] == [
            ("x", "1"), ("y", "2"), ("z", "3"),
        ]

    def test_attribute_value_keeps_newlines_and_other_quote(self):
        root = parse_document("<a x='l1\nl2 \"q\"'/>")
        assert root.get_attribute("x") == 'l1\nl2 "q"'

    def test_shortest_comment_and_pi(self):
        # The terminator search starts at the opener's "<", so these
        # five- and three-character forms are complete.
        root = parse_document("<a><!-->x<?>y</a>")
        assert root.text_content() == "xy"

    def test_text_joins_across_comments_cdata_and_pis(self):
        root = parse_document("<a>x<!-- c -->y<![CDATA[<z>]]><?pi?>&amp;</a>")
        assert len(root.children) == 1
        assert root.text_content() == "xy<z>&"

    def test_whitespace_only_text_is_kept_without_element_siblings(self):
        assert parse_document("<a> <!-- c --> </a>").text_content() == "  "

    def test_whitespace_only_text_is_dropped_beside_elements(self):
        root = parse_document("<a> <![CDATA[ ]]> <b/> \n</a>")
        assert [type(child) for child in root.children] == [Element]

    def test_cdata_whitespace_beside_text_is_kept(self):
        root = parse_document("<a>x<![CDATA[ ]]><b/></a>")
        assert root.children[0].text == "x "

    def test_empty_cdata_adds_no_text(self):
        assert parse_document("<a><![CDATA[]]></a>").children == []

    def test_entity_name_runs_to_the_next_semicolon(self):
        with pytest.raises(XMLSyntaxError, match="Unknown entity &amp &lt;"):
            parse_document("<a>&amp &lt;</a>")

    def test_names_may_carry_dots_dashes_colons_and_letters_of_any_script(self):
        root = parse_document("<ns:a.b-c_d\u00e9 \u03b1=\"1\"><_x/><:y/></ns:a.b-c_d\u00e9>")
        assert root.tag == "ns:a.b-c_d\u00e9"
        assert root.get_attribute("\u03b1") == "1"
        assert [c.tag for c in root.children] == ["_x", ":y"]

    @pytest.mark.parametrize("start", ["\u00b2", "\u2167", "9", "-", "."])
    def test_name_start_must_be_a_letter_underscore_or_colon(self, start):
        with pytest.raises(XMLSyntaxError, match="Expected a name") as caught:
            parse_document(f"<a><{start}x/></a>")
        assert caught.value.position == 4

    def test_doctype_with_internal_subset_and_misc_after_root(self):
        source = (
            "<?xml version='1.0'?>\n<!-- c -->\n"
            "<!DOCTYPE a [<!ENTITY % x '>'>]>\n<a/>\n<!-- tail --><?pi?>\n"
        )
        assert parse_document(source).tag == "a"

    def test_a_parsed_tree_is_acyclic(self):
        root = parse_document("<a>t<b><c/></b></a>")
        text, b = root.children
        assert text.text == "t" and b.children[0].tag == "c"
        assert_acyclic(root)


# -- generated trees ---------------------------------------------------------------

_names = st.sampled_from(["a", "b", "rec", "ns:x", "_y", "d.e-f"])
_texts = st.lists(
    st.sampled_from(list("ab<>&\"' \n\t]") + ["]]>", "&amp;", "\u00e9"]),
    min_size=1,
    max_size=6,
).map("".join)


@st.composite
def _elements(draw, depth=3):
    node = Element(draw(_names))
    for name in draw(st.lists(_names, max_size=2, unique=True)):
        node.set_attribute(name, draw(_texts | st.just("")))
    if depth:
        for child in draw(
            st.lists(_texts.map(Text) | _elements(depth - 1), max_size=4)
        ):
            node.append(child)
    return node


def _normalized(node: Element) -> Element:
    """The tree the parser's whitespace rule makes of ``node``:
    whitespace-only text beside element siblings is dropped."""
    clone = Element(node.tag, attributes=node.attributes)
    has_element = any(isinstance(child, Element) for child in node.children)
    for child in node.children:
        if isinstance(child, Element):
            clone.append(_normalized(child))
        elif not has_element or child.text.strip():
            clone.append(Text(child.text))
    return clone


class TestGeneratedRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(_elements())
    def test_parse_inverts_to_string(self, tree):
        again = parse_document(to_string(tree))
        assert value_equal(again, _normalized(tree))
        assert to_string(again) == to_string(_normalized(tree))

    @settings(max_examples=150, deadline=None)
    @given(_elements())
    def test_parse_inverts_the_line_layout(self, tree):
        tree = _normalized(tree)
        assert value_equal(parse_document(to_pretty_string(tree)), tree)


class TestRoundTrip:
    PAPER_VERSION_4 = (
        "<db><dept><name>finance</name>"
        "<emp><fn>John</fn><ln>Doe</ln><sal>95K</sal><tel>123-4567</tel></emp>"
        "<emp><fn>Jane</fn><ln>Smith</ln><sal>95K</sal>"
        "<tel>123-6789</tel><tel>112-3456</tel></emp>"
        "</dept></db>"
    )

    def test_compact_round_trip(self):
        root = parse_document(self.PAPER_VERSION_4)
        assert to_string(parse_document(to_string(root))) == to_string(root)

    def test_pretty_round_trip_preserves_structure(self):
        root = parse_document(self.PAPER_VERSION_4)
        again = parse_document(to_pretty_string(root))
        assert to_string(again) == to_string(root)

    def test_special_characters_round_trip(self):
        root = Element("t")
        root.append(Text('a<b&c>"d\''))
        root.set_attribute("attr", 'x"<&>')
        again = parse_document(to_string(root))
        assert again.text_content() == 'a<b&c>"d\''
        assert again.get_attribute("attr") == 'x"<&>'
