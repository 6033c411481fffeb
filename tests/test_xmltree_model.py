"""Unit tests for the XML data model (repro.xmltree.model)."""

import pytest

from repro.xmltree import Attribute, Element, Text, element


class TestText:
    def test_holds_text(self):
        node = Text("hello")
        assert node.text == "hello"

    def test_rejects_non_string(self):
        with pytest.raises(TypeError):
            Text(42)  # type: ignore[arg-type]

    def test_rejects_empty_text(self):
        with pytest.raises(ValueError):
            Text("")

    def test_copy_is_independent(self):
        node = Text("x")
        clone = node.copy()
        clone.text = "y"
        assert node.text == "x"


class TestAttribute:
    def test_equality_is_name_and_value(self):
        assert Attribute("a", "1") == Attribute("a", "1")
        assert Attribute("a", "1") != Attribute("a", "2")
        assert Attribute("a", "1") != Attribute("b", "1")

    def test_hashable(self):
        assert len({Attribute("a", "1"), Attribute("a", "1")}) == 1

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Attribute("", "v")


class TestElement:
    def test_append_sets_parent(self):
        parent = Element("db")
        child = parent.append(Element("dept"))
        assert child.parent is parent
        assert parent.children == [child]

    def test_rejects_bad_child(self):
        with pytest.raises(TypeError):
            Element("db").append("not a node")  # type: ignore[arg-type]

    def test_rejects_empty_tag(self):
        with pytest.raises(ValueError):
            Element("")

    def test_set_attribute_replaces(self):
        node = Element("a")
        node.set_attribute("id", "1")
        node.set_attribute("id", "2")
        assert node.get_attribute("id") == "2"
        assert len(node.attributes) == 1

    def test_get_attribute_default(self):
        assert Element("a").get_attribute("missing", "dflt") == "dflt"

    def test_remove_attribute(self):
        node = Element("a")
        node.set_attribute("id", "1")
        node.remove_attribute("id")
        assert node.get_attribute("id") is None

    def test_find_and_find_all(self):
        db = element("db", element("dept", "x"), element("dept", "y"), element("other"))
        assert db.find("dept").text_content() == "x"
        assert len(db.find_all("dept")) == 2
        assert db.find("nope") is None

    def test_text_content_concatenates_in_document_order(self):
        node = element("a", "1", element("b", "2"), "3")
        assert node.text_content() == "123"

    def test_iter_is_preorder(self):
        tree = element("a", element("b", element("c")), element("d"))
        tags = [n.tag for n in tree.iter_elements()]
        assert tags == ["a", "b", "c", "d"]

    def test_node_count_counts_attributes(self):
        node = element("a", element("b", x="1", y="2"))
        # a, b, two attributes on b
        assert node.node_count() == 4

    def test_height(self):
        assert Element("a").height() == 1
        assert element("a", element("b")).height() == 2
        assert element("a", "text").height() == 1  # T-nodes add no level
        assert element("a", element("b", element("c", "t"))).height() == 3

    def test_max_degree(self):
        tree = element("a", element("b"), element("c", element("d"), element("e"), element("f")))
        assert tree.max_degree() == 3

    def test_copy_deep(self):
        original = element("a", element("b", "text"), id="1")
        clone = original.copy()
        clone.find("b").children[0].text = "changed"
        clone.set_attribute("id", "2")
        assert original.find("b").text_content() == "text"
        assert original.get_attribute("id") == "1"


    def test_pickle_and_deepcopy_stop_at_the_subtree_root(self):
        import copy
        import pickle

        tree = element("a", element("b", element("c", "text"), id="1"), element("d"))
        b = tree.find("b")
        for clone in (pickle.loads(pickle.dumps(b)), copy.deepcopy(b)):
            assert clone.parent is None  # nothing above the root came along
            assert clone.get_attribute("id") == "1"
            c = clone.find("c")
            assert c.parent is clone and c.children[0].parent is c
            assert c.text_content() == "text"
        assert len(pickle.dumps(b)) < len(pickle.dumps(tree))


class TestElementBuilder:
    def test_strings_become_text_nodes(self):
        node = element("name", "finance")
        assert isinstance(node.children[0], Text)

    def test_kwargs_become_attributes(self):
        node = element("item", id="item1")
        assert node.get_attribute("id") == "item1"
