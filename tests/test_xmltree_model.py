"""Unit tests for the XML data model (repro.xmltree.model)."""

import copy
import gc
import pickle
from contextlib import contextmanager

import pytest

import repro
from repro.core import Archive
from repro.keys import parse_key_spec
from repro.storage import create_archive, open_archive
from repro.xmltree import Attribute, Element, Text, element, parse_document

#: What a tree is made of: a walk of references from a root follows these.
TREE_PARTS = (Element, Text, Attribute, list, tuple, dict)


def assert_acyclic(root) -> None:
    """No reference cycle runs through ``root``'s tree: a depth-first walk
    of what its nodes, child lists and attributes refer to (every slot
    and list item ``gc.get_referents`` reports, whatever its name) never
    comes back to an object still on the walk's path."""
    on_path, done = {id(root)}, set()
    stack = [(root, iter(gc.get_referents(root)))]
    while stack:
        here, referents = stack[-1]
        for target in referents:
            if not isinstance(target, TREE_PARTS) or id(target) in done:
                continue
            assert id(target) not in on_path, f"{target!r} refers back up the tree"
            on_path.add(id(target))
            stack.append((target, iter(gc.get_referents(target))))
            break
        else:
            stack.pop()
            on_path.discard(id(here))
            done.add(id(here))


@contextmanager
def cyclic_garbage(everything: bool = False):
    """Collect what the block leaves for the cycle collector: the
    ``Element`` and ``Text`` objects (with ``everything``, the objects of
    any type) no reference count freed, which only a collection
    (automatic or the one at the end) found unreachable."""
    gc.collect()
    flags, start = gc.get_debug(), len(gc.garbage)
    found: list = []
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        yield found
        gc.collect()
        found.extend(
            o
            for o in gc.garbage[start:]
            if everything or isinstance(o, (Element, Text))
        )
    finally:
        gc.set_debug(flags)
        del gc.garbage[start:]


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
    def test_append_keeps_the_tree_acyclic(self):
        parent = Element("db")
        child = parent.append(Element("dept"))
        assert_acyclic(parent)
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
        # The shapes answered without a walk: no child, one text child,
        # and one element child (walked: its text counts).
        assert element("a").text_content() == ""
        assert element("a", "x").text_content() == "x"
        assert element("a", element("b", "y")).text_content() == "y"

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
        tree = element("a", element("b", element("c", "text"), id="1"), element("d"))
        b = tree.find("b")
        for clone in (pickle.loads(pickle.dumps(b)), copy.deepcopy(b)):
            assert_acyclic(clone)
            assert clone.get_attribute("id") == "1"
            c = clone.find("c")
            assert c.text_content() == "text"
        assert len(pickle.dumps(b)) < len(pickle.dumps(tree))


class TestElementBuilder:
    def test_strings_become_text_nodes(self):
        node = element("name", "finance")
        assert isinstance(node.children[0], Text)

    def test_kwargs_become_attributes(self):
        node = element("item", id="item1")
        assert node.get_attribute("id") == "item1"


# -- every tree dies by reference count ------------------------------------------

CENSUS_KEYS = """
(/, (db, {}))
(/db, (dept, {name}))
(/db/dept, (emp, {fn, ln}))
(/db/dept/emp, (sal, {}))
(/db/dept/emp, (note, {}))
"""

CENSUS_VERSIONS = [
    "<db><dept><name>finance</name><emp><fn>Jane</fn><ln>Smith</ln></emp></dept></db>",
    """<db><dept><name>finance</name>
         <emp><fn>John</fn><ln>Doe</ln><sal>90K</sal></emp>
         <emp><fn>Jane</fn><ln>Smith</ln><note>a<b/>c</note></emp></dept>
       <dept><name>marketing</name><emp><fn>Ann</fn><ln>Lee</ln></emp></dept></db>""",
]


def census_archive() -> Archive:
    archive = Archive(parse_key_spec(CENSUS_KEYS))
    for source in CENSUS_VERSIONS:
        archive.add_version(parse_document(source))
    return archive


def build_by_hand() -> None:
    root = element("db", element("dept", element("name", "finance")), id="1")
    root.append(Text("x"))
    root.extend([Text("y"), element("dept")])


def warm_retrieve(archive) -> None:
    for version in (1, 2):
        archive.retrieve(version)


def select_answer(archive) -> None:
    db = repro.open(archive)
    db.at(2).select("/db/dept[name='finance']/emp").all()
    db.at(2).select("//emp/note").all()


CENSUS = {
    "parse_document": lambda tree, archive: parse_document(CENSUS_VERSIONS[1]),
    "element-append-extend": lambda tree, archive: build_by_hand(),
    "copy": lambda tree, archive: tree.copy(),
    "pickle": lambda tree, archive: pickle.loads(pickle.dumps(tree)),
    "deepcopy": lambda tree, archive: copy.deepcopy(tree),
    "assemble": lambda tree, archive: Element.assemble(
        "e", (("a", "1"),), [Element.assemble("c", (), [Text.assemble("t")])]
    ),
    "warm-retrieve": lambda tree, archive: warm_retrieve(archive),
    "select": lambda tree, archive: select_answer(archive),
}
#: Reads that leave nothing at all for the collector, not only no tree.
NOTHING_LEFT = {"warm-retrieve", "select"}

#: Reads through a held reader of a chunked ``xbin`` store, its chunks
#: decoded and cached by a first pass.
CHUNKED_CENSUS = {
    "keyed": lambda db: db.at(2).select("/db/dept[name='finance']/emp").all(),
    "dense": lambda db: db.at(2).select("/db/dept/name/text()").all(),
    "history": lambda db: db.history("/db/dept[name=finance]/emp[fn=Jane, ln=Smith]"),
    "retrieve": lambda db: db.at(2).snapshot(),
}


@pytest.fixture(scope="module")
def census_reader(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("census") / "store")
    store = create_archive(path, CENSUS_KEYS, kind="chunked", chunk_count=2, codec="xbin")
    store.ingest_batch(parse_document(source) for source in CENSUS_VERSIONS)
    store.close()
    reader = open_archive(path, recover=False)
    yield reader
    reader.close()


class TestNoTreeNeedsTheCycleCollector:
    """Nothing the library builds is a reference cycle: a tree dropped by
    its caller is freed by reference counting, and no collection ever
    finds an ``Element`` or ``Text`` to free — nor, after a warm read,
    anything else: the walks that build what a read returns hold no
    reference to themselves."""

    @pytest.mark.parametrize("operation", sorted(CENSUS))
    def test_census(self, operation):
        tree, archive = parse_document(CENSUS_VERSIONS[1]), census_archive()
        warm_retrieve(archive)  # the timestamp trees, built and kept
        with cyclic_garbage() as found:  # the first call cold: plans compiled
            for _ in range(3):
                CENSUS[operation](tree, archive)
        assert found == []
        if operation in NOTHING_LEFT:  # and, warm, nothing at all
            with cyclic_garbage(everything=True) as found:
                for _ in range(3):
                    CENSUS[operation](tree, archive)
            assert found == []

    @pytest.mark.parametrize("operation", sorted(CHUNKED_CENSUS))
    def test_warm_chunked_census(self, operation, census_reader):
        db = repro.open(census_reader)
        # Chunks decoded and cached, plans kept; a decoded tree's first
        # retrieve streams, and its second settles the tree, letting go
        # of the decoder's readers (which still refer to each other).
        for _ in range(2):
            CHUNKED_CENSUS[operation](db)
        with cyclic_garbage(everything=True) as found:
            for _ in range(3):
                CHUNKED_CENSUS[operation](db)
        assert found == []

    def test_the_census_sees_a_cycle(self):
        with cyclic_garbage() as found:
            loop = [Element("a")]
            loop[0].children.append(loop)
            del loop
        assert len(found) == 1
