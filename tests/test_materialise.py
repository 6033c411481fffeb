"""A kept tree hands a version back in one lean pass; nobody can tell.

The guided walk decides a node's liveness once, in its parent, and
assembles elements through ``Element.assemble``; the emitters write a
single-text leaf in one step.  Neither may change an answer, a byte or
a probe count:

(a) the walk, the ``guided=False`` scan and a first (streamed) retrieve
    of the re-decoded tree agree on every version of random version
    sequences, and the walk's ``ProbeCount`` on fixed fixtures is what
    the commit before the lean walk reported (numbers copied from a run
    of it);
(b) the serialisers agree byte for byte with a naive reference emitter
    kept here, and what they write reparses to the same value;
(c) what comes back has the shape ``Element``'s checked constructors
    would have given it;
(d) the tree search hands indexes back in child order without sorting,
    and the documents the parser reads but recursion cannot follow fail
    with a message, not a ``RecursionError``.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_core_properties import _configurations, _state, _state_to_document
from test_xmltree_model import assert_acyclic

from repro.core import Archive, ArchiveOptions, ProbeCount
from repro.core.tstree import (
    TREE_MIN_CHILDREN,
    build_timestamp_tree,
    search_timestamp_tree,
)
from repro.core.nodes import ArchiveNode
from repro.core.versionset import VersionSet
from repro.data import OmimChangeRates, OmimGenerator, omim_key_spec
from repro.data.company import company_key_spec
from repro.data.xmark import XMarkGenerator, xmark_key_spec
from repro.keys.annotate import KeyLabel
from repro.storage import xbin
from repro.xmltree import (
    Element,
    Text,
    canonical_form,
    parse_document,
    to_pretty_string,
    to_string,
)
from repro.xmltree.value import value_equal


def text(document) -> str:
    return "(empty)" if document is None else to_pretty_string(document)


# -- fixtures with lists wide enough to have trees, and attributes -----------------


def omim_documents():
    generator = OmimGenerator(
        seed=11,
        initial_records=5,
        rates=OmimChangeRates(
            delete_fraction=0.1, insert_fraction=0.5, modify_fraction=0.3
        ),
    )
    first, second, third, fourth, fifth = generator.generate_versions(5)
    thinned = third.copy()
    del thinned.children[:3]  # records die here and are back in the next
    return [first, second, None, thinned, fourth, None, fifth]


def xmark_documents():
    generator = XMarkGenerator(seed=5, items=24, people=10, auctions=6, categories=4)
    return generator.versions_random(4, 10.0)


def archive_of(documents, spec, options=None) -> Archive:
    archive = Archive(spec, options)
    for document in documents:
        archive.add_version(None if document is None else document.copy())
    return archive


FIXTURES = {
    "omim": lambda: archive_of(omim_documents(), omim_key_spec()),
    "omim-weave": lambda: archive_of(
        omim_documents(), omim_key_spec(), ArchiveOptions(compaction=True)
    ),
    "xmark": lambda: archive_of(xmark_documents(), xmark_key_spec()),
}

#: ``(tree_probes, fallback_scans, short_scans)`` of a walked retrieve
#: of each version, as the commit before the lean walk counted them.
_OMIM_BEFORE = [
    (32, 0, 118),
    (68, 0, 147),
    (0, 0, 1),
    (66, 0, 103),
    (155, 0, 244),
    (0, 0, 1),
    (176, 0, 348),
]
PROBES_BEFORE = {
    "omim": _OMIM_BEFORE,
    "omim-weave": _OMIM_BEFORE,
    "xmark": [(479, 0, 275), (481, 0, 258), (453, 0, 258), (455, 0, 241)],
}


def walked_probes(archive: Archive) -> list[tuple[int, int, int]]:
    archive.retrieve(1)  # the first retrieve of a tree is not a walk
    counts = []
    for version in range(1, archive.last_version + 1):
        probes = ProbeCount()
        archive.retrieve(version, probes=probes)
        counts.append((probes.tree_probes, probes.fallback_scans, probes.short_scans))
    return counts


# -- (a) three readings, one answer; the same probes as before ---------------------


@given(
    st.lists(st.one_of(st.none(), _state()), min_size=1, max_size=6),
    _configurations,
)
@settings(max_examples=40, deadline=None)
def test_walk_scan_and_streamed_read_agree(states, options):
    spec = company_key_spec()
    archive = Archive(spec, options)
    for state in states:
        archive.add_version(None if state is None else _state_to_document(state))
    archive.retrieve(1)
    data = xbin.encode_archive(archive)
    for version in range(1, len(states) + 1):
        probes = ProbeCount()
        walked = text(archive.retrieve(version, probes=probes))
        assert walked == text(archive.retrieve(version, guided=False))
        assert walked == text(xbin.decode_archive(data, spec, options).retrieve(version))
        shared = archive.retrieve(version)
        assert walked == text(None if shared is None else shared.copy())
        # A child looked at in a short list is a probe, whether or not
        # a set was asked; no search ever spills into a leaf scan.
        assert probes.fallback_scans == 0
        assert probes.short_scans == looked_at(archive, version)


def looked_at(archive: Archive, version: int) -> int:
    """Children of the short lists an exhaustive walk of the live
    internal nodes meets."""
    count = 0
    stack = [(archive.root, archive.root.timestamp)]
    while stack:
        node, inherited = stack.pop()
        timestamp = node.effective_timestamp(inherited)
        if version not in timestamp or node.is_frontier:
            continue
        if len(node.children) < TREE_MIN_CHILDREN:
            count += len(node.children)
        if node is archive.root:  # one document root is built, at most
            alive = [c for c in node.children if c.exists_at(version, timestamp)]
            stack.extend((child, timestamp) for child in alive[:1])
        else:
            stack.extend((child, timestamp) for child in node.children)
    return count


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_readings_agree_and_probes_are_those_of_before(name):
    archive = FIXTURES[name]()
    assert walked_probes(archive) == PROBES_BEFORE[name]
    data = xbin.encode_archive(archive)
    wide = 0
    for version in range(1, archive.last_version + 1):
        walked = text(archive.retrieve(version))
        assert walked == text(archive.retrieve(version, guided=False))
        fresh = xbin.decode_archive(data, archive.spec, archive.options)
        assert walked == text(fresh.retrieve(version))
        wide += sum(counts[0] for counts in walked_probes(archive))
    assert wide  # the fixture did ask timestamp trees


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_trees_the_walk_builds_hold_each_childs_own_effective_timestamp(name):
    """A child that stores a timestamp hands *that* down: the trees the
    walk leaves cached under it are built over it, not over what its
    parent resolved to."""
    archive = FIXTURES[name]()
    for version in range(1, archive.last_version + 1):
        archive.retrieve(version)
        archive.retrieve(version)
    checked = 0
    stack = [(archive.root, archive.root.timestamp)]
    while stack:
        node, inherited = stack.pop()
        timestamp = node.effective_timestamp(inherited)
        stack.extend((child, timestamp) for child in node.children)
        if len(node.children) < TREE_MIN_CHILDREN or id(node) not in archive._trees:
            continue
        leaves = []
        pending = [archive.timestamp_tree(node, timestamp)]
        while pending:
            tree = pending.pop()
            if tree.is_leaf:
                leaves.append(tree)
            else:
                pending.extend(t for t in (tree.left, tree.right) if t is not None)
        for leaf in leaves:
            child = node.children[leaf.child_index]
            assert leaf.timestamp == child.effective_timestamp(timestamp)
        checked += node.timestamp is not None
    assert checked or name != "omim"  # records born late hold wide lists


# -- (b) the emitters against a naive one -------------------------------------------


def _escaped(value: str, *more: tuple[str, str]) -> str:
    for raw, cooked in (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;")) + more:
        value = value.replace(raw, cooked)
    return value


def _open(node: Element) -> str:
    return node.tag + "".join(
        f' {a.name}="{_escaped(a.value, (chr(34), "&quot;"))}"' for a in node.attributes
    )


def reference_compact(node) -> str:
    if isinstance(node, Text):
        return _escaped(node.text)
    if not node.children:
        return f"<{_open(node)}/>"
    body = "".join(reference_compact(child) for child in node.children)
    return f"<{_open(node)}>{body}</{node.tag}>"


def reference_pretty(node: Element, indent: str, depth: int = 0) -> str:
    pad = indent * depth
    if not node.children:
        return f"{pad}<{_open(node)}/>\n"
    if any(isinstance(child, Text) for child in node.children):
        body = "".join(
            _escaped(child.text, ("\n", "&#10;"))
            if isinstance(child, Text)
            else reference_compact(child)
            for child in node.children
        )
        return f"{pad}<{_open(node)}>{body}</{node.tag}>\n"
    body = "".join(reference_pretty(child, indent, depth + 1) for child in node.children)
    return f"{pad}<{_open(node)}>\n{body}{pad}</{node.tag}>\n"


_tags = st.sampled_from(["a", "b", "rec", "T"])
#: Always a letter, so the parser (which drops inter-element whitespace)
#: reads back what was written.
_texts = st.builds(
    lambda left, right: left + "x" + right,
    st.text(alphabet='&<>"\n\r \'y;#1', max_size=4),
    st.text(alphabet='&<>"\n\r \'y;#1', max_size=4),
)
_attributes = st.dictionaries(st.sampled_from(["id", "k", "t"]), _texts, max_size=3)


def _element(tag, attributes, children) -> Element:
    node = Element(tag)
    for name, value in attributes.items():
        node.set_attribute(name, value)
    node.extend(children)
    return node


_trees = st.recursive(
    st.builds(_element, _tags, _attributes, st.lists(_texts.map(Text), max_size=1)),
    lambda inner: st.builds(
        _element, _tags, _attributes, st.lists(st.one_of(inner, _texts.map(Text)), max_size=4)
    ),
    max_leaves=12,
)


@given(_trees, st.sampled_from(["", "  "]))
@settings(max_examples=150, deadline=None)
def test_emitters_equal_the_reference_and_reparse(tree, indent):
    pretty = to_pretty_string(tree, indent)
    assert pretty == reference_pretty(tree, indent)
    assert to_string(tree) == reference_compact(tree)
    assert value_equal(parse_document(pretty), tree)
    assert value_equal(parse_document(to_string(tree)), tree)
    # The canonical form differs only in never writing ``<a/>`` and in
    # sorting attributes: on a tree with neither it is the compact form.
    plain = parse_document(to_string(tree))
    for node in plain.iter_elements():
        node.attributes = []
        if not node.children:
            node.append(Text("x"))
    assert canonical_form(plain) == reference_compact(plain)
    assert canonical_form(tree.copy()) == canonical_form(tree)


def test_newlines_and_quotes_by_hand():
    leaf = Element("a")
    leaf.set_attribute("k", 'say "<hi>" & go')
    leaf.append(Text("one\ntwo & <three>\r"))
    assert to_pretty_string(leaf, "  ") == (
        '<a k="say &quot;&lt;hi&gt;&quot; &amp; go">one&#10;two &amp; &lt;three&gt;\r</a>\n'
    )
    assert to_string(leaf) == (
        '<a k="say &quot;&lt;hi&gt;&quot; &amp; go">one\ntwo &amp; &lt;three&gt;\r</a>'
    )
    assert canonical_form(leaf) == to_string(leaf)


# -- (c) the shape of what comes back ------------------------------------------------


def stored_content(archive: Archive) -> set[int]:
    """Identities of every content node the archive stores."""
    found = set()
    stack = [archive.root]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        for alternative in node.alternatives or ():
            found.update(id(item) for item in alternative.content)
    return found


def attributes_of(archive: Archive, version: int) -> list[tuple]:
    """Stored attribute pairs of the nodes alive at ``version``, in the
    order the walk meets them."""
    found = []

    def visit(node, inherited):
        timestamp = node.effective_timestamp(inherited)
        if version not in timestamp:
            return
        found.append(tuple(node.attributes))
        for child in node.children:
            visit(child, timestamp)

    for child in archive.root.children:
        visit(child, archive.root.timestamp)
    return found


@pytest.mark.parametrize("name", sorted(FIXTURES))
@pytest.mark.parametrize("copied", [False, True])
def test_shape_of_a_walked_version(name, copied):
    archive = FIXTURES[name]()
    archive.retrieve(1)
    stored = stored_content(archive)
    for version in range(1, archive.last_version + 1):
        document = archive.retrieve(version)
        if document is None:
            continue
        if copied:
            document = document.copy()
        assert_acyclic(document)
        keyed_attributes = []
        shared = 0
        stack = [document]
        while stack:
            element = stack.pop()
            for before, after in zip(element.children, element.children[1:]):
                assert not (isinstance(before, Text) and isinstance(after, Text))
            for child in reversed(element.children):
                if id(child) in stored:
                    shared += 1  # the archive's own object: not walked
                    continue
                if isinstance(child, Element):
                    stack.append(child)
            keyed_attributes.append(
                tuple((attr.name, attr.value) for attr in element.attributes)
            )
        if copied or archive.options.compaction:
            assert shared == 0
        else:
            assert shared > 0
        wanted = attributes_of(archive, version)
        if copied or archive.options.compaction:
            # Content was walked too; the keyed nodes' attributes are in there, in order.
            remaining = iter(keyed_attributes)
            assert all(pairs in remaining for pairs in wanted)
        else:
            assert keyed_attributes == wanted
    if name == "xmark":
        assert any(pairs for pairs in wanted)


def test_assemble_keeps_what_it_is_given():
    child, words = Element("c"), Text("t")
    children = [child, words]
    built = Element.assemble("e", (("b", "2"), ("a", '1"')), children)
    assert built.children is children
    assert_acyclic(built)
    assert [(a.name, a.value) for a in built.attributes] == [("b", "2"), ("a", '1"')]
    assert to_string(built) == '<e b="2" a="1&quot;"><c/>t</e>'
    clone = built.copy()
    assert to_string(clone) == to_string(built)
    assert clone.children[0] is not child
    assert_acyclic(clone)


# -- (d) the search needs no sort; depth fails with a message --------------------------


@given(
    st.lists(
        st.one_of(st.none(), st.sets(st.integers(1, 6), max_size=6)),
        min_size=1,
        max_size=40,
    ),
    st.integers(1, 6),
)
@settings(max_examples=200, deadline=None)
def test_tree_search_answers_in_child_order(timestamps, version):
    inherited = VersionSet(range(1, 7))
    children = [
        ArchiveNode(
            label=KeyLabel(tag="n", key=(("k", str(index)),)),
            timestamp=None if stamp is None else VersionSet(stamp),
        )
        for index, stamp in enumerate(timestamps)
    ]
    tree = build_timestamp_tree(children, inherited)
    wanted = [
        index
        for index, child in enumerate(children)
        if version in child.effective_timestamp(inherited)
    ]
    probes = ProbeCount()
    assert search_timestamp_tree(tree, version, len(children), probes) == wanted
    assert search_timestamp_tree(tree, version, len(children)) == wanted
    # A budget of nothing: the fallback scan of the leaves, in order too.
    spilled = ProbeCount()
    assert search_timestamp_tree(tree, version, 0, spilled) == wanted
    assert (spilled.tree_probes, spilled.fallback_scans) == (1, len(children))


def test_documents_deeper_than_recursion_fail_with_a_message():
    depth = 3 * sys.getrecursionlimit()
    opened = "".join(f"<n{level % 7}>" for level in range(depth))
    closed = "".join(f"</n{level % 7}>" for level in reversed(range(depth)))
    document = parse_document(f"{opened}x{closed}")
    allowed = f"recursion limit of {sys.getrecursionlimit()} allows"
    for entry, verb in (
        (to_string, "serialize"),
        (to_pretty_string, "serialize"),
        (canonical_form, "canonicalize"),
        (Element.copy, "copy"),
    ):
        with pytest.raises(ValueError, match=f"Cannot {verb} an element nested") as caught:
            entry(document)
        assert allowed in str(caught.value)
        assert not isinstance(caught.value, RecursionError)
    shallow = parse_document("<a><b>x</b></a>")
    assert to_string(shallow.copy()) == canonical_form(shallow) == "<a><b>x</b></a>"
