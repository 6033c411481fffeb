"""XML data model of the paper (Appendix A.1).

A document is a tree of three node kinds:

* **E-node** (:class:`Element`) — labeled with a tag name; the only kind of
  internal node.  Its value consists of an ordered list of E/T children and
  an unordered set of A-children (attributes).
* **A-node** (:class:`Attribute`) — a pair of attribute name and string
  value.
* **T-node** (:class:`Text`) — a text value.

The model deliberately ignores inter-element whitespace, comments,
processing instructions and namespaces other than the archive's ``T``
timestamp tag — the paper's model does the same (Sec. 4.3, footnote 3).
"""

from __future__ import annotations

import sys
from typing import Iterable, Iterator, Optional, Union


def too_deep(action: str) -> ValueError:
    """What ``copy``, the serializers and ``canonical_form`` raise for a
    tree the parser (a loop) could read but recursion cannot follow."""
    return ValueError(
        f"Cannot {action} an element nested deeper than the interpreter's "
        f"recursion limit of {sys.getrecursionlimit()} allows"
    )


class Node:
    """Base class for all tree nodes.

    Nodes carry a ``parent`` back-pointer maintained by
    :meth:`Element.append`; it is informational only and never serialized
    — not into XML, and not into a pickle either: a pickled (or
    deep-copied) subtree carries what is below its root and nothing
    above, so shipping one record to a worker never drags the document
    it was cut from along.
    """

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: Optional["Element"] = None

    def copy(self) -> "Node":
        """Return a deep copy of the subtree rooted at this node."""
        raise NotImplementedError


class Text(Node):
    """A T-node: a run of character data."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        super().__init__()
        if not isinstance(text, str):
            raise TypeError(f"Text content must be str, got {type(text).__name__}")
        if not text:
            # An empty T-node is indistinguishable from no node at all in
            # any serialization, which would break =v / canonical-form
            # agreement; the model therefore forbids it.
            raise ValueError("Text content must be non-empty")
        self.text = text

    @classmethod
    def assemble(cls, text: str) -> "Text":
        """The trusted constructor (see :meth:`Element.assemble`):
        ``text`` is a non-empty ``str``, not checked."""
        node = cls.__new__(cls)
        node.text = text
        node.parent = None
        return node

    def copy(self) -> "Text":
        return Text(self.text)

    def __getstate__(self) -> tuple:
        return (self.text,)

    def __setstate__(self, state: tuple) -> None:
        (self.text,) = state
        self.parent = None

    def __repr__(self) -> str:
        preview = self.text if len(self.text) <= 24 else self.text[:21] + "..."
        return f"Text({preview!r})"


class Attribute:
    """An A-node: an (attribute name, string value) pair.

    Attributes are not :class:`Node` subclasses because they never appear
    in the ordered child list; they live in the owning element's attribute
    set, mirroring the paper's treatment (the value of an E-node is a list
    of E/T children plus a *set* of A-children).
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: str) -> None:
        if not name:
            raise ValueError("Attribute name must be non-empty")
        self.name = name
        self.value = value

    def copy(self) -> "Attribute":
        return Attribute(self.name, self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Attribute)
            and self.name == other.name
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.name, self.value))

    def __repr__(self) -> str:
        return f"Attribute({self.name!r}, {self.value!r})"


Child = Union["Element", Text]


class Element(Node):
    """An E-node: a tag name, ordered E/T children, unordered attributes."""

    __slots__ = ("tag", "children", "attributes")

    def __init__(
        self,
        tag: str,
        children: Optional[Iterable[Child]] = None,
        attributes: Optional[Iterable[Attribute]] = None,
    ) -> None:
        super().__init__()
        if not tag:
            raise ValueError("Element tag must be non-empty")
        self.tag = tag
        self.children: list[Child] = []
        self.attributes: list[Attribute] = []
        if attributes:
            for attr in attributes:
                self.set_attribute(attr.name, attr.value)
        if children:
            for child in children:
                self.append(child)

    # -- construction -----------------------------------------------------

    @classmethod
    def assemble(
        cls, tag: str, pairs: Iterable[tuple[str, str]], children: list[Child]
    ) -> "Element":
        """The trusted constructor, for code that turns *stored* values
        back into elements (the archive's walk, ``xbin``'s two block
        readers): nothing is checked.  ``pairs`` are attributes with
        distinct non-empty names, kept in order; ``children`` is a list
        built for this element (E/T nodes, no two ``Text`` neighbours),
        kept as is, each child's ``parent`` set.  Outside input goes
        through ``__init__``/``append``/``set_attribute``, which check."""
        element = cls.__new__(cls)
        element.tag = tag
        element.parent = None
        element.attributes = (  # mostly none: no comprehension frame
            [Attribute(name, value) for name, value in pairs] if pairs else []
        )
        element.children = children
        for child in children:
            child.parent = element
        return element

    def append(self, child: Child) -> Child:
        """Attach ``child`` as the last E/T child and return it.

        Adjacent T-nodes are coalesced (as in the XPath data model): a
        pair of neighbouring text nodes has no distinguishable
        serialization, so keeping them separate would break the
        value-equality / canonical-form correspondence.
        """
        if not isinstance(child, (Element, Text)):
            raise TypeError(
                f"Element children must be Element or Text, got {type(child).__name__}"
            )
        if (
            isinstance(child, Text)
            and self.children
            and isinstance(self.children[-1], Text)
        ):
            merged = self.children[-1]
            merged.text += child.text
            return merged
        child.parent = self
        self.children.append(child)
        return child

    def extend(self, children: Iterable[Child]) -> None:
        for child in children:
            self.append(child)

    def set_attribute(self, name: str, value: str) -> None:
        """Set attribute ``name`` to ``value``, replacing any existing one."""
        for attr in self.attributes:
            if attr.name == name:
                attr.value = value
                return
        self.attributes.append(Attribute(name, value))

    def remove_attribute(self, name: str) -> None:
        self.attributes = [a for a in self.attributes if a.name != name]

    # -- access -----------------------------------------------------------

    def get_attribute(self, name: str, default: Optional[str] = None) -> Optional[str]:
        for attr in self.attributes:
            if attr.name == name:
                return attr.value
        return default

    def element_children(self) -> Iterator["Element"]:
        """Iterate over E-node children only, in document order."""
        for child in self.children:
            if isinstance(child, Element):
                yield child

    def find(self, tag: str) -> Optional["Element"]:
        """Return the first E-child with the given tag, or ``None``."""
        for child in self.element_children():
            if child.tag == tag:
                return child
        return None

    def find_all(self, tag: str) -> list["Element"]:
        """Return all E-children with the given tag, in document order."""
        return [
            child
            for child in self.children
            if isinstance(child, Element) and child.tag == tag
        ]

    def text_content(self) -> str:
        """Concatenated text of all descendant T-nodes, in document order."""
        parts: list[str] = []
        for node in self.iter():
            if isinstance(node, Text):
                parts.append(node.text)
        return "".join(parts)

    def iter(self) -> Iterator[Node]:
        """Pre-order (document order) traversal of this subtree."""
        stack: list[Node] = [self]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, Element):
                stack.extend(reversed(node.children))

    def iter_elements(self) -> Iterator["Element"]:
        """Pre-order traversal yielding E-nodes only."""
        for node in self.iter():
            if isinstance(node, Element):
                yield node

    # -- structural measures (used by Fig. 7 statistics) -------------------

    def node_count(self) -> int:
        """Number of E, T and A nodes in this subtree."""
        count = 0
        for node in self.iter():
            count += 1
            if isinstance(node, Element):
                count += len(node.attributes)
        return count

    def height(self) -> int:
        """Element height: a leaf element has height 1; T-nodes do not
        add a level (the paper's Fig. 7 counts OMIM's ROOT/Record/
        Contributors/Date/Month chain as height 5)."""
        best = 1
        for child in self.element_children():
            best = max(best, 1 + child.height())
        return best

    def max_degree(self) -> int:
        """Maximum number of E/T children of any element in this subtree."""
        best = len(self.children)
        for child in self.element_children():
            best = max(best, child.max_degree())
        return best

    # -- misc ---------------------------------------------------------------

    def copy(self) -> "Element":
        clone = Element(self.tag)
        clone.attributes = [attr.copy() for attr in self.attributes]
        try:  # at every level: whichever has the room left reports it
            for child in self.children:
                clone.append(child.copy())
        except RecursionError:
            raise too_deep("copy") from None
        return clone

    def __getstate__(self) -> tuple:
        return (self.tag, self.children, self.attributes)

    def __setstate__(self, state: tuple) -> None:
        self.tag, self.children, self.attributes = state
        self.parent = None
        for child in self.children:
            child.parent = self

    def __repr__(self) -> str:
        return (
            f"Element({self.tag!r}, children={len(self.children)}, "
            f"attrs={len(self.attributes)})"
        )


def element(tag: str, *children: Union[Child, str], **attrs: str) -> Element:
    """Convenience builder: ``element('emp', element('fn', 'John'))``.

    String arguments become T-node children.  Keyword arguments become
    attributes.  Intended for tests and examples; library code builds
    trees explicitly.
    """
    node = Element(tag)
    for name, value in attrs.items():
        node.set_attribute(name, value)
    for child in children:
        if isinstance(child, str):
            node.append(Text(child))
        else:
            node.append(child)
    return node
