"""A small XPath evaluator for the paper's data model.

The paper's Sec. 8 argument for the XML archive representation is that
"existing XML query languages such as XQuery can be used to query such
documents".  This module makes that concrete at XPath scale: a query
engine over our Element trees — which include archives, since an
archive *is* an XML document — supporting the fragment scientific
users actually write:

* ``/db/dept/emp``         — child steps from the root;
* ``//tel``                — descendant-or-self anywhere;
* ``/db/*/emp``            — wildcard steps;
* ``/db/dept[name='x']``   — child-value predicates;
* ``//T[@t='3']``          — attribute predicates (timestamp elements!);
* ``/db/dept[2]``          — positional predicates (1-based);
* ``text()`` final step    — string values instead of nodes.

Predicates may be chained (``emp[fn='John'][ln='Doe']``) or listed in one
bracket as the paper writes key paths (``emp[fn=John, ln=Doe]``); a value
containing ``,`` or ``]`` is quoted, any other may be bare.

Expressions parse into structured :class:`Step` and :class:`Predicate`
values rather than opaque closures, so other evaluators — notably the
query planner of :mod:`repro.query.plan`, which pushes key-equality
predicates down into the archive tree — can inspect what a step tests
without re-parsing.  :func:`evaluate` is the primary entry point and
returns a typed :class:`XPathResult`; :func:`xpath` is the original
callable, kept as a shim returning the bare list.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence, Union

from .model import Element

#: Predicate kinds (the supported XPath fragment).
POSITION = "position"  # [2] — 1-based position among the step's candidates
ATTRIBUTE = "attribute"  # [@id='x'] — attribute equality
CHILD_VALUE = "child"  # [name='x'] — child element text equality
TEXT_VALUE = "text"  # [text()='x'] — own text equality

#: Distinct expression texts whose parse is kept (a key path is read on
#: every ``history``; the planner parses once per shape).
PARSE_CACHE = 1024


class XPathError(ValueError):
    """Raised on unsupported or malformed expressions."""


@dataclass(frozen=True)
class Predicate:
    """One structured predicate of a step.

    ``kind`` is one of :data:`POSITION`, :data:`ATTRIBUTE`,
    :data:`CHILD_VALUE`, :data:`TEXT_VALUE`; ``name`` carries the
    attribute or child tag being tested (``None`` otherwise);
    ``position``/``value`` carry the compared constant.
    """

    kind: str
    name: str | None = None
    value: str = ""
    position: int = 0

    def matches(self, node: Element, index: int) -> bool:
        if self.kind == POSITION:
            return index == self.position
        if self.kind == ATTRIBUTE:
            assert self.name is not None
            return node.get_attribute(self.name) == self.value
        if self.kind == TEXT_VALUE:
            return node.text_content() == self.value
        assert self.kind == CHILD_VALUE and self.name is not None
        return any(
            child.text_content() == self.value
            for child in node.find_all(self.name)
        )

    def __str__(self) -> str:
        if self.kind == POSITION:
            return f"[{self.position}]"
        if self.kind == ATTRIBUTE:
            return f"[@{self.name}={self.value!r}]"
        if self.kind == TEXT_VALUE:
            return f"[text()={self.value!r}]"
        return f"[{self.name}={self.value!r}]"


@dataclass(frozen=True)
class Step:
    """One location step: an axis, a name test and its predicates."""

    axis: str  # 'child' or 'descendant'
    name: str  # tag name, '*' or 'text()'
    predicates: tuple[Predicate, ...] = field(default=())

    def __str__(self) -> str:
        prefix = "//" if self.axis == "descendant" else "/"
        return prefix + self.name + "".join(str(p) for p in self.predicates)


#: One location step: its axis and its name test.
_STEP = re.compile(r"(//?)([^/\[\]]*)")
#: One item of a predicate — a position, or ``name = value`` — and what
#: ends it (``,`` or ``]``).  A quoted value closes at the first matching
#: quote followed by that end; a bare one runs to it.
_ITEM = re.compile(
    r"""\s*(?:(\d+)|([^=\[\],]*?)\s*=\s*"""
    r"""(?:(['"])(.*?)\3|([^'"\[\],][^\[\],]*?)?))\s*([,\]])"""
)


def _predicate(number: str | None, name: str, value: str) -> Predicate:
    if number is not None:
        if int(number) < 1:
            raise XPathError(f"Positional predicate must be >= 1: [{number}]")
        return Predicate(kind=POSITION, position=int(number))
    if name.startswith("@"):
        return Predicate(kind=ATTRIBUTE, name=name[1:], value=value)
    if name == "text()":
        return Predicate(kind=TEXT_VALUE, value=value)
    return Predicate(kind=CHILD_VALUE, name=name, value=value)


def parse_steps(expression: str) -> list[Step]:
    """Parse an expression into its location steps: the one path grammar,
    read by :func:`evaluate`, the query planner and every key path
    (``history``, ``changes`` prefixes, chunk routing).  A bracket lists
    one or more items, so the paper's ``emp[fn=John, ln=Doe]`` is the two
    predicates of ``emp[fn='John'][ln='Doe']``.  Raises
    :class:`XPathError` on relative paths or malformed steps.
    """
    return list(_parsed(expression))


@lru_cache(maxsize=PARSE_CACHE)  # steps are immutable: one parse per text
def _parsed(expression: str) -> tuple[Step, ...]:
    text = expression.strip()
    if not text.startswith("/"):
        raise XPathError(f"Only absolute paths are supported: {expression!r}")
    steps: list[Step] = []
    index = 0
    length = len(text)
    while index < length:
        match = _STEP.match(text, index)
        if match is None:
            raise XPathError(f"Expected '/' at offset {index} in {expression!r}")
        marker, name = match.groups()
        if not name:
            raise XPathError(f"Empty step in {expression!r}")
        index = match.end()
        predicates: list[Predicate] = []
        while index < length and text[index] == "[":
            end = ","
            while end == ",":  # ``index`` is at the ``[`` or ``,`` before an item
                item = _ITEM.match(text, index + 1)
                if item is None or item.group(2) == "":
                    raise XPathError(f"Malformed predicate at {index} in {expression!r}")
                number, left, quote, quoted, bare, end = item.groups()
                predicates.append(_predicate(number, left, quoted if quote else bare or ""))
                index = item.end() - 1
            index += 1
        axis = "descendant" if marker == "//" else "child"
        steps.append(Step(axis=axis, name=name, predicates=tuple(predicates)))
    return tuple(steps)


def match_name(node: Element, name: str) -> bool:
    """The name test of a step (``*`` matches every element)."""
    return name == "*" or node.tag == name


def apply_steps(contexts: list[Element], steps: Sequence[Step]) -> list[Element]:
    """Apply location steps to a list of context elements.

    The building block of :func:`evaluate`, exposed so the archive
    query executor can delegate sub-expressions to the element world
    (e.g. below the frontier, where the archive stores plain content).
    Results are deduplicated in first-occurrence order, as descendant
    axes over nested contexts can reach the same node twice.
    """
    current = contexts
    for step in steps:
        current = _apply_step(current, step)
    return current


def _apply_step(nodes: list[Element], step: Step) -> list[Element]:
    # Gather candidates per context node so positional predicates see
    # sibling-relative positions, then filter.
    results: list[Element] = []
    seen: set[int] = set()
    for context in nodes:
        if step.axis == "child":
            candidates = [
                child
                for child in context.element_children()
                if match_name(child, step.name)
            ]
        else:
            candidates = [
                node
                for node in context.iter_elements()
                if match_name(node, step.name)
            ]
        position = 0
        for candidate in candidates:
            position += 1
            if all(pred.matches(candidate, position) for pred in step.predicates):
                if id(candidate) not in seen:
                    seen.add(id(candidate))
                    results.append(candidate)
    return results


class XPathResult(Sequence):
    """A typed, sequence-shaped query result.

    ``kind`` is ``'elements'`` or ``'strings'`` (the latter for
    expressions ending in ``text()``).  The class fixes the old
    ``list[Element] | list[str]`` mixed return type: callers that need
    one kind ask for :attr:`elements` or :attr:`strings` and get a
    clear :class:`XPathError` instead of an ``AttributeError`` deep in
    their own code when the expression returned the other kind.
    """

    __slots__ = ("items", "kind")

    ELEMENTS = "elements"
    STRINGS = "strings"

    def __init__(
        self, items: Union[list[Element], list[str]], kind: str
    ) -> None:
        if kind not in (self.ELEMENTS, self.STRINGS):
            raise XPathError(f"Unknown result kind {kind!r}")
        self.items = items
        self.kind = kind

    @property
    def elements(self) -> list[Element]:
        """The matched elements; raises unless ``kind == 'elements'``."""
        if self.kind != self.ELEMENTS:
            raise XPathError(
                "Query returned strings (text() step), not elements"
            )
        return self.items  # type: ignore[return-value]

    @property
    def strings(self) -> list[str]:
        """The matched string values; raises unless ``kind == 'strings'``."""
        if self.kind != self.STRINGS:
            raise XPathError("Query returned elements, not strings")
        return self.items  # type: ignore[return-value]

    def first(self):
        """The first item, or ``None`` when the result is empty."""
        return self.items[0] if self.items else None

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index):
        return self.items[index]

    def __iter__(self) -> Iterator:
        return iter(self.items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, XPathResult):
            return self.kind == other.kind and self.items == other.items
        if isinstance(other, list):
            return self.items == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"XPathResult(kind={self.kind!r}, items={self.items!r})"


def split_text_step(steps: list[Step]) -> tuple[list[Step], bool]:
    """Strip a final ``text()`` step, validating its shape.

    Returns ``(element_steps, want_text)``; shared with the planner so
    both evaluators agree on what a trailing ``text()`` may look like.
    """
    if not steps:
        raise XPathError("Empty expression")
    want_text = steps[-1].name == "text()"
    if not want_text:
        return steps, False
    text_step = steps[-1]
    if text_step.predicates:
        raise XPathError("text() takes no predicates")
    if text_step.axis != "child":
        raise XPathError("text() must be a child step")
    remaining = steps[:-1]
    if not remaining:
        raise XPathError("text() needs a preceding element step")
    return remaining, True


def evaluate_steps(root: Element, steps: Sequence[Step]) -> list[Element]:
    """Evaluate parsed element steps against a document root.

    The first step must match the document root (as in XPath, where the
    root element is the single child of the document node); the
    planner's snapshot fallback uses this to run a compiled plan's raw
    steps over a materialized snapshot.
    """
    if not steps:
        raise XPathError("Empty expression")
    first = steps[0]
    if first.axis == "child":
        current = (
            [root]
            if match_name(root, first.name)
            and all(pred.matches(root, 1) for pred in first.predicates)
            else []
        )
    else:
        current = _apply_step([virtual_shell(root)], first)
    return apply_steps(current, steps[1:])


def evaluate(root: Element, expression: str) -> XPathResult:
    """Evaluate an XPath expression against a document.

    The first step must match the document root (as in XPath, where the
    root element is the single child of the document node).  A final
    ``text()`` step yields a string result; otherwise elements.
    """
    steps, want_text = split_text_step(parse_steps(expression))
    current = evaluate_steps(root, steps)
    if want_text:
        return XPathResult([node.text_content() for node in current], XPathResult.STRINGS)
    return XPathResult(current, XPathResult.ELEMENTS)


def virtual_shell(root: Element) -> Element:
    """A throwaway document node above ``root``: makes
    descendant-or-self axes include the root itself."""
    return Element("#document", [root])


def xpath(root: Element, expression: str) -> Union[list[Element], list[str]]:
    """Backward-compatible shim over :func:`evaluate`.

    Returns the bare item list with the historical mixed
    ``list[Element] | list[str]`` type; new code should call
    :func:`evaluate` and use the typed :class:`XPathResult`.
    """
    return evaluate(root, expression).items


def xpath_first(root: Element, expression: str):
    """First result of :func:`xpath`, or ``None``."""
    return evaluate(root, expression).first()
