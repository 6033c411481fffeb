"""Canonical form of an XML value (Sec. 4.3).

The canonical form is a deterministic string such that two values are
value equal exactly when their canonical strings are equal:

    ``V =v V'  ⟺  C_V = C_V'``

Following W3C Canonical XML in spirit (and the paper's use of it), the
canonicalizer sorts attributes by name, uses explicit open/close tags
(never the empty-element form), escapes a fixed character set, and emits
no inter-element whitespace (the paper's model ignores it; footnote 3).
"""

from __future__ import annotations

from typing import Callable, Iterable, Union

from .model import Attribute, Element, Text, too_deep
from .serializer import attribute_text, escape_attribute, escape_text

Value = Union[Element, Text, Attribute]


def canonical_form(value: Value) -> str:
    """Return the canonical string of an XML value."""
    return _render((value,))


def canonical_form_of_children(node: Element) -> str:
    """Canonical string of a node's *content* (its ordered E/T children).

    Key path values and frontier-node contents are XML values rooted
    *under* a node, so equality must ignore the enclosing tag.
    """
    return _render(node.children)


def _render(values: Iterable[Value]) -> str:
    parts: list[str] = []
    try:
        for value in values:
            _write(value, parts.append)
    except RecursionError:
        raise too_deep("canonicalize") from None
    return "".join(parts)


def _write(value: Value, emit: Callable[[str], None]) -> None:
    if isinstance(value, Text):
        emit(escape_text(value.text))
        return
    if isinstance(value, Attribute):
        emit(f'@{value.name}="{escape_attribute(value.value)}"')
        return
    tag = value.tag
    if value.attributes:  # few elements do, on any digested record
        ordered = sorted(value.attributes, key=lambda attr: attr.name)
        head = f"<{tag}{attribute_text(ordered)}>"
    else:
        head = f"<{tag}>"
    children = value.children
    if len(children) == 1 and isinstance(children[0], Text):
        emit(f"{head}{escape_text(children[0].text)}</{tag}>")
        return
    emit(head)
    for child in children:
        if isinstance(child, Text):
            emit(escape_text(child.text))
        else:
            _write(child, emit)
    emit(f"</{tag}>")
