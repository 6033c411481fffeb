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

from typing import Union

from .model import Attribute, Element, Text
from .serializer import escape_attribute, escape_text

Value = Union[Element, Text, Attribute]


def canonical_form(value: Value) -> str:
    """Return the canonical string of an XML value."""
    parts: list[str] = []
    _write(value, parts)
    return "".join(parts)


def canonical_form_of_children(node: Element) -> str:
    """Canonical string of a node's *content* (its ordered E/T children).

    Key path values and frontier-node contents are XML values rooted
    *under* a node, so equality must ignore the enclosing tag.
    """
    parts: list[str] = []
    for child in node.children:
        _write(child, parts)
    return "".join(parts)


def _write(value: Value, parts: list[str]) -> None:
    if isinstance(value, Text):
        parts.append(escape_text(value.text))
        return
    if isinstance(value, Attribute):
        parts.append(f'@{value.name}="{escape_attribute(value.value)}"')
        return
    tag = value.tag
    if value.attributes:
        attrs = sorted(value.attributes, key=lambda attr: attr.name)
        attr_text = "".join(
            f' {attr.name}="{escape_attribute(attr.value)}"' for attr in attrs
        )
        parts.append(f"<{tag}{attr_text}>")
    else:  # most elements, on every digested record: no sort, no join
        parts.append(f"<{tag}>")
    for child in value.children:
        if isinstance(child, Text):
            parts.append(escape_text(child.text))
        else:
            _write(child, parts)
    parts.append(f"</{tag}>")
