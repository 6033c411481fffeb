"""Serialization of the XML data model back to text.

Two formats are provided:

* :func:`to_string` — compact, no inserted whitespace; the inverse of
  :func:`repro.xmltree.parser.parse_document` on our model.
* :func:`to_pretty_string` — the line-oriented layout used throughout the
  paper's experiments: "each element is represented by one or more
  consecutive lines separate from other elements" (Sec. 5), which is what
  makes line diff a competitive delta encoding.
"""

from __future__ import annotations

from typing import Callable

from .model import Attribute, Element, Text, too_deep


def escape_text(value: str) -> str:
    """Escape character data (each character looked for, then replaced)."""
    if "&" in value:
        value = value.replace("&", "&amp;")
    if "<" in value:
        value = value.replace("<", "&lt;")
    if ">" in value:
        value = value.replace(">", "&gt;")
    return value


def escape_attribute(value: str) -> str:
    """Escape an attribute value for inclusion in double quotes."""
    value = escape_text(value)
    if '"' in value:
        value = value.replace('"', "&quot;")
    return value


def attribute_text(attributes: list[Attribute]) -> str:
    """`` name="value"`` for each attribute, in the order given."""
    return "".join(
        [f' {attr.name}="{escape_attribute(attr.value)}"' for attr in attributes]
    )


def to_string(node: Element) -> str:
    """Serialize compactly (no indentation, no added newlines)."""
    parts: list[str] = []
    try:
        _write_compact(node, parts.append)
    except RecursionError:
        raise too_deep("serialize") from None
    return "".join(parts)


def _write_compact(node: Element, emit: Callable[[str], None]) -> None:
    tag = node.tag
    attrs = node.attributes
    head = f"<{tag}{attribute_text(attrs)}" if attrs else f"<{tag}"
    children = node.children
    if not children:
        emit(f"{head}/>")
        return
    if len(children) == 1 and isinstance(children[0], Text):
        emit(f"{head}>{escape_text(children[0].text)}</{tag}>")
        return
    emit(f"{head}>")
    for child in children:
        if isinstance(child, Text):
            emit(escape_text(child.text))
        else:
            _write_compact(child, emit)
    emit(f"</{tag}>")


def to_pretty_string(node: Element, indent: str = "") -> str:
    """Serialize with one element per line (or per line-group).

    Elements whose content is a single T-node are emitted on one line
    (``<fn>John</fn>``); elements with element children open and close on
    their own lines.  This is the paper's experimental layout ("each
    element is represented by one or more consecutive lines"), which is
    what makes line diff a compact delta encoding.  The default of no
    indentation keeps byte counts free of depth artifacts — the archive
    nests a few levels deeper than a version and must not be penalized
    for whitespace; pass ``indent='  '`` for human-readable output.
    """
    lines: list[str] = []
    try:
        _write_pretty(node, lines.append, "", indent)
    except RecursionError:
        raise too_deep("serialize") from None
    return "\n".join(lines) + "\n"


def _escape_line_text(value: str) -> str:
    """Escape text for one-line emission: newlines become ``&#10;`` so
    the line-oriented form reparses to the exact original value."""
    value = escape_text(value)
    if "\n" in value:
        value = value.replace("\n", "&#10;")
    return value


def _write_pretty(
    node: Element, emit: Callable[[str], None], pad: str, indent: str
) -> None:
    tag = node.tag
    attrs = node.attributes
    head = f"{pad}<{tag}{attribute_text(attrs)}" if attrs else f"{pad}<{tag}"
    children = node.children
    if not children:
        emit(f"{head}/>")
        return
    if len(children) == 1 and isinstance(children[0], Text):
        emit(f"{head}>{_escape_line_text(children[0].text)}</{tag}>")
        return
    for child in children:
        if isinstance(child, Text):
            break
    else:
        emit(f"{head}>")
        deeper = pad + indent
        for child in children:
            _write_pretty(child, emit, deeper, indent)
        emit(f"{pad}</{tag}>")
        return
    # Mixed content stays on one line; splitting it would inject
    # whitespace that does not reparse to the same value.
    parts: list[str] = []
    for child in children:
        if isinstance(child, Text):
            parts.append(_escape_line_text(child.text))
        else:
            _write_compact(child, parts.append)
    emit(f"{head}>{''.join(parts)}</{tag}>")


def write_file(node: Element, path: str, pretty: bool = True) -> int:
    """Write ``node`` to ``path``; return the number of bytes written."""
    text = to_pretty_string(node) if pretty else to_string(node)
    data = text.encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(data)
    return len(data)


def serialized_size(node: Element, pretty: bool = True) -> int:
    """Byte size of the serialized document (UTF-8)."""
    text = to_pretty_string(node) if pretty else to_string(node)
    return len(text.encode("utf-8"))
