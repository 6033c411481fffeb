"""A hand-written XML parser for the paper's data model.

The parser accepts the well-formed XML subset the paper's documents use:
elements, attributes (single- or double-quoted), character data, the five
predefined entities plus numeric character references, comments,
processing instructions and CDATA sections.  DTDs are tolerated at the
prolog and skipped.

Inter-element whitespace — text consisting entirely of whitespace that
appears next to element siblings — is dropped, matching the paper's model
(footnote 3 in Sec. 4.3: "our XML model ignores these whitespaces").
Whitespace inside mixed content where no element siblings exist is kept.

Well-formed input is consumed by one compiled pattern per token — a run
of character data plus the markup that ends it — in a loop over an
explicit element stack.  Only where that pattern stops matching is the
input looked at piece by piece, to name what is wrong and where.
"""

from __future__ import annotations

import re

from .model import Element, Text

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_S = r"[ \t\r\n]*"
#: ``\w`` is "alphanumeric or underscore"; leaving out ``\d`` leaves a few
#: non-decimal numerics (superscripts, Roman numerals) that
#: :func:`_bad_name_start` rejects.
_NAME = r"(?:[^\W\d]|:)[\w:.\-]*"
#: Character data, then what ends it: a close tag (group 2), an open tag
#: (3; group 4 is its ``>`` or ``/>`` when no attribute stands between),
#: a CDATA section (5), a comment or a processing instruction.  The last
#: two look for their terminator from the opener's "<" on.
_TOKEN = re.compile(
    rf"([^<]*)(?:</({_NAME}){_S}>|<({_NAME}){_S}(/?>)?"
    r"|<!\[CDATA\[(.*?)\]\]>|<!(?=--).*?-->|<(?=\?).*?\?>)",
    re.DOTALL,
)
#: Inside a start tag: its end (group 1), or one more attribute.
_ATTRIBUTE = re.compile(
    rf"{_S}(?:(/?>)|({_NAME}){_S}={_S}([\"'])(.*?)\3)", re.DOTALL
)
_NAME_AT = re.compile(_NAME)
_SPACE_AT = re.compile(_S)
_ENTITY = re.compile(r"&([^;]*)(;?)")
_DOCTYPE_MARK = re.compile(r"[\[\]>]")


class XMLSyntaxError(ValueError):
    """Raised on malformed input, with position information."""

    def __init__(self, message: str, position: int, line: int) -> None:
        super().__init__(f"{message} (at offset {position}, line {line})")
        self.position = position
        self.line = line


def _bad_name_start(name: str) -> bool:
    return not (name.isascii() or name[0].isalpha() or name[0] in "_:")


class _Parser:
    """Token-loop parser over a source string."""

    def __init__(self, source: str) -> None:
        self.source = source

    def _fail(self, message: str, position: int) -> XMLSyntaxError:
        line = self.source.count("\n", 0, position) + 1
        return XMLSyntaxError(message, position, line)

    # -- pieces the token pattern does not cover ---------------------------

    def _name_end(self, pos: int) -> int:
        match = _NAME_AT.match(self.source, pos)
        if match is None or _bad_name_start(match.group()):
            raise self._fail("Expected a name", pos)
        return match.end()

    def _past(self, pos: int, terminator: str, what: str) -> int:
        end = self.source.find(terminator, pos)
        if end == -1:
            raise self._fail(f"Unterminated {what}", pos)
        return end + len(terminator)

    def _expand_entities(self, raw: str, position: int) -> str:
        """``raw`` with its references replaced; errors point at ``position``."""

        def replace(match: "re.Match[str]") -> str:
            name, semicolon = match.groups()
            if not semicolon:
                raise self._fail("Unterminated entity reference", position)
            if name[:2] in ("#x", "#X"):
                return chr(int(name[2:], 16))
            if name[:1] == "#":
                return chr(int(name[1:]))
            if name not in _PREDEFINED_ENTITIES:
                raise self._fail(f"Unknown entity &{name};", position)
            return _PREDEFINED_ENTITIES[name]

        return _ENTITY.sub(replace, raw)

    def _skip_misc(self, pos: int, doctype: bool) -> int:
        """Past whitespace, comments and processing instructions (and,
        in the prolog, a DOCTYPE)."""
        source = self.source
        while True:
            pos = _SPACE_AT.match(source, pos).end()
            if source.startswith("<?", pos):
                pos = self._past(pos, "?>", "processing instruction")
            elif source.startswith("<!--", pos):
                pos = self._past(pos, "-->", "comment")
            elif doctype and source.startswith("<!DOCTYPE", pos):
                pos = self._skip_doctype(pos)
            else:
                return pos

    def _skip_doctype(self, pos: int) -> int:
        # Skip to the matching '>', allowing a bracketed internal subset.
        depth = 0
        for mark in _DOCTYPE_MARK.finditer(self.source, pos):
            if mark.group() == "[":
                depth += 1
            elif mark.group() == "]":
                depth -= 1
            elif depth <= 0:
                return mark.end()
        raise self._fail("Unterminated DOCTYPE", len(self.source))

    # -- grammar -----------------------------------------------------------

    def parse_document(self) -> Element:
        source = self.source
        pos = self._skip_misc(0, doctype=True)
        if not source.startswith("<", pos):
            raise self._fail(f"Expected '<', found {source[pos : pos + 1]!r}", pos)
        name_end = self._name_end(pos + 1)
        root = Element(source[pos + 1 : name_end])
        pos, end = self._attributes(root, name_end)
        if end == ">":
            pos = self._content(root, pos)
        pos = self._skip_misc(pos, doctype=False)
        if pos != len(source):
            raise self._fail("Content after document root", pos)
        return root

    def _attributes(self, node: Element, pos: int) -> tuple[int, str]:
        """Read attributes from ``pos`` to the end of the start tag;
        returns the position behind it and the ``>`` or ``/>`` it ended on."""
        source = self.source
        while True:
            match = _ATTRIBUTE.match(source, pos)
            if match is None or (match[2] and _bad_name_start(match[2])):
                raise self._attribute_error(pos)
            end, name, _quote, raw = match.groups()
            if end:
                return match.end(), end
            if "&" in raw:
                raw = self._expand_entities(raw, match.start(4))
            pos = match.end()
            if node.get_attribute(name) is not None:
                raise self._fail(f"Duplicate attribute {name!r} on <{node.tag}>", pos)
            node.set_attribute(name, raw)

    def _attribute_error(self, pos: int) -> XMLSyntaxError:
        """Why nothing at ``pos`` reads as an attribute or a tag end."""
        source = self.source
        space = _SPACE_AT.match
        pos = space(source, self._name_end(space(source, pos).end())).end()
        if not source.startswith("=", pos):
            return self._fail(f"Expected '=', found {source[pos : pos + 1]!r}", pos)
        pos = space(source, pos + 1).end()
        if pos >= len(source):
            return self._fail("Unexpected end of input", pos)
        if source[pos] not in "'\"":
            return self._fail("Attribute value must be quoted", pos)
        return self._fail("Unterminated attribute value", pos + 1)

    def _content(self, root: Element, pos: int) -> int:
        """Read ``root``'s content and close tag; returns the position
        behind the close tag."""
        source = self.source
        token = _TOKEN.match
        stack: list[Element] = []
        node, tag, children = root, root.tag, root.children
        parts: list[str] = []  # text runs split by comments, CDATA, PIs
        while True:
            match = token(source, pos)
            if match is None:
                raise self._content_error(pos, tag)
            text, close, name, end, cdata = match.groups()
            if "&" in text:
                text = self._expand_entities(text, match.end(1))
            pos = match.end()
            if close is None and name is None:
                parts.append(text + cdata if cdata else text)
                continue
            if parts:
                parts.append(text)
                text = "".join(parts)
                parts.clear()
            if name is not None:
                if _bad_name_start(name):
                    raise self._fail("Expected a name", match.start(3))
                # Whitespace-only text before an element is ignorable.
                # ``children.append``, not ``Element.append``: two text
                # runs never meet here, they were joined above.
                if text and not text.isspace():
                    children.append(Text(text))
                child = Element(name)
                children.append(child)
                if end is None:
                    pos, end = self._attributes(child, pos)
                if end == ">":
                    stack.append(node)
                    node, tag, children = child, name, child.children
                continue
            if close != tag:
                raise self._content_error(match.end(1), tag)
            # Whitespace-only text is ignorable beside element siblings
            # (any child here is, or stands before, an element).
            if text and not (children and text.isspace()):
                children.append(Text(text))
            if not stack:
                return pos
            node = stack.pop()
            tag, children = node.tag, node.children

    def _content_error(self, pos: int, tag: str) -> XMLSyntaxError:
        """Why no token starts at ``pos`` inside ``<tag>``."""
        source = self.source
        markup = source.find("<", pos)
        if markup == -1:
            return self._fail(f"Unclosed element <{tag}>", pos)
        self._expand_entities(source[pos:markup], markup)
        if source.startswith("</", markup):
            end = self._name_end(markup + 2)
            close = source[markup + 2 : end]
            if close != tag:
                return self._fail(f"Mismatched close tag </{close}> for <{tag}>", end)
            end = _SPACE_AT.match(source, end).end()
            return self._fail(f"Expected '>', found {source[end : end + 1]!r}", end)
        for opener, terminator, what in (
            ("<!--", "-->", "comment"),
            ("<![CDATA[", "]]>", "CDATA section"),
            ("<?", "?>", "processing instruction"),
        ):
            if source.startswith(opener, markup):
                self._past(markup, terminator, what)
        # The token pattern reads any "<" a name follows.
        return self._fail("Expected a name", markup + 1)


def parse_document(source: str) -> Element:
    """Parse an XML document string into an :class:`Element` tree."""
    return _Parser(source).parse_document()


def parse_file(path: str) -> Element:
    """Parse the XML document stored at ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_document(handle.read())
