"""Further compaction of frontier content (Sec. 4.2, Example 4.3).

Plain Nested Merge stores each distinct value of a frontier node's
content in full, under its own timestamp.  *Further compaction* instead
keeps an SCCS-style weave: content is serialized to lines, a shortest
edit script (Myers) aligns the incoming version with the lines visible
in the previous state, unchanged lines merely have their timestamps
augmented, and only genuinely new lines are stored.  "Within the
frontier node, we represent the contents that remain the same across
versions only once and mark the parts that differ by timestamps."
"""

from __future__ import annotations

from ..diffbase.myers import diff_lines
from ..xmltree.model import Text
from ..xmltree.parser import parse_document
from ..xmltree.serializer import to_pretty_string
from .nodes import ContentNode, Weave, WeaveSegment
from .versionset import VersionSet


#: Reserved wrapper tag for top-level text in weave lines.  Joining
#: weave lines with newlines would otherwise pad bare text with
#: whitespace that does not reparse to the same value.
WEAVE_TEXT_TAG = "weave-text"


def content_to_lines(content: list[ContentNode]) -> list[str]:
    """Serialize frontier content to the line form the weave stores.

    Elements take their line-oriented serialization; top-level T-nodes
    become single ``<weave-text>`` lines with newlines escaped, so the
    inverse is exact even for mixed content.
    """
    lines: list[str] = []
    for node in content:
        if isinstance(node, Text):
            escaped = (
                node.text.replace("&", "&amp;")
                .replace("<", "&lt;")
                .replace(">", "&gt;")
                .replace("\n", "&#10;")
            )
            lines.append(f"<{WEAVE_TEXT_TAG}>{escaped}</{WEAVE_TEXT_TAG}>")
        else:
            lines.extend(to_pretty_string(node).rstrip("\n").split("\n"))
    return lines


def lines_to_content(lines: list[str]) -> list[ContentNode]:
    """Parse weave lines back into content nodes.

    Exact inverse of :func:`content_to_lines`: the lines are wrapped in
    a scratch element, re-parsed, and ``<weave-text>`` wrappers are
    unwrapped back into T-nodes.
    """
    if not lines:
        return []
    body = "\n".join(lines)
    scratch = parse_document(f"<weave-scratch>{body}</weave-scratch>")
    content: list[ContentNode] = []
    for child in scratch.children:
        if isinstance(child, Text):
            if not child.text.strip():
                continue  # joining artifact next to elements
            content.append(child)
        elif child.tag == WEAVE_TEXT_TAG:
            content.append(Text(child.text_content()))
        else:
            content.append(child)
    return content


def weave_from_content(content: list[ContentNode], timestamp: VersionSet) -> Weave:
    """A fresh weave holding one version's content."""
    lines = content_to_lines(content)
    if not lines:
        return Weave(segments=[])
    return Weave(segments=[WeaveSegment(timestamp=timestamp.copy(), lines=lines)])


def _latest_version(weave: Weave) -> int | None:
    latest = None
    for segment in weave.segments:
        if segment.timestamp:
            top = segment.timestamp.max_version()
            latest = top if latest is None else max(latest, top)
    return latest


def merge_weave(weave: Weave, content: list[ContentNode], version: int) -> bool:
    """Merge one version's frontier content into the weave.

    The incoming lines are aligned (shortest edit script) against the
    lines visible at the weave's latest recorded version — the SCCS
    discipline.  Kept lines gain ``version`` in their timestamps; new
    lines enter fresh segments timestamped ``{version}``; vanished lines
    simply stay un-augmented.  Returns ``True`` when content changed.
    """
    new_lines = content_to_lines(content)
    latest = _latest_version(weave)

    # The slots visible at the alignment version, in weave order.
    visible: list[tuple[WeaveSegment, int]] = []
    if latest is not None:
        for segment in weave.segments:
            if latest in segment.timestamp:
                for index in range(len(segment.lines)):
                    visible.append((segment, index))
    old_lines = [segment.lines[index] for segment, index in visible]

    if old_lines == new_lines:
        for segment in {id(seg): seg for seg, _ in visible}.values():
            segment.timestamp.add(version)
        return False

    ops = diff_lines(old_lines, new_lines)
    kept: set[int] = set()
    insert_before: dict[int, list[str]] = {}
    for op in ops:
        if op.kind == "equal":
            kept.update(range(op.a_start, op.a_end))
        elif op.kind == "insert":
            insert_before.setdefault(op.a_start, []).extend(
                new_lines[op.b_start : op.b_end]
            )

    rebuilt: list[WeaveSegment] = []

    def emit(lines: list[str], timestamp: VersionSet) -> None:
        if not lines:
            return
        if rebuilt and rebuilt[-1].timestamp == timestamp:
            rebuilt[-1].lines.extend(lines)
        else:
            rebuilt.append(WeaveSegment(timestamp=timestamp, lines=list(lines)))

    position = 0  # index into the visible slot sequence
    visible_ids = {id(segment) for segment, _ in visible}
    for segment in weave.segments:
        if id(segment) not in visible_ids:
            # Dormant segment (lines from older versions only): keep as-is.
            emit(segment.lines, segment.timestamp)
            continue
        for line in segment.lines:
            pending = insert_before.pop(position, None)
            if pending:
                emit(pending, VersionSet([version]))
            timestamp = segment.timestamp.copy()
            if position in kept:
                timestamp.add(version)
            emit([line], timestamp)
            position += 1
    trailing = insert_before.pop(position, None)
    if trailing:
        emit(trailing, VersionSet([version]))
    assert not insert_before, "unplaced weave insertions"

    weave.segments = rebuilt
    return True


def weave_content_at(weave: Weave, version: int) -> list[ContentNode]:
    """The content nodes visible at ``version``."""
    return lines_to_content(weave.lines_at(version))
