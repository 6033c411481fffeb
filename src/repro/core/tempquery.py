"""Temporal queries over archives: histories and semantic change reports.

The introduction's motivating complaint (Fig. 1) is that minimum-edit
diffs produce *nonsensical* change descriptions — genes swapping ids —
whereas a key-based archive can say what actually happened to each
element.  This module answers both of the paper's temporal questions
with one walk:

* :func:`history_in` — when an element existed and its content runs
  (Sec. 7.2: "when a given observation first appeared ... or when it was
  last changed", ``first_appearance``/``last_change`` on the
  :class:`~repro.query.db.ArchiveDB` facade);
* :func:`changes_in` — the changes between two versions, grouped by
  element: added, deleted, and content-changed, each identified by its
  key path, in key order;
* :func:`archive_diff` and :meth:`Archive.history
  <repro.core.archive.Archive.history>` — the same over one archive;
* :func:`keyed_diff` — the report computed directly from two documents
  (the DeltaXML-style keyed comparison of Sec. 8).

Paths are key paths, which the caller reads into labels once
(:func:`~repro.core.archive.key_path_labels`: the grammar and label rule
``select`` uses); the walk matches them label by label as it descends.
:class:`Change` paths keep the paper's rendering.

The walk runs over a list of *part* archives that share the global
version numbering: one archive, or the chunks of a key-hash partitioned
store (Sec. 5).  At every level it carries the *group* of same-label
nodes across the parts.  Timestamps are annotations: a node's effective
timestamp is its own or its parent's, and a group exists wherever any
member does (the union), so the document shell every chunk keeps a copy
of is one element, alive while any chunk has records.  A group's
children are merged by :meth:`Archive.label_order
<repro.core.archive.Archive.label_order>`; a group of one — every group
below the records, and every group of a single archive — is walked in
place, with no merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ..keys.annotate import KeyLabel
from ..keys.spec import KeySpec
from ..xmltree.canonical import canonical_form
from ..xmltree.model import Element
from ..xmltree.serializer import to_string
from .archive import (
    Archive,
    ArchiveError,
    ElementHistory,
    missing_element_error,
)
from .nodes import Alternative, ArchiveNode, Weave
from .versionset import VersionSet

#: One node of one part, beside its effective timestamp.
Member = tuple[Archive, ArchiveNode, VersionSet]


@dataclass
class Change:
    """One element-level change between two versions."""

    kind: str  # 'added', 'deleted' or 'changed'
    path: str  # key path of the element, e.g. /db/dept[name=finance]
    old_content: Optional[str] = None  # for 'changed': canonical before
    new_content: Optional[str] = None  # for 'changed': canonical after

    def __str__(self) -> str:
        if self.kind == "changed":
            return f"changed {self.path}: {self.old_content!r} -> {self.new_content!r}"
        return f"{self.kind} {self.path}"


@dataclass
class ChangeReport:
    """All element-level changes between two versions."""

    from_version: int
    to_version: int
    changes: list[Change] = field(default_factory=list)
    #: Archive nodes the walk looked at (one per part holding the element).
    nodes_visited: int = field(default=0, compare=False)

    def added(self) -> list[Change]:
        return [c for c in self.changes if c.kind == "added"]

    def deleted(self) -> list[Change]:
        return [c for c in self.changes if c.kind == "deleted"]

    def changed(self) -> list[Change]:
        return [c for c in self.changes if c.kind == "changed"]

    def __len__(self) -> int:
        return len(self.changes)

    def __str__(self) -> str:
        header = f"changes {self.from_version} -> {self.to_version}:"
        if not self.changes:
            return header + " none"
        return "\n".join([header] + [f"  {change}" for change in self.changes])


def render_step(label: KeyLabel) -> str:
    """The key-path step a label is reported as: ``tag[path=value, ...]``."""
    if not label.key:
        return label.tag
    inner = ", ".join(f"{path}={value}" for path, value in label.key)
    return f"{label.tag}[{inner}]"


# -- the walk ------------------------------------------------------------------------


def _roots(parts: Sequence[Archive]) -> list[Member]:
    return [(part, part.root, part._root_timestamp()) for part in parts]


def _alive_children(member: Member, versions: tuple[int, ...]) -> list[int]:
    """Sorted indexes of a node's children alive at any of ``versions``
    the node itself lives at, probed through the archive's timestamp
    trees so children relevant to none are pruned without touching
    them."""
    archive, node, timestamp = member
    indexes: set[int] = set()
    for version in versions:
        if version in timestamp:
            indexes.update(archive.relevant_children(node, version, timestamp))
    return sorted(indexes)


def _child_groups(
    group: list[Member], versions: tuple[int, ...]
) -> list[list[Member]]:
    """The group's children alive at any of ``versions``, grouped by
    label across the parts, in label order."""
    if len(group) == 1:
        archive, node, timestamp = group[0]
        alive = [node.children[index] for index in _alive_children(group[0], versions)]
        return [
            [(archive, child, child.effective_timestamp(timestamp))] for child in alive
        ]
    grouped: dict[KeyLabel, list[Member]] = {}
    for member in group:
        archive, node, timestamp = member
        for index in _alive_children(member, versions):
            child = node.children[index]
            grouped.setdefault(child.label, []).append(
                (archive, child, child.effective_timestamp(timestamp))
            )
    order = group[0][0].label_order()
    return [grouped[label] for label in sorted(grouped, key=order)]


def _existence(group: list[Member]) -> VersionSet:
    """Where the group's element exists: the union of its members'."""
    existence = group[0][2]
    for _, _, timestamp in group[1:]:
        existence = existence.union(timestamp)
    return existence


def _content_at(group: list[Member], version: int) -> Optional[str]:
    """The frontier content of a group alive at ``version``."""
    node = group[0][1]
    if len(group) > 1:
        node = next(node for _, node, timestamp in group if version in timestamp)
    if node.weave is not None:
        return "\n".join(node.weave.lines_at(version))
    alternative = node.alternative_at(version)
    if alternative is None:
        return None
    return "".join(canonical_form(c) for c in alternative.content)


def changes_in(
    parts: Sequence[Archive],
    from_version: int,
    to_version: int,
    scope: Sequence[Union[KeyLabel, str]] = (),
) -> ChangeReport:
    """Element-level changes between two versions of the parts' archive.

    At every group only the children alive at either endpoint version
    are descended, so the walk's cost tracks the two versions'
    footprint rather than the whole accreted archive.  An element is
    *added* when its group exists at ``to_version`` but not at
    ``from_version``, *deleted* in the converse case, and *changed* when
    it is a frontier element alive at both with different content.
    Subtrees of added/deleted elements are reported as one change (the
    element itself), matching how a curator thinks about it.

    ``scope`` — a prefix key path's labels,
    ``key_path_labels(prefix, spec, open_last=True)``
    (:func:`~repro.core.archive.key_path_labels`) — keeps the changes at
    or beneath that path and prunes the walk to the groups on the way
    there.  A last step without predicates is a bare tag covering every
    key of it (``/db/dept`` covers ``/db/dept[name=x]``); an element
    added or deleted above the prefix is one change outside it, so
    nothing beneath it is reported.
    """
    versions = (from_version, to_version)
    roots = _roots(parts)
    for _, _, timestamp in roots:
        for version in versions:
            if version not in timestamp:
                raise ArchiveError(f"Version {version} is not in the archive")
    report = ChangeReport(from_version=from_version, to_version=to_version)
    changes = report.changes

    def walk(group: list[Member], parent: str, depth: int) -> None:
        report.nodes_visited += len(group)
        label = group[0][1].label
        if depth < len(scope):
            step = scope[depth]  # a label, or a bare tag covering its keys
            if label != step and label.tag != step:
                return
            depth += 1
        inside = depth == len(scope)
        node = group[0][1]
        here = f"{parent}/{render_step(label)}"
        existence = _existence(group)
        in_old = from_version in existence
        in_new = to_version in existence
        if in_old != in_new:
            if inside:
                changes.append(Change(kind="added" if in_new else "deleted", path=here))
            return
        if node.alternatives is not None or node.weave is not None:
            if inside:
                old_content = _content_at(group, from_version)
                new_content = _content_at(group, to_version)
                if old_content != new_content:
                    changes.append(
                        Change(
                            kind="changed",
                            path=here,
                            old_content=old_content,
                            new_content=new_content,
                        )
                    )
            return
        for child_group in _child_groups(group, versions):
            walk(child_group, here, depth)

    if roots:
        for group in _child_groups(roots, versions):
            walk(group, "", 0)
    return report


def history_in(
    parts: Sequence[Archive], path: str, labels: Sequence[Union[KeyLabel, str]]
) -> ElementHistory:
    """History of the element at a keyed path, across the parts.

    ``labels`` are the path's, as :func:`~repro.core.archive.key_path_labels`
    reads it: ``/db/dept[name=finance]/emp[fn=John, ln=Doe]`` in the
    paper's spelling or ``[fn='John'][ln='Doe']`` in the ``select`` one —
    each step a tag plus the value of every path of its key; steps under
    an empty key take no predicate (``.../emp[fn=John, ln=Doe]/sal``).
    ``path`` names the element in the answer and in errors.  Each step
    is one binary search per member (:meth:`Archive.find_child
    <repro.core.archive.Archive.find_child>`); the element's existence
    is the union of its group's effective timestamps.
    """
    if not parts:
        raise ArchiveError(f"No element at {path!r}: no part holds one, it never existed")
    group = _roots(parts)
    for label in labels:
        found = []
        for archive, node, timestamp in group:
            child = archive.find_child(node, label)
            if child is not None:
                found.append((archive, child, child.effective_timestamp(timestamp)))
        if not found:
            raise missing_element_error(label, path)
        group = found
    _, node, timestamp = group[0]
    return ElementHistory(
        path=path,
        existence=_existence(group).copy(),
        changes=_content_runs(node, timestamp),
    )


def _content_runs(
    node: ArchiveNode, existence: VersionSet
) -> Optional[list[tuple[VersionSet, str]]]:
    """A frontier node's ``(versions, content)`` runs (``None`` for an
    internal node)."""
    if node.alternatives is not None:
        return alternative_runs(node.alternatives, existence)
    if node.weave is not None:
        return _weave_runs(node.weave, existence)
    return None


def alternative_runs(
    alternatives: list[Alternative], existence: VersionSet
) -> list[tuple[VersionSet, str]]:
    """Each alternative's timestamp (an untimestamped one inherits
    ``existence``) beside its rendered content."""
    return [
        (
            (
                alternative.timestamp
                if alternative.timestamp is not None
                else existence
            ).copy(),
            "".join(
                to_string(c) if isinstance(c, Element) else c.text
                for c in alternative.content
            ),
        )
        for alternative in alternatives
    ]


def _weave_runs(weave: Weave, existence: VersionSet) -> list[tuple[VersionSet, str]]:
    """Content runs of a woven frontier node.

    The visible line set only changes where some segment's timestamp
    has an interval boundary, so the weave is rendered once per
    constant-content run instead of once per version — linear in
    runs and segments rather than in the number of versions.
    """
    changes: list[tuple[VersionSet, str]] = []
    if not existence:
        return changes
    boundaries: set[int] = set()
    for segment in weave.segments:
        for lo, hi in segment.timestamp.intervals():
            boundaries.add(lo)
            boundaries.add(hi + 1)
    previous: Optional[str] = None
    run: Optional[VersionSet] = None
    for lo, hi in existence.intervals():
        cuts = sorted(point for point in boundaries if lo < point <= hi)
        starts = [lo] + cuts
        ends = cuts + [hi + 1]
        for start, stop in zip(starts, ends):
            rendered = "\n".join(weave.lines_at(start))
            if rendered == previous and run is not None:
                run.add_range(start, stop - 1)
            else:
                if run is not None and previous is not None:
                    changes.append((run, previous))
                run = VersionSet.from_intervals([(start, stop - 1)])
                previous = rendered
    if run is not None and previous is not None:
        changes.append((run, previous))
    return changes


def archive_diff(archive: Archive, from_version: int, to_version: int) -> ChangeReport:
    """Element-level changes between two versions of one archive
    (:func:`changes_in` over ``[archive]``)."""
    return changes_in([archive], from_version, to_version)


def keyed_diff(
    old: Element, new: Element, spec: KeySpec
) -> ChangeReport:
    """Keyed comparison of two documents (the DeltaXML idea, Sec. 8).

    Rather than minimizing edit distance, elements are matched by key:
    the report never says "gene 6230 renamed itself to 2953" (Fig. 1's
    nonsense); it says the sequence of gene 6230 changed.
    """
    archive = Archive(spec)
    archive.add_version(old.copy())
    archive.add_version(new.copy())
    report = archive_diff(archive, 1, 2)
    report.from_version = 1
    report.to_version = 2
    return report
