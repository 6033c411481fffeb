"""Temporal queries over archives: semantic change reports.

The introduction's motivating complaint (Fig. 1) is that minimum-edit
diffs produce *nonsensical* change descriptions — genes swapping ids —
whereas a key-based archive can say what actually happened to each
element.  This module produces such descriptions:

* :func:`archive_diff` — the changes between two archived versions,
  grouped by element: added, deleted, and content-changed, each
  identified by its key path;
* :func:`keyed_diff` — the same report computed directly from two
  documents (the DeltaXML-style keyed comparison of Sec. 8).

The introduction's other two queries — "to find when a given
observation first appeared ... or when it was last changed" — are
``first_appearance``/``last_change`` on the
:class:`~repro.query.db.ArchiveDB` facade (``repro.open(archive)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..keys.spec import KeySpec
from ..xmltree.canonical import canonical_form
from ..xmltree.model import Element
from .archive import Archive, ArchiveError
from .nodes import ArchiveNode
from .versionset import VersionSet


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

def _step(node: ArchiveNode) -> str:
    label = node.label
    if not label.key:
        return label.tag
    inner = ", ".join(f"{path}={value}" for path, value in label.key)
    return f"{label.tag}[{inner}]"

def _relevant_union(
    archive: Archive,
    node: ArchiveNode,
    effective: VersionSet,
    from_version: int,
    to_version: int,
) -> list[int]:
    """Sorted union of the child indexes alive at either version,
    probed through the archive's timestamp trees so children relevant
    to neither version are pruned without touching them."""
    old_indexes = archive.relevant_children(node, from_version, effective)
    new_indexes = archive.relevant_children(node, to_version, effective)
    return sorted(set(old_indexes) | set(new_indexes))

def archive_diff(archive: Archive, from_version: int, to_version: int) -> ChangeReport:
    """Element-level changes between two archived versions.

    Walks the merged hierarchy once, guided by the archive's timestamp
    trees: at every internal node only the children alive at either
    endpoint version are descended, so the walk's cost tracks the two
    versions' footprint rather than the whole accreted archive.  An
    element is *added* when its timestamp contains ``to_version`` but
    not ``from_version``, *deleted* in the converse case, and *changed*
    when it is a frontier node alive in both versions with different
    content.  Subtrees of added/deleted elements are reported as one
    change (the element itself), matching how a curator thinks about it.
    """
    root_timestamp = archive.root.timestamp
    if root_timestamp is None:
        raise ArchiveError("Archive root carries no timestamp")
    for version in (from_version, to_version):
        if version not in root_timestamp:
            raise ArchiveError(f"Version {version} is not in the archive")
    report = ChangeReport(from_version=from_version, to_version=to_version)

    def walk(node: ArchiveNode, inherited: VersionSet, prefix: str) -> None:
        timestamp = node.effective_timestamp(inherited)
        here = f"{prefix}/{_step(node)}"
        in_old = from_version in timestamp
        in_new = to_version in timestamp
        if not in_old and not in_new:
            return
        if in_old != in_new:
            report.changes.append(
                Change(kind="added" if in_new else "deleted", path=here)
            )
            return
        if node.alternatives is not None:
            old_content = _frontier_content(node, from_version)
            new_content = _frontier_content(node, to_version)
            if old_content != new_content:
                report.changes.append(
                    Change(
                        kind="changed",
                        path=here,
                        old_content=old_content,
                        new_content=new_content,
                    )
                )
            return
        if node.weave is not None:
            old_lines = "\n".join(node.weave.lines_at(from_version))
            new_lines = "\n".join(node.weave.lines_at(to_version))
            if old_lines != new_lines:
                report.changes.append(
                    Change(
                        kind="changed",
                        path=here,
                        old_content=old_lines,
                        new_content=new_lines,
                    )
                )
            return
        for index in _relevant_union(
            archive, node, timestamp, from_version, to_version
        ):
            walk(node.children[index], timestamp, here)

    for index in _relevant_union(
        archive, archive.root, root_timestamp, from_version, to_version
    ):
        walk(archive.root.children[index], root_timestamp, "")
    return report

def _frontier_content(node: ArchiveNode, version: int) -> Optional[str]:
    alternative = node.alternative_at(version)
    if alternative is None:
        return None
    return "".join(canonical_form(c) for c in alternative.content)

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
