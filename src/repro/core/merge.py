"""Nested Merge (Sec. 4.2): merge a new version into an archive.

``nested_merge`` implements the paper's algorithm: walk archive and
version top-down in lock-step, pairing children with equal key labels
via a merge-join over label-sorted child lists, augmenting timestamps of
surviving nodes with the new version number, terminating timestamps of
deleted nodes, and inserting new subtrees with the new version number
as their timestamp.  Frontier nodes — where keys run out — are handled
by whole-content value comparison (or by an SCCS weave under *further
compaction*, Example 4.3).

The Sec. 4.3 fingerprints let the merge skip what did not change, one
*record* — a child of the document root — at a time.  A tree that
keeps records (:class:`Kept`: a tree a writer holds between appends,
or any tree for the length of a batch) remembers, for every record
alive at the last version, a digest of the record as it arrived and
the explicit timestamps beneath it.  An incoming record whose digest
the memo confirmed at the previous version, and whose entry names the
archive child the record pairs with, is confirmed rather than
descended: the merge extends those timestamps, drops the kept blocks
they sit in, and moves on.  Every other record fills its entry as it is
merged or inserted, and so does every record of a root that enters
whole.  :func:`annotate_version` digests a version's records before
Annotate Keys, and leaves unannotated those whose label a held tree's
memo already holds.  The paper's accretive workloads leave most records
untouched between versions, so Annotate Keys and Nested Merge cost what
the records that changed cost, not what the archive holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Optional

from ..keys.annotate import AnnotatedDocument, KeyLabel, annotate_keys
from ..keys.spec import KeySpec
from ..xmltree.canonical import canonical_form
from ..xmltree.model import Element, Text
from .compaction import merge_weave, weave_from_content
from .fingerprint import Fingerprinter
from .nodes import Alternative, ArchiveNode, ContentNode
from .versionset import VersionSet

SortToken = Callable[[KeyLabel], tuple]


@dataclass
class ArchiveOptions:
    """Behavioural switches of the archiver, and so of Nested Merge.

    * ``fingerprinter`` — order/merge keyed siblings by fingerprints of
      their key values (Sec. 4.3) instead of the values themselves;
      correctness is preserved under collisions.
    * ``compaction`` — store frontier content as an SCCS weave
      (*further compaction*, Example 4.3) instead of full alternatives.
      The two storage forms share the ``<T>`` surface syntax, so
      serialized archives carry a ``storage="weave"`` marker and
      :meth:`~repro.core.archive.Archive.from_xml` restores the right
      form regardless of the options passed at load time.
    """

    fingerprinter: Optional[Fingerprinter] = None
    compaction: bool = False

    def sort_token(self) -> SortToken:
        if self.fingerprinter is not None:
            return self.fingerprinter.sort_token
        return KeyLabel.sort_token


@dataclass
class MergeStats:
    """Counters describing one merge (or a whole batch of merges).

    ``nodes_matched`` counts merge-node visits; ``versions`` counts
    merges accumulated into this instance (1 for a single
    ``add_version``).

    **Contract.**  Every counter but the last two is what a merge of the
    same version into a freshly decoded tree reports, whatever the tree
    remembered: a record the record memo (:class:`Kept`) proved
    unchanged adds its keyed nodes to ``nodes_matched`` — they *are*
    matched, by digest.  What the memo saved is reported beside them:
    ``records_kept`` records matched by digest, and ``nodes_kept`` — of
    ``nodes_matched``, the nodes matched without a descent.
    """

    nodes_matched: int = 0
    nodes_inserted: int = 0
    nodes_terminated: int = 0
    frontier_content_changes: int = 0
    versions: int = 0
    records_kept: int = 0
    nodes_kept: int = 0

    def accumulate(self, other: "MergeStats") -> "MergeStats":
        """Fold another merge's counters into this one (batch totals)."""
        for counter in fields(self):
            name = counter.name
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def nodes_visited(self) -> int:
        """Merge-node visits (nodes the record memo matched by digest
        included, see the contract above)."""
        return self.nodes_matched + self.nodes_inserted

    @property
    def subtrees_skipped(self) -> int:
        """Always 0: the per-node batch memo that counted skipped
        subtrees is gone, and ``records_kept`` counts what the record
        memo saves.  Kept for the e2e harness, which still reads it."""
        return 0

    @property
    def nodes_skipped(self) -> int:
        """Always 0, as :attr:`subtrees_skipped`."""
        return 0


#: About what CPython spends on one :class:`RecordEntry` and its slot
#: in the memo (the object, its digest, two lists), and on each
#: reference those lists hold.
_ENTRY_BYTES = 320
_REFERENCE_BYTES = 8


@dataclass(slots=True)
class RecordEntry:
    """Kept memo of one *record* — a child of the document root.

    Made from the digest alone when a version is digested
    (:func:`annotate_version`); filled by the merge that descends or
    inserts the record (:meth:`fill`: ``node`` set); and from then on
    confirmed, without a descent, by every next version that brings the
    record back to the same node with the same digest (:meth:`confirm`).

    ``timestamps`` are the explicit timestamps at or beneath ``node``
    that contain ``version`` — its own, its live keyed descendants',
    the current :class:`Alternative`'s or weave segments' — which is
    exactly what Nested Merge extends when it walks an unchanged
    record; ``owners`` are the ids of the nodes beneath whose children
    blocks those timestamps are encoded; ``count`` is the record's
    keyed nodes alive at ``version``.
    """

    digest: int
    node: Optional[ArchiveNode] = None
    version: int = 0
    count: int = 0
    timestamps: list[VersionSet] = field(default_factory=list)
    owners: list[int] = field(default_factory=list)

    def fill(self, node: ArchiveNode, version: int) -> None:
        """Remember ``node`` as merged, or inserted, at ``version``."""
        self.node = node
        self.version = version
        self.count = 0
        self.timestamps = []
        self.owners = []
        self._note(node, version)

    def _note(self, node: ArchiveNode, version: int) -> None:
        # Runs over every record a version changed: frontier nodes, most
        # of them with one untimestamped alternative, leave early.
        self.count += 1
        timestamps = self.timestamps
        if node.timestamp is not None:
            timestamps.append(node.timestamp)
        if node.alternatives is not None:
            for alternative in node.alternatives:
                current = alternative.timestamp
                if current is not None and version in current:
                    timestamps.append(current)
            return
        if node.weave is not None:
            for segment in node.weave.segments:
                if version in segment.timestamp:
                    timestamps.append(segment.timestamp)
            return
        found = len(timestamps)
        for child in node.children:
            if child.timestamp is None or version in child.timestamp:
                self._note(child, version)
        if len(timestamps) > found:
            self.owners.append(id(node))

    def confirm(self, version: int, kept: dict, stats: MergeStats) -> bool:
        """The merge of the unchanged record, without the walk; returns
        whether it changed anything an encoder writes."""
        for timestamp in self.timestamps:
            timestamp.add(version)
        for owner in self.owners:
            kept.pop(owner, None)
        self.version = version
        stats.nodes_matched += self.count
        stats.records_kept += 1
        stats.nodes_kept += self.count
        return bool(self.timestamps)


class Kept(dict):
    """What a tree keeps while a writer holds it between appends, or
    for the length of a batch
    (:attr:`Archive.kept <repro.core.archive.Archive.kept>`).

    The mapping itself is the encoder's: children blocks by node id
    (:mod:`repro.storage.xbin`).  ``records`` is the *record memo*: for
    every record alive at the last version merged with its records
    digested (:func:`annotate_version`), its :class:`RecordEntry` by
    digest.  One object, so both halves live, are budgeted and die
    together.  A version merged any other way (an empty version, a root
    not keyed by its tag alone) leaves the entries behind unconfirmed,
    where they can never hit; the next digested version replaces the
    memo.
    """

    def __init__(self) -> None:
        super().__init__()
        self.records: dict[int, RecordEntry] = {}

    def records_bytes(self) -> int:
        """About what the record memo holds, for whoever budgets it."""
        return sum(
            _ENTRY_BYTES
            + _REFERENCE_BYTES * (len(entry.timestamps) + len(entry.owners))
            for entry in self.records.values()
        )


_RECORD_DIGEST = Fingerprinter(bits=128)


def annotate_version(
    document: Element,
    spec: KeySpec,
    memos: list[dict[int, RecordEntry]],
    last_version: int,
) -> AnnotatedDocument:
    """Annotate Keys for a version bound for trees that keep records.

    Every child of the root is digested first (Sec. 4.3: 128 bits over
    the order-sensitive canonical form, so no labels are needed, and
    over the root's tag, so a record never hits across document roots).
    The result's ``records`` maps each record to its entry, which the
    merge fills or, where the tree's memo confirms the record, replaces
    (:func:`nested_merge`).

    A digest one of ``memos`` (the memos of the trees a writer holds)
    confirmed at ``last_version`` saves the record its annotation: it
    takes the label its archive node carries, and the memo's entry.
    Everything else is annotated as always, those records counting
    among their siblings for uniqueness (which is also what refuses the
    same record twice in one version), so every key violation is still
    raised here, before any tree is touched.

    Only a root keyed by its tag alone is treated this way (all of the
    paper's are): any other could not be labelled without its records.
    """
    keyed = spec.roots.get(document.tag)
    if keyed is None or keyed.frontier or keyed.key.key_paths:
        return annotate_keys(document, spec)
    fingerprint = _RECORD_DIGEST.fingerprint
    records: dict[int, RecordEntry] = {}
    known: dict[int, KeyLabel] = {}
    for record in document.element_children():
        digest = fingerprint(f"{document.tag}\x1f{canonical_form(record)}")
        hit = None
        for memo in memos:
            entry = memo.get(digest)
            if entry is not None and entry.version == last_version:
                assert entry.node is not None  # only filled entries are kept
                known[id(record)] = entry.node.label
                hit = entry
                break
        records[id(record)] = hit or RecordEntry(digest)
    annotated = annotate_keys(document, spec, known)
    annotated.records = records
    return annotated


def _content_equal(a: list[ContentNode], b: list[ContentNode]) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if isinstance(x, Text) and isinstance(y, Text):
            # Escaping is injective: equal canonical forms, equal text.
            if x.text != y.text:
                return False
        elif canonical_form(x) != canonical_form(y):
            return False
    return True


def _copies(nodes: list[ContentNode]) -> list[ContentNode]:
    return [node.copy() for node in nodes]


def _attribute_pairs(node: Element) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((attr.name, attr.value) for attr in node.attributes))


class AttributeChangeError(ValueError):
    """An attribute of a persisting keyed node changed between versions.

    The archiver requires keyed-node attributes to be stable (they are
    key values in all the paper's datasets); model a mutable attribute
    as a keyed child element instead.
    """


def build_archive_subtree(
    node: Element,
    document: AnnotatedDocument,
    timestamp: Optional[VersionSet],
    version: int,
    options: ArchiveOptions,
) -> ArchiveNode:
    """Convert a version-``version`` subtree into archive form.

    The subtree root carries ``timestamp``; descendants inherit it (the
    whole subtree enters existence at once), so they store no timestamps
    of their own — this is where timestamp inheritance saves space.
    Weave segments always carry explicit timestamps, hence ``version``.
    """
    label = document.label(node)
    assert label is not None, f"build_archive_subtree on unkeyed node <{node.tag}>"
    archive_node = ArchiveNode(
        label=label, timestamp=timestamp, attributes=_attribute_pairs(node)
    )
    if document.is_frontier(node):
        if options.compaction:
            archive_node.weave = weave_from_content(
                node.children, VersionSet([version])
            )
        else:
            archive_node.alternatives = [
                Alternative(timestamp=None, content=_copies(node.children))
            ]
        return archive_node
    token = options.sort_token()
    children = [
        build_archive_subtree(child, document, None, version, options)
        for child in node.element_children()
    ]
    children.sort(key=lambda c: token(c.label))
    archive_node.children = children
    return archive_node


def nested_merge(
    archive_root: ArchiveNode,
    document: AnnotatedDocument,
    version: int,
    options: Optional[ArchiveOptions] = None,
    kept: Optional[Kept] = None,
) -> MergeStats:
    """Merge version ``version`` (the annotated document) into the archive.

    ``archive_root`` is the paper's virtual root ``r_A``; the document
    root is matched against its children by label.  The archive root's
    timestamp must already include ``version`` (the
    :class:`~repro.core.archive.Archive` facade maintains it).

    ``kept``, when given, is the tree's :attr:`Archive.kept
    <repro.core.archive.Archive.kept>` — encoded children blocks by node
    id.  A node's entry is dropped in the call that changes anything
    beneath the node; what stays is still what an encoder would write.
    When the document came through :func:`annotate_version`, a record
    whose digest ``kept.records`` confirmed at ``version - 1`` for the
    archive child it pairs with is confirmed instead of descended; every
    other record — merged, inserted, or under a root that enters whole
    — fills its entry; and the entries of the records this version
    holds become ``kept.records``.
    """
    options = options or ArchiveOptions()
    stats = MergeStats()
    root_label = document.label(document.root)
    assert root_label is not None
    inherited = archive_root.effective_timestamp(VersionSet())
    token = options.sort_token()
    records = document.records if kept is not None else None

    existing = archive_root.find_child(root_label)
    if existing is None:
        subtree = _insert(document.root, document, version, options, stats)
        archive_root.children.append(subtree)
        archive_root.children.sort(key=lambda c: token(c.label))
        if records:
            # build_archive_subtree sorted the records by the same
            # (unique) tokens, so the lists pair positionally.
            entering = sorted(
                document.root.element_children(),
                key=lambda record: token(document.label(record)),
            )
            for record, node in zip(entering, subtree.children):
                records[id(record)].fill(node, version)
    else:
        _merge_node(
            existing, document.root, document, version, inherited, options,
            stats, kept,
        )
    # Terminate any sibling roots absent from this version.
    for child in archive_root.children:
        if child.label != root_label and child.timestamp is None:
            child.timestamp = inherited.without(version)
    if records:
        entries = [records[id(record)] for record in document.root.element_children()]
        kept.records = {
            entry.digest: entry for entry in entries if entry.node is not None
        }
    return stats


def _merge_node(
    x: ArchiveNode,
    y: Element,
    document: AnnotatedDocument,
    version: int,
    inherited: VersionSet,
    options: ArchiveOptions,
    stats: MergeStats,
    kept: Optional[Kept] = None,
) -> bool:
    """The paper's ``Nested Merge(x, y, T)`` with ``label(x) = label(y)``.

    Returns whether the merge changed anything an encoder writes for
    ``x`` — its own timestamp, its frontier content or anything beneath
    it.
    """
    stats.nodes_matched += 1
    incoming_attributes = _attribute_pairs(y)
    if incoming_attributes != x.attributes:
        raise AttributeChangeError(
            f"Attributes of <{x.label}> changed from {x.attributes} to "
            f"{incoming_attributes}; keyed-node attributes must be stable"
        )
    if x.timestamp is not None:
        x.timestamp.add(version)
        current = x.timestamp
    else:
        current = inherited

    if document.is_frontier(y):
        _merge_frontier(x, y, version, current, stats)
        # Uniform content is content the merge found equal and left
        # alone; any other has had a timestamp extended or set.
        return x.timestamp is not None or not x.content_uniform()

    token = options.sort_token()
    version_children = sorted(
        y.element_children(), key=lambda child: token(document.label(child))
    )
    # x.children is maintained sorted by the same token; merge-join.
    merged: list[ArchiveNode] = []
    below = False  # whether x's children block changed
    # The record memo's entries of y's children, when y is the root of
    # a digested version and the tree is one that keeps records.
    entries = None
    if kept is not None and y is document.root:
        entries = document.records
    i, j = 0, 0
    archive_children = x.children
    while i < len(archive_children) and j < len(version_children):
        x_child = archive_children[i]
        y_child = version_children[j]
        x_token = token(x_child.label)
        y_token = token(document.label(y_child))
        if x_token == y_token:
            entry = entries.get(id(y_child)) if entries else None
            hit = kept.records.get(entry.digest) if entry is not None else None
            if hit is not None and hit.version == version - 1 and hit.node is x_child:
                # Unchanged since the last version: not descended (and,
                # on a held tree's append, never annotated either).
                entries[id(y_child)] = hit
                changed = hit.confirm(version, kept, stats)
            else:
                assert entry is None or entry.node is None, (
                    "a kept record outlived its node"
                )
                changed = _merge_node(
                    x_child, y_child, document, version, current, options,
                    stats, kept,
                )
                if entry is not None:
                    entry.fill(x_child, version)
            if changed:
                below = True
            merged.append(x_child)
            i += 1
            j += 1
        elif x_token < y_token:
            if _terminate(x_child, version, current, stats):
                below = True
            merged.append(x_child)
            i += 1
        else:
            merged.append(
                _insert(y_child, document, version, options, stats, entries)
            )
            below = True
            j += 1
    while i < len(archive_children):
        if _terminate(archive_children[i], version, current, stats):
            below = True
        merged.append(archive_children[i])
        i += 1
    for y_child in version_children[j:]:
        merged.append(_insert(y_child, document, version, options, stats, entries))
        below = True
    x.children = merged
    if below and kept is not None:
        kept.pop(id(x), None)
    return below or x.timestamp is not None


def _terminate(
    x_child: ArchiveNode, version: int, current: VersionSet, stats: MergeStats
) -> bool:
    """Action (b): the archive child is absent from this version.
    Returns whether that changed the child."""
    if x_child.timestamp is None:
        x_child.timestamp = current.without(version)
        stats.nodes_terminated += 1
        return True
    # A child with its own timestamp was simply not augmented; nothing to do.
    return False


def _insert(
    y_child: Element,
    document: AnnotatedDocument,
    version: int,
    options: ArchiveOptions,
    stats: MergeStats,
    entries: Optional[dict[int, RecordEntry]] = None,
) -> ArchiveNode:
    """Action (c): the version child is new; graft it with timestamp {i}
    (and, a record of a tree that keeps them, fill its entry)."""
    stats.nodes_inserted += 1
    node = build_archive_subtree(
        y_child, document, VersionSet([version]), version, options
    )
    if entries:
        entries[id(y_child)].fill(node, version)
    return node


def _merge_frontier(
    x: ArchiveNode,
    y: Element,
    version: int,
    current: VersionSet,
    stats: MergeStats,
) -> None:
    """Frontier-node branch of the paper's algorithm."""
    if x.weave is not None:
        changed = merge_weave(x.weave, y.children, version)
    else:
        assert x.alternatives is not None, "frontier node lost its content store"
        changed = merge_alternatives(x.alternatives, y.children, version, current)
    if changed:
        stats.frontier_content_changes += 1


def merge_alternatives(
    alternatives: list[Alternative],
    content: list[ContentNode],
    version: int,
    current: VersionSet,
) -> bool:
    """Merge one version's frontier content into an alternative list.

    Implements the frontier branch of the paper's algorithm; shared by
    the in-memory merge and the external-memory stream merge.  Returns
    ``True`` when the content changed.
    """
    if len(alternatives) == 1 and alternatives[0].timestamp is None:
        # No timestamp children yet.
        if _content_equal(alternatives[0].content, content):
            return False
        old = alternatives[0]
        old.timestamp = current.without(version)
        alternatives.append(
            Alternative(timestamp=VersionSet([version]), content=_copies(content))
        )
        return True
    # All children are timestamp nodes.
    for alternative in alternatives:
        assert alternative.timestamp is not None
        if _content_equal(alternative.content, content):
            alternative.timestamp.add(version)
            return False
    alternatives.append(
        Alternative(timestamp=VersionSet([version]), content=_copies(content))
    )
    return True
