"""Nested Merge (Sec. 4.2): merge a new version into an archive.

``nested_merge`` implements the paper's algorithm: walk archive and
version top-down in lock-step, pairing children with equal key labels
via a merge-join over label-sorted child lists, augmenting timestamps of
surviving nodes with the new version number, terminating timestamps of
deleted nodes, and inserting new subtrees with the new version number
as their timestamp.  Frontier nodes — where keys run out — are handled
by whole-content value comparison (or by an SCCS weave under *further
compaction*, Example 4.3).

Batched ingestion threads a :class:`MergeMemo` through the walk: the
memo remembers, per archive node, a fingerprint (Sec. 4.3 digests over
canonical forms) of the subtree it stored after the previous version of
the batch.  When the incoming version's subtree carries the same
fingerprint and the archive subtree is *uniform* (no explicit
timestamps below — see :meth:`ArchiveNode.subtree_uniform`), the merge
skips the whole descent: the paper's accretive workloads leave most
keyed subtrees untouched between versions, so ingestion cost tracks the
delta instead of the archive size.

A lone append has no batch to carry a memo across, but the tree a
writer holds between appends does: beside its kept blocks it keeps a
*record memo* (:class:`Kept`) — for every child of the document root
alive at the last version, a digest of the record as it arrived and the
explicit timestamps beneath it.  :func:`annotate_version` digests an
incoming version's records **before** Annotate Keys; a record whose
digest the memo confirmed at the last version is neither annotated nor
descended: the merge extends those timestamps, drops the kept blocks
they sit in, and moves on.  Annotate Keys and Nested Merge then cost
what the records that changed cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Optional

from ..keys.annotate import AnnotatedDocument, KeyLabel, annotate_keys
from ..keys.spec import KeySpec
from ..xmltree.canonical import canonical_form
from ..xmltree.model import Element, Text
from .compaction import lines_to_content, merge_weave, weave_from_content
from .fingerprint import Fingerprinter
from .nodes import Alternative, ArchiveNode, ContentNode, WeaveSegment
from .versionset import VersionSet

SortToken = Callable[[KeyLabel], tuple]


@dataclass
class MergeOptions:
    """Tunable behaviour of Nested Merge.

    * ``fingerprinter`` — when set, keyed siblings are ordered by
      fingerprints of their key values (Sec. 4.3) instead of the values
      themselves; correctness is preserved under collisions.
    * ``compaction`` — when ``True``, frontier content is stored as an
      SCCS-style weave (*further compaction*) instead of per-timestamp
      alternatives.
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

    ``nodes_matched`` counts merge-node visits; the skip counters record
    work the batch's fingerprint memo avoided: ``subtrees_skipped``
    unchanged keyed subtrees whose descent was short-circuited,
    ``nodes_skipped`` the keyed nodes inside them that were never
    visited, and ``frontier_skips`` frontier nodes whose content
    comparison was replaced by a digest hit.  ``versions`` counts merges
    accumulated into this instance (1 for a single ``add_version``).

    **Contract.**  Every counter above is what a merge of the same
    version into a freshly decoded tree reports, whatever the tree's
    holder remembered: a record the kept memo (:class:`Kept`) proved
    unchanged adds its keyed nodes to ``nodes_matched`` — they *are*
    matched, by digest — and nothing to the batch memo's skip counters.
    What the holder saved is reported beside them: ``records_kept``
    records matched by digest, and ``nodes_kept`` — of
    ``nodes_matched``, the nodes matched without a descent.
    """

    nodes_matched: int = 0
    nodes_inserted: int = 0
    nodes_terminated: int = 0
    frontier_content_changes: int = 0
    subtrees_skipped: int = 0
    nodes_skipped: int = 0
    frontier_skips: int = 0
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
        """Merge-node visits (skips excluded; nodes a kept memo matched
        by digest included, see the contract above)."""
        return self.nodes_matched + self.nodes_inserted


@dataclass
class SubtreeEntry:
    """Memo record for one archive subtree: its content fingerprint as
    of the last merged version, plus its keyed-node count (how many
    merge visits a skip saves)."""

    digest: int
    count: int


@dataclass
class FrontierEntry:
    """Memo record for a timestamped frontier node: the fingerprint of
    the content current at the last merged version, and the storage it
    lives in — the matching :class:`Alternative`, or the weave segments
    visible at that version."""

    digest: int
    alternative: Optional[Alternative] = None
    segments: Optional[list[WeaveSegment]] = None

    def augment(self, version: int) -> None:
        """Apply the unchanged-content merge effect: extend the current
        content's timestamps with ``version``."""
        if self.alternative is not None:
            assert self.alternative.timestamp is not None
            self.alternative.timestamp.add(version)
        if self.segments is not None:
            for segment in self.segments:
                segment.timestamp.add(version)


class MergeMemo:
    """Cross-version fingerprint memo for batched ingestion (Sec. 4.3).

    ``subtree`` maps archive-node ids to :class:`SubtreeEntry`; an entry
    certifies that the node's subtree is uniform (skip-safe) and records
    the digest of the version content it stores.  ``frontier`` maps
    timestamped frontier nodes to the digest of their *current* content.
    ``incoming``/``incoming_counts`` hold the digests of the version
    being merged right now, keyed by element id (refreshed per version
    by :meth:`prepare_version`).

    Skip equality is probabilistic in exactly the sense of the paper's
    fingerprints (DOMHash): the memo uses its own wide digest — 128 bits
    by default, independent of any narrow sorting fingerprinter the
    archive options carry — so a collision is never forced by the
    collision-testing configurations.
    """

    def __init__(self, fingerprinter: Optional[Fingerprinter] = None) -> None:
        self.fingerprinter = fingerprinter or Fingerprinter(bits=128)
        self.subtree: dict[int, SubtreeEntry] = {}
        self.frontier: dict[int, FrontierEntry] = {}
        self.incoming: dict[int, int] = {}
        self.incoming_counts: dict[int, int] = {}

    # -- incoming-version digests ------------------------------------------

    def prepare_version(
        self, document: AnnotatedDocument, options: "MergeOptions"
    ) -> None:
        """Digest every keyed subtree of the incoming version bottom-up.

        Internal nodes hash their children's digests in sort-token order
        (the order the archive stores siblings in), so the digest is
        stable under the keyed-sibling reordering the archive ignores.
        """
        self.incoming = {}
        self.incoming_counts = {}
        fingerprinter = self.fingerprinter
        token = options.sort_token()
        stack: list[tuple[Element, bool]] = [(document.root, False)]
        while stack:
            node, expanded = stack.pop()
            if document.is_frontier(node):
                self.incoming[id(node)] = fingerprinter.frontier_digest(
                    node.tag, _attribute_pairs(node), node.children
                )
                self.incoming_counts[id(node)] = 1
                continue
            if not expanded:
                stack.append((node, True))
                for child in node.element_children():
                    stack.append((child, False))
                continue
            children = sorted(
                node.element_children(), key=lambda c: token(document.label(c))
            )
            self.incoming[id(node)] = fingerprinter.subtree_digest(
                node.tag,
                _attribute_pairs(node),
                (self.incoming[id(child)] for child in children),
            )
            self.incoming_counts[id(node)] = 1 + sum(
                self.incoming_counts[id(child)] for child in children
            )

    # -- seeding from an existing archive ----------------------------------

    def seed(self, archive_root: ArchiveNode, last_version: int) -> None:
        """Prime the memo from an archive that already holds versions.

        Uniform subtrees get :class:`SubtreeEntry` records digesting the
        content they store; timestamped frontier nodes whose content is
        current at ``last_version`` get :class:`FrontierEntry` records.
        A batch appended to an existing archive can then skip from its
        very first version.
        """
        for child in archive_root.children:
            self._seed_node(child, last_version)

    def _seed_node(
        self, node: ArchiveNode, last_version: int
    ) -> tuple[Optional[int], int]:
        """Post-order walk returning ``(digest-if-uniform, keyed count)``."""
        if node.is_frontier:
            if node.content_uniform():
                content = node.alternatives[0].content if node.alternatives else []
                digest = self.fingerprinter.frontier_digest(
                    node.label.tag, node.attributes, content
                )
                self.subtree[id(node)] = SubtreeEntry(digest=digest, count=1)
                return digest, 1
            self._seed_frontier(node, last_version)
            return None, 1
        child_digests: list[Optional[int]] = []
        count = 1
        uniform = True
        for child in node.children:
            digest, child_count = self._seed_node(child, last_version)
            count += child_count
            if child.timestamp is not None or digest is None:
                uniform = False
            child_digests.append(digest)
        if not uniform:
            return None, count
        digest = self.fingerprinter.subtree_digest(
            node.label.tag, node.attributes, child_digests  # type: ignore[arg-type]
        )
        self.subtree[id(node)] = SubtreeEntry(digest=digest, count=count)
        return digest, count

    def _seed_frontier(self, node: ArchiveNode, last_version: int) -> None:
        if node.alternatives is not None:
            for alternative in node.alternatives:
                if (
                    alternative.timestamp is not None
                    and last_version in alternative.timestamp
                ):
                    digest = self.fingerprinter.frontier_digest(
                        node.label.tag, node.attributes, alternative.content
                    )
                    self.frontier[id(node)] = FrontierEntry(
                        digest=digest, alternative=alternative
                    )
                    return
            return
        assert node.weave is not None
        segments = [
            segment
            for segment in node.weave.segments
            if last_version in segment.timestamp
        ]
        if not segments:
            return
        content = lines_to_content(node.weave.lines_at(last_version))
        digest = self.fingerprinter.frontier_digest(
            node.label.tag, node.attributes, content
        )
        self.frontier[id(node)] = FrontierEntry(digest=digest, segments=segments)


#: About what CPython spends on one :class:`RecordEntry` and its slot
#: in the memo (the object, its digest, two lists), and on each
#: reference those lists hold.
_ENTRY_BYTES = 320
_REFERENCE_BYTES = 8


@dataclass(slots=True)
class RecordEntry:
    """Kept memo of one *record* — a child of the document root.

    Made from the digest alone when a version is digested
    (:func:`annotate_version`); filled by the merge that descends the
    record (:meth:`fill`: ``node`` set); and from then on confirmed,
    without a descent, by every version that brings the record back
    with the same digest (:meth:`confirm`).

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
    """What a tree keeps while a writer holds it between appends
    (:attr:`Archive.kept <repro.core.archive.Archive.kept>`).

    The mapping itself is the encoder's: children blocks by node id
    (:mod:`repro.storage.xbin`).  ``records`` is the *record memo*: for
    every record alive at the last version merged through
    :func:`annotate_version`, its :class:`RecordEntry` by digest.  One
    object, so both halves live, are budgeted and die together.  A
    version merged any other way (a batch, an empty version) leaves the
    entries behind unconfirmed, where they can never hit; the next
    digested version replaces the memo.
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
    A digest one of ``memos`` holds, *confirmed at* ``last_version``, is
    a hit: the record takes the label its archive node carries and is
    not annotated.  Everything else is annotated as always, hits
    counting among their siblings for uniqueness (which is also what
    refuses the same record twice in one version), so every key
    violation is still raised here, before any tree is touched.  The
    result's ``records`` maps each record to its entry: the memo's own
    for a hit, a fresh one to fill for a miss.

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


def _copy_content(nodes: list[ContentNode]) -> list[ContentNode]:
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
    options: MergeOptions,
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
                Alternative(timestamp=None, content=_copy_content(node.children))
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
    options: Optional[MergeOptions] = None,
    memo: Optional[MergeMemo] = None,
    kept: Optional[Kept] = None,
) -> MergeStats:
    """Merge version ``version`` (the annotated document) into the archive.

    ``archive_root`` is the paper's virtual root ``r_A``; the document
    root is matched against its children by label.  The archive root's
    timestamp must already include ``version`` (the
    :class:`~repro.core.archive.Archive` facade maintains it).

    ``memo``, when given, must have been prepared for this version with
    :meth:`MergeMemo.prepare_version`; unchanged uniform subtrees are
    then skipped instead of descended.

    ``kept``, when given, is the tree's :attr:`Archive.kept
    <repro.core.archive.Archive.kept>` — encoded children blocks by node
    id.  A node's entry is dropped in the call that changes anything
    beneath the node; what stays is still what an encoder would write.
    When the document came through :func:`annotate_version`, its hits
    are confirmed instead of descended, its misses fill their entries
    as they are merged, and the entries of the records this version
    holds become ``kept.records``.  (A root that enters whole — the
    first version of a tree — fills none: its records hit from the
    version after next.)
    """
    options = options or MergeOptions()
    stats = MergeStats()
    root_label = document.label(document.root)
    assert root_label is not None
    inherited = archive_root.effective_timestamp(VersionSet())
    token = options.sort_token()

    existing = archive_root.find_child(root_label)
    if existing is None:
        subtree = _insert(
            archive_root, document.root, document, version, options, stats, memo
        )
        archive_root.children.append(subtree)
        archive_root.children.sort(key=lambda c: token(c.label))
    else:
        _merge_node(
            existing,
            document.root,
            document,
            version,
            inherited,
            options,
            stats,
            memo,
            kept,
        )
    # Terminate any sibling roots absent from this version.
    for child in archive_root.children:
        if child.label != root_label and child.timestamp is None:
            child.timestamp = inherited.without(version)
    if kept is not None and document.records:
        entries = [
            document.records[id(record)]
            for record in document.root.element_children()
        ]
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
    options: MergeOptions,
    stats: MergeStats,
    memo: Optional[MergeMemo] = None,
    kept: Optional[Kept] = None,
) -> tuple[bool, bool]:
    """The paper's ``Nested Merge(x, y, T)`` with ``label(x) = label(y)``.

    Returns ``(uniform, changed)``: whether the subtree below ``x`` is
    *uniform* after the merge (skip-safe for the next version: no
    explicit timestamp below needs augmenting while the content stays
    unchanged), and whether the merge changed anything an encoder
    writes for ``x`` — its own timestamp, its frontier content or
    anything beneath it.
    """
    stats.nodes_matched += 1
    digest = memo.incoming.get(id(y)) if memo is not None else None
    if memo is not None and digest is not None:
        entry = memo.subtree.get(id(x))
        if entry is not None and entry.digest == digest:
            # Fingerprint hit on a uniform subtree: the only merge effect
            # is augmenting x's own timestamp (descendants inherit it).
            if x.timestamp is not None:
                x.timestamp.add(version)
            stats.subtrees_skipped += 1
            stats.nodes_skipped += entry.count - 1
            return True, x.timestamp is not None
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
        _merge_frontier(x, y, version, current, options, stats, memo, digest)
        uniform = x.content_uniform()
        _note_subtree(memo, x, y, digest, uniform)
        # Uniform content is content the merge found equal and left
        # alone; any other has had a timestamp extended or set.
        return uniform, x.timestamp is not None or not uniform

    token = options.sort_token()
    version_children = sorted(
        y.element_children(), key=lambda child: token(document.label(child))
    )
    # x.children is maintained sorted by the same token; merge-join.
    merged: list[ArchiveNode] = []
    uniform = True
    below = False  # whether x's children block changed
    # The kept memo's entries of y's children, when y is the root of a
    # digested version and the tree is one that keeps records.
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
            if entry is not None and entry.node is not None:
                # A hit: y_child was never annotated, and is not descended.
                assert entry.node is x_child, "a kept record outlived its node"
                child_uniform = False
                child_changed = entry.confirm(version, kept, stats)
            else:
                child_uniform, child_changed = _merge_node(
                    x_child,
                    y_child,
                    document,
                    version,
                    current,
                    options,
                    stats,
                    memo,
                    kept,
                )
                if entry is not None:
                    entry.fill(x_child, version)
            if not child_uniform or x_child.timestamp is not None:
                uniform = False
            if child_changed:
                below = True
            merged.append(x_child)
            i += 1
            j += 1
        elif x_token < y_token:
            # A terminated child never contains ``version``, so it needs
            # no augmentation from future skips: uniformity survives.
            if _terminate(x_child, version, current, stats):
                below = True
            merged.append(x_child)
            i += 1
        else:
            merged.append(
                _insert(
                    x, y_child, document, version, options, stats, memo, entries
                )
            )
            uniform = False  # the fresh subtree's root timestamp is {version}
            below = True
            j += 1
    while i < len(archive_children):
        if _terminate(archive_children[i], version, current, stats):
            below = True
        merged.append(archive_children[i])
        i += 1
    for y_child in version_children[j:]:
        merged.append(
            _insert(x, y_child, document, version, options, stats, memo, entries)
        )
        uniform = False
        below = True
    x.children = merged
    if below and kept is not None:
        kept.pop(id(x), None)
    _note_subtree(memo, x, y, digest, uniform)
    return uniform, below or x.timestamp is not None


def _note_subtree(
    memo: Optional[MergeMemo],
    x: ArchiveNode,
    y: Element,
    digest: Optional[int],
    uniform: bool,
) -> None:
    """Record (or retract) the skip certificate for a merged subtree."""
    if memo is None or digest is None:
        return
    if uniform:
        memo.subtree[id(x)] = SubtreeEntry(
            digest=digest, count=memo.incoming_counts[id(y)]
        )
    else:
        memo.subtree.pop(id(x), None)


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
    parent: ArchiveNode,
    y_child: Element,
    document: AnnotatedDocument,
    version: int,
    options: MergeOptions,
    stats: MergeStats,
    memo: Optional[MergeMemo] = None,
    entries: Optional[dict[int, RecordEntry]] = None,
) -> ArchiveNode:
    """Action (c): the version child is new; graft it with timestamp {i}
    (and, a record of a tree that keeps them, fill its entry)."""
    stats.nodes_inserted += 1
    node = build_archive_subtree(
        y_child, document, VersionSet([version]), version, options
    )
    if memo is not None:
        _memoize_built(node, y_child, document, options, memo)
    if entries:
        entries[id(y_child)].fill(node, version)
    return node


def _memoize_built(
    node: ArchiveNode,
    y: Element,
    document: AnnotatedDocument,
    options: MergeOptions,
    memo: MergeMemo,
) -> bool:
    """Register skip certificates for every uniform keyed subtree of a
    freshly built archive subtree, so the very next version can skip
    its unchanged parts (the first version of a batch inserts the whole
    document through this path).  Returns the root's uniformity."""
    digest = memo.incoming.get(id(y))
    if node.is_frontier:
        uniform = node.content_uniform()
    else:
        token = options.sort_token()
        ordered = sorted(
            y.element_children(), key=lambda child: token(document.label(child))
        )
        # build_archive_subtree sorted node.children by the same (unique)
        # tokens, so the lists pair positionally.
        uniform = True
        for child_node, child_y in zip(node.children, ordered):
            if not _memoize_built(child_node, child_y, document, options, memo):
                uniform = False
    if uniform and digest is not None:
        memo.subtree[id(node)] = SubtreeEntry(
            digest=digest, count=memo.incoming_counts[id(y)]
        )
    return uniform


def _merge_frontier(
    x: ArchiveNode,
    y: Element,
    version: int,
    current: VersionSet,
    options: MergeOptions,
    stats: MergeStats,
    memo: Optional[MergeMemo] = None,
    digest: Optional[int] = None,
) -> None:
    """Frontier-node branch of the paper's algorithm."""
    if memo is not None and digest is not None:
        entry = memo.frontier.get(id(x))
        if entry is not None and entry.digest == digest:
            entry.augment(version)
            stats.frontier_skips += 1
            return
    if x.weave is not None:
        changed = merge_weave(x.weave, y.children, version)
        if changed:
            stats.frontier_content_changes += 1
        _note_frontier(memo, x, version, digest)
        return
    assert x.alternatives is not None, "frontier node lost its content store"
    if merge_alternatives(x.alternatives, y.children, version, current):
        stats.frontier_content_changes += 1
    _note_frontier(memo, x, version, digest)


def _note_frontier(
    memo: Optional[MergeMemo],
    x: ArchiveNode,
    version: int,
    digest: Optional[int],
) -> None:
    """Remember which stored content is current after a frontier merge."""
    if memo is None or digest is None:
        return
    if x.content_uniform():
        # Untimestamped content is covered by the subtree certificate.
        memo.frontier.pop(id(x), None)
        return
    if x.weave is not None:
        segments = [
            segment for segment in x.weave.segments if version in segment.timestamp
        ]
        memo.frontier[id(x)] = FrontierEntry(digest=digest, segments=segments)
        return
    assert x.alternatives is not None
    for alternative in x.alternatives:
        if alternative.timestamp is not None and version in alternative.timestamp:
            memo.frontier[id(x)] = FrontierEntry(
                digest=digest, alternative=alternative
            )
            return


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
            Alternative(timestamp=VersionSet([version]), content=_copy_content(content))
        )
        return True
    # All children are timestamp nodes.
    for alternative in alternatives:
        assert alternative.timestamp is not None
        if _content_equal(alternative.content, content):
            alternative.timestamp.add(version)
            return False
    alternatives.append(
        Alternative(timestamp=VersionSet([version]), content=_copy_content(content))
    )
    return True
