"""The archive: merged versions in one keyed, timestamped hierarchy.

:class:`Archive` is the public facade over the whole pipeline of the
paper's Fig. 6: ``add_version`` annotates keys and runs Nested Merge;
``retrieve`` reconstructs any past version guided by the Sec. 7.1
timestamp trees; ``history`` returns the temporal history of a keyed
element; and ``to_xml_string`` / ``from_xml_string`` round-trip the
archive through the ``<T t="...">`` XML representation of Fig. 5 — "our
archive can be easily represented as yet another XML document".

Read-path caches.  The archive carries a **mutation counter** that
every ``add_version`` bumps; two caches key off it:

* **timestamp trees** (Sec. 7.1) — one binary tree per internal node
  wide enough for a tree to beat a scan (see :mod:`repro.core.tstree`),
  built lazily the first time a retrieval touches the node and *patched
  in place* (leaf timestamps recomputed, unions refreshed only along
  changed paths) when the counter moves, instead of being rebuilt;
* **child token lists** — each node's children sorted by label token,
  so ``history`` resolves a path step with one binary search instead of
  a linear label scan.

The same counter is what external indexes
(:class:`~repro.indexes.keyindex.KeyIndex`,
:class:`~repro.indexes.timestamp_tree.TimestampTreeIndex`) watch to
refresh themselves instead of silently serving a stale tree.

Retrieval proves a node alive once.  A timestamp is stored only where
it differs from the parent's (Sec. 2), so the guided walk decides a
child's liveness *in its parent*: one that stores none is alive because
its parent is, and no set is asked; one that stores its own is tested
against it once and hands it down as what its own children inherit.
``guided=False`` tests every node on entry and builds through
``Element``'s checked constructors, not ``assemble``: the reference.

Retrieval shares frontier content copy-on-write style: the elements it
returns reference the archive's stored content nodes directly (the
merge never mutates stored content in place, so the shared subtrees are
stable); a caller that intends to mutate the result ``copy()``s it.

A tree that came from a decoder may hold nodes whose children are still
encoded (:meth:`~repro.core.nodes.ArchiveNode.children_at`).  The
*first* ``retrieve`` such a tree serves asks those nodes for the
version's elements directly and builds no archive node under them — a
tree opened for one read is never built; every later ``retrieve`` walks
``children`` as above, so a tree that is kept gets its nodes, timestamp
trees and shared content on its second read and keeps them.

A tree a *writer* holds between appends keeps two things on
:attr:`Archive.kept`: the encoded children blocks of what stood still
(the encoder copies them) and a memo of the records alive at the last
version; a batch (:meth:`Archive.add_versions`) gives any tree the memo
for its length.  ``add_version`` on such a tree digests the incoming
records before it annotates them; what the memo confirms is neither
annotated nor descended (:func:`~repro.core.merge.nested_merge`).  The tree,
the bytes it encodes to and the ``MergeStats`` it reports are those of
a tree that keeps nothing.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

from ..keys.annotate import (
    AnnotatedDocument,
    KeyLabel,
    annotate_keys,
    compute_key_value,
)
from ..keys.paths import Path, format_path, value_at
from ..keys.spec import KeySpec
from ..keys.steplabel import step_label
from ..xmltree.canonical import canonical_form
from ..xmltree.model import Attribute, Element, Text
from ..xmltree.parser import parse_document
from ..xmltree.serializer import to_pretty_string, to_string
from ..xmltree.xpath import XPathError, parse_steps
from .compaction import lines_to_content, weave_content_at
from .merge import (
    ArchiveOptions,
    Kept,
    MergeStats,
    annotate_version,
    nested_merge,
)
from .nodes import Alternative, ArchiveNode, Weave, WeaveSegment
from .tstree import (
    TREE_MIN_CHILDREN,
    ProbeCount,
    TimestampTreeNode,
    build_timestamp_tree,
    patch_timestamp_tree,
    search_timestamp_tree,
    tree_size,
)
from .versionset import VersionSet

#: Tag of timestamp elements; the paper puts it in its own namespace.
T_TAG = "T"
#: Attribute carrying the interval-encoded timestamp on a T element.
T_ATTR = "t"
#: Tag of the synthetic root that tracks empty versions (Sec. 2).
ROOT_TAG = "root"
#: Attribute on the outermost ``<T>`` wrapper naming the frontier
#: storage form, so an archive file is self-describing; the two forms
#: share the ``<T>`` surface syntax and misreading one as the other
#: silently corrupts content.  Absent only in archives written by
#: older tools, which must pass matching options at load time.
STORAGE_ATTR = "storage"
#: The :data:`STORAGE_ATTR` value marking weave (compaction) storage.
STORAGE_WEAVE = "weave"
#: The :data:`STORAGE_ATTR` value marking per-timestamp alternatives.
STORAGE_ALTERNATIVES = "alternatives"


class ArchiveError(ValueError):
    """Raised on malformed archives or unusable queries."""


def missing_element_error(label, path: str) -> ArchiveError:
    """The error every read surface raises for a path that never existed.

    All backends (in-memory, chunked, external stream) and the key index
    raise this same message shape, so callers and tests can rely on one
    wording — "when did X first appear" on a non-existent X is a clear
    :class:`ArchiveError`, never a bare ``KeyError`` or assert.
    """
    return ArchiveError(
        f"No element {label} in the archive: {path!r} never existed"
    )


@dataclass
class ArchiveStats:
    """Size/shape counters of an archive.

    ``serialized_bytes`` and ``raw_bytes`` are the *logical*
    (uncompressed) serialization size; ``disk_bytes`` is what the
    storage backend actually keeps at rest — smaller under a
    compressing codec, equal otherwise (and for in-memory archives).
    ``generation`` is the backend's publication counter (+1 per WAL
    commit); 0 for in-memory archives and never-persisted stores.
    ``cache_hits``/``cache_misses`` count the reporting handle's
    decoded-chunk cache traffic and ``cache_evictions`` the
    process-wide cache's evictions; all stay 0 for in-memory archives
    and handles that don't cache reads.
    """

    versions: int
    nodes: int
    stored_timestamps: int
    serialized_bytes: int
    raw_bytes: int = 0
    disk_bytes: int = 0
    generation: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0

    @property
    def compression_ratio(self) -> float:
        """Logical bytes per at-rest byte (1.0 when nothing is stored)."""
        if self.disk_bytes <= 0:
            return 1.0
        return self.raw_bytes / self.disk_bytes


@dataclass
class ElementHistory:
    """Temporal history of one keyed element (Sec. 7.2).

    ``existence`` is the set of versions in which the element occurs.
    For frontier elements, ``changes`` lists ``(versions, content)``
    pairs: each distinct content value with the versions during which it
    was current — the "meaningful change description" the paper
    contrasts with diff scripts.
    """

    path: str
    existence: VersionSet
    changes: Optional[list[tuple[VersionSet, str]]] = None


@dataclass
class _CachedTree:
    """One node's timestamp tree plus the state it was patched against."""

    tree: Optional[TimestampTreeNode]
    child_count: int
    mutation: int


@dataclass
class _CachedTokens:
    """One node's children label tokens (sorted) plus cache freshness."""

    tokens: list[tuple]
    mutation: int


class Archive:
    """A merged, timestamped archive of document versions."""

    def __init__(self, spec: KeySpec, options: Optional[ArchiveOptions] = None) -> None:
        self.spec = spec
        self.options = options or ArchiveOptions()
        self.root = ArchiveNode(
            label=KeyLabel(tag=ROOT_TAG, key=()), timestamp=VersionSet()
        )
        self._mutations = 0
        #: Whether :meth:`retrieve` has served this tree yet.
        self._retrieved = False
        #: Size of the ``xbin`` container body this tree was decoded
        #: from — its pending nodes read their children from it — or
        #: last encoded as (0 when neither has happened).  Whoever holds
        #: the tree budgets it by this beside the bytes at rest.
        self.body_bytes = 0
        #: On a tree a writer holds between appends: encoded children
        #: blocks by node id (:mod:`repro.storage.xbin` fills and reads
        #: them, Nested Merge drops what it outdates) and, beside them,
        #: the memo of the records alive at the last version
        #: (:class:`~repro.core.merge.Kept`).  Given to any tree for the
        #: length of a batch (:meth:`add_versions`); ``None`` on every
        #: other tree.
        self.kept: Optional[Kept] = None
        self._trees: dict[int, _CachedTree] = {}
        self._child_tokens: dict[int, _CachedTokens] = {}
        self._label_order: Optional[tuple[int, Callable[[KeyLabel], tuple]]] = None

    # -- mutation tracking -------------------------------------------------

    @property
    def mutation_count(self) -> int:
        """Bumped by every version merge; read-path caches (here and in
        the external indexes) refresh themselves when it moves."""
        return self._mutations

    def note_mutation(self) -> None:
        """Declare an out-of-band mutation of the archive tree.

        ``add_version`` calls this itself; callers that reach into
        ``archive.root`` and edit nodes directly must call it so the
        timestamp-tree and token caches stop serving the old state.
        """
        self._mutations += 1

    def _root_timestamp(self) -> VersionSet:
        """The root timestamp, as a proper error instead of an assert
        (asserts vanish under ``python -O``, turning an empty-archive
        probe into an ``AttributeError``)."""
        timestamp = self.root.timestamp
        if timestamp is None:
            raise ArchiveError("Archive root carries no timestamp")
        return timestamp

    # -- versions ----------------------------------------------------------

    @property
    def last_version(self) -> int:
        """The highest archived version number (0 before any merge)."""
        timestamp = self._root_timestamp()
        if not timestamp:
            return 0
        return timestamp.max_version()

    @property
    def version_count(self) -> int:
        return len(self._root_timestamp())

    def add_version(
        self, document: "Optional[Element | AnnotatedDocument]"
    ) -> MergeStats:
        """Archive the next version.

        ``document`` is the new version's root element; ``None`` records
        an *empty* version (the paper's Sec. 2: the root node's
        timestamp advances while the database node's does not).  A
        caller that has run *Annotate Keys* already (the chunked backend
        annotates a version once and hands each chunk its slice) passes
        the :class:`~repro.keys.annotate.AnnotatedDocument` instead.

        The document is validated — annotated — before any timestamp is
        touched: a key violation leaves the archive exactly as it was.

        A version merged into a tree that keeps records (:attr:`kept`)
        is digested before it is annotated: a record the memo confirmed
        at the last version is neither annotated nor descended
        (:func:`~repro.core.merge.nested_merge`).
        """
        annotated: Optional[AnnotatedDocument]
        if not isinstance(document, Element):
            annotated = document
        elif self.kept is not None:
            annotated = annotate_version(
                document, self.spec, [self.kept.records], self.last_version
            )
        else:
            annotated = annotate_keys(document, self.spec)
        version = self.last_version + 1
        root_timestamp = self._root_timestamp()
        root_timestamp.add(version)
        self.note_mutation()
        if annotated is None:
            # Terminate timestamps of the document roots.
            inherited = root_timestamp
            for child in self.root.children:
                if child.timestamp is None:
                    child.timestamp = inherited.without(version)
            return MergeStats(versions=1)
        stats = nested_merge(
            self.root, annotated, version, self.options,
            kept=self.kept,
        )
        stats.versions = 1
        return stats

    def add_versions(
        self, documents: "Iterable[Optional[Element | AnnotatedDocument]]"
    ) -> MergeStats:
        """Archive a whole sequence of versions; returns their summed
        :class:`MergeStats`.

        A loop over :meth:`add_version` on a tree that keeps records: a
        tree that keeps nothing is given a :class:`Kept` for the batch
        and keeps nothing after it.  So a record a version brings back
        unchanged is confirmed rather than descended (``records_kept``
        counts them), and the archive is the one the loop builds on a
        tree that keeps nothing.
        """
        batch = self.kept is None
        if batch:
            self.kept = Kept()
        total = MergeStats()
        try:
            for document in documents:
                total.accumulate(self.add_version(document))
        finally:
            if batch:
                self.kept = None
        return total

    # -- timestamp trees (Sec. 7.1, archive-resident) -----------------------

    def timestamp_tree(
        self, node: ArchiveNode, effective: VersionSet
    ) -> Optional[TimestampTreeNode]:
        """The (cached) timestamp tree over ``node``'s children.

        ``effective`` is the node's own effective timestamp — what its
        inheriting children resolve to.  Built on first use; when the
        mutation counter has moved since, the existing tree is patched
        in place (rebuilt only if the child list itself changed shape).
        """
        entry = self._trees.get(id(node))
        if entry is not None and entry.mutation == self._mutations:
            return entry.tree
        if entry is None or entry.child_count != len(node.children):
            tree = build_timestamp_tree(node.children, effective)
            self._trees[id(node)] = _CachedTree(
                tree=tree, child_count=len(node.children), mutation=self._mutations
            )
            return tree
        patch_timestamp_tree(entry.tree, node.children, effective)
        entry.mutation = self._mutations
        return entry.tree

    def relevant_children(
        self,
        node: ArchiveNode,
        version: int,
        effective: VersionSet,
        probes: Optional[ProbeCount] = None,
    ) -> list[int]:
        """Indexes of the children alive at ``version`` of a ``node``
        that is alive at it (``effective`` holds ``version``).

        Child lists of :data:`~repro.core.tstree.TREE_MIN_CHILDREN` or
        more probe the cached timestamp tree instead of every child
        (the paper's ``2k`` fallback-to-scan threshold); shorter lists,
        where a tree cannot probe fewer nodes than a scan, are scanned
        and never get a tree: a child that stores no timestamp is alive
        because ``node`` is — counted, but no set is asked."""
        children = node.children
        if len(children) < TREE_MIN_CHILDREN:
            if probes is not None:
                probes.short_scans += len(children)
            return [
                index
                for index, child in enumerate(children)
                if child.timestamp is None or version in child.timestamp
            ]
        return search_timestamp_tree(
            self.timestamp_tree(node, effective), version, len(children), probes
        )

    def warm_timestamp_trees(self) -> int:
        """Build (or patch) every timestamp tree retrieval would use
        now instead of lazily; returns the total tree-node count — the
        structure's space cost."""
        total = 0
        root_timestamp = self._root_timestamp()
        stack: list[tuple[ArchiveNode, VersionSet]] = [(self.root, root_timestamp)]
        while stack:
            node, inherited = stack.pop()
            effective = node.effective_timestamp(inherited)
            if len(node.children) >= TREE_MIN_CHILDREN:
                total += tree_size(self.timestamp_tree(node, effective))
            for child in node.children:
                stack.append((child, effective))
        return total

    # -- retrieval (Sec. 7.1) ---------------------------------------------------

    def retrieve(
        self,
        version: int,
        *,
        guided: bool = True,
        probes: Optional[ProbeCount] = None,
    ) -> Optional[Element]:
        """Reconstruct version ``version``; ``None`` for an empty version.

        Keyed siblings come back in key order — the archive deliberately
        "ignores the order among elements with keys" (Sec. 2).

        ``guided`` selects the timestamp-tree fast path (the default);
        ``guided=False`` is the reference scan over every child, kept
        for equivalence testing and benchmarking.  ``probes`` collects
        probe counts when supplied.  The result shares frontier content
        with the archive (see the module docstring).

        The first guided call on a tree reads children that are still
        encoded straight into elements (module docstring); each list
        read that way is scanned whole and counted as such in
        ``probes``.  Any call after the first walks the node tree.
        """
        if guided:
            return self.retrieve_ranked(version, probes, None)
        root_timestamp = self._root_timestamp()
        self._check_retrievable(version, root_timestamp)
        self._retrieved = True
        scanned = (
            self._scan(child, version, root_timestamp, probes)
            for child in self.root.children
        )
        return next((found for found in scanned if found is not None), None)

    def retrieve_ranked(
        self,
        version: int,
        probes: Optional[ProbeCount],
        ranks: Optional[list[tuple]],
    ) -> Optional[Element]:
        """The guided :meth:`retrieve`; when ``ranks`` is a list, the
        plain sort token (:meth:`KeyLabel.sort_token`) of each child of
        the answer's document element is appended to it, in the order of
        those children — read off their stored labels, in memory or in a
        block still encoded, so nothing is settled to get them.  A
        partitioned reader merges its parts' records by these."""
        root_timestamp = self._root_timestamp()
        self._check_retrievable(version, root_timestamp)
        stream = not self._retrieved
        self._retrieved = True
        alive = self.relevant_children(self.root, version, root_timestamp, probes)
        if not alive:
            return None
        child = self.root.children[alive[0]]
        walk = Walk(self, version, probes, stream)
        return walk.build(child, child.effective_timestamp(root_timestamp), ranks)

    def _check_retrievable(self, version: int, root_timestamp: VersionSet) -> None:
        if version not in root_timestamp:
            raise ArchiveError(
                f"Version {version} is not in the archive "
                f"(have {root_timestamp.to_text() or 'none'})"
            )

    def _scan(
        self,
        node: ArchiveNode,
        version: int,
        inherited: VersionSet,
        probes: Optional[ProbeCount],
    ) -> Optional[Element]:
        """``guided=False``: the reference.  Every node is counted and
        tested on entry, its element made by the checked constructors."""
        if probes is not None:
            probes.fallback_scans += 1
        timestamp = node.effective_timestamp(inherited)
        if version not in timestamp:
            return None
        element = Element(node.label.tag)
        for name, value in node.attributes:
            element.set_attribute(name, value)
        if node.weave is not None:
            element.extend(weave_content_at(node.weave, version))
        elif node.alternatives is not None:
            alternative = node.alternative_at(version)
            content = alternative.content if alternative is not None else []
            element.children.extend(content)
        else:
            for child in node.children:
                found = self._scan(child, version, timestamp, probes)
                if found is not None:
                    element.append(found)
        return element

    def scan_probe_count(self, version: int) -> int:
        """Membership probes a scan-all-children retrieval makes — the
        baseline the timestamp trees are measured against."""
        root_timestamp = self._root_timestamp()
        count = 0
        stack: list[tuple[ArchiveNode, VersionSet]] = [(self.root, root_timestamp)]
        while stack:
            node, inherited = stack.pop()
            timestamp = node.effective_timestamp(inherited)
            count += len(node.children)
            for child in node.children:
                if version in child.effective_timestamp(timestamp):
                    stack.append((child, timestamp))
        return count

    # -- keyed-path lookup -------------------------------------------------------

    def label_order(self) -> Callable[[KeyLabel], tuple]:
        """The sort token the child lists are ordered by, resolved once
        per mutation count (as the token lists are), not per lookup."""
        cached = self._label_order
        if cached is None or cached[0] != self._mutations:
            token = self.options.sort_token()
            cached = self._label_order = (self._mutations, token)
        return cached[1]

    def find_child(
        self, node: ArchiveNode, label: KeyLabel
    ) -> Optional[ArchiveNode]:
        """Child lookup by label via binary search over the cached,
        token-sorted child list (the merge keeps children sorted by the
        archive's sort token).  Falls back over equal-token runs so
        colliding fingerprint tokens stay correct."""
        token = self.label_order()
        entry = self._child_tokens.get(id(node))
        if entry is None or entry.mutation != self._mutations:
            entry = _CachedTokens(
                tokens=[token(child.label) for child in node.children],
                mutation=self._mutations,
            )
            self._child_tokens[id(node)] = entry
        target = token(label)
        position = bisect.bisect_left(entry.tokens, target)
        while position < len(entry.tokens) and entry.tokens[position] == target:
            child = node.children[position]
            if child.label == label:
                return child
            position += 1
        return None

    # -- temporal history (Sec. 7.2) ----------------------------------------------

    def history(self, path: str) -> ElementHistory:
        """History of the element at a keyed path
        (:func:`~repro.core.tempquery.history_in` over this archive)."""
        from .tempquery import history_in  # the walk builds on this module

        return history_in([self], path, key_path_labels(path, self.spec))

    # -- XML representation (Fig. 5) -------------------------------------------------

    def to_xml(self) -> Element:
        """The archive as an XML element tree (Fig. 5)."""
        return archive_xml(
            self._root_timestamp(), self.root.children, self.options.compaction
        )

    def to_xml_string(self, pretty: bool = True) -> str:
        xml = self.to_xml()
        return to_pretty_string(xml) if pretty else to_string(xml)

    # -- parsing the XML representation back ---------------------------------------------

    @classmethod
    def from_xml_string(
        cls,
        text: str,
        spec: KeySpec,
        options: Optional[ArchiveOptions] = None,
    ) -> "Archive":
        """Parse an archive previously written by :meth:`to_xml_string`.

        The frontier storage form is read from the archive's own
        ``storage`` marker, so weave and alternatives archives both
        load correctly whatever ``options`` says; ``options`` supplies
        the remaining switches (and the storage form for marker-less
        archives written by older tools).
        """
        return cls.from_xml(parse_document(text), spec, options)

    @classmethod
    def from_xml(
        cls,
        xml: Element,
        spec: KeySpec,
        options: Optional[ArchiveOptions] = None,
    ) -> "Archive":
        archive = cls(spec, options)
        if xml.tag != T_TAG or xml.get_attribute(T_ATTR) is None:
            raise ArchiveError("Archive XML must start with a <T t='...'> wrapper")
        marker = xml.get_attribute(STORAGE_ATTR)
        if marker is not None:
            if marker not in (STORAGE_WEAVE, STORAGE_ALTERNATIVES):
                raise ArchiveError(f"Unknown archive storage form {marker!r}")
            compaction = marker == STORAGE_WEAVE
            if compaction != archive.options.compaction:
                # The file knows its own storage form; never mutate the
                # caller's (possibly shared) options object.
                archive.options = ArchiveOptions(
                    fingerprinter=archive.options.fingerprinter,
                    compaction=compaction,
                )
        timestamp_text = xml.get_attribute(T_ATTR) or ""
        archive.root.timestamp = VersionSet.parse(timestamp_text)
        root_element = xml.find(ROOT_TAG)
        if root_element is None:
            raise ArchiveError(f"Archive XML lacks the <{ROOT_TAG}> element")
        for child in root_element.children:
            archive._read_top(child)
        token = archive.label_order()
        archive.root.children.sort(key=lambda c: token(c.label))
        return archive

    def _read_top(self, child) -> None:
        if isinstance(child, Text):
            if child.text.strip():
                raise ArchiveError("Stray text directly under the archive root")
            return
        if child.tag == T_TAG:
            timestamp = VersionSet.parse(child.get_attribute(T_ATTR) or "")
            for grandchild in child.element_children():
                self.root.children.append(
                    self._read_node(grandchild, timestamp.copy(), (grandchild.tag,))
                )
        else:
            self.root.children.append(self._read_node(child, None, (child.tag,)))

    def _read_node(
        self, element: Element, timestamp: Optional[VersionSet], path: Path
    ) -> ArchiveNode:
        label = self._label_for(element, path)
        node = ArchiveNode(
            label=label,
            timestamp=timestamp,
            attributes=tuple(
                sorted((attr.name, attr.value) for attr in element.attributes)
            ),
        )
        if self._is_frontier(path):
            self._read_frontier_content(element, node)
            return node
        token = self.label_order()
        for child in element.children:
            if isinstance(child, Text):
                if child.text.strip():
                    raise ArchiveError(
                        f"Text above the frontier in archive at {format_path(path)}"
                    )
                continue
            if child.tag == T_TAG:
                child_timestamp = VersionSet.parse(child.get_attribute(T_ATTR) or "")
                for grandchild in child.element_children():
                    node.children.append(
                        self._read_node(
                            grandchild,
                            child_timestamp.copy(),
                            path + (grandchild.tag,),
                        )
                    )
            else:
                node.children.append(self._read_node(child, None, path + (child.tag,)))
        node.children.sort(key=lambda c: token(c.label))
        return node

    def _read_frontier_content(self, element: Element, node: ArchiveNode) -> None:
        t_children = [
            child
            for child in element.element_children()
            if child.tag == T_TAG and child.get_attribute(T_ATTR) is not None
        ]
        if self.options.compaction:
            segments = []
            for t_child in t_children:
                lines_text = t_child.text_content()
                segments.append(
                    WeaveSegment(
                        timestamp=VersionSet.parse(t_child.get_attribute(T_ATTR) or ""),
                        lines=lines_text.split("\n") if lines_text else [],
                    )
                )
            node.weave = Weave(segments=segments)
            return
        if t_children:
            node.alternatives = [
                Alternative(
                    timestamp=VersionSet.parse(t_child.get_attribute(T_ATTR) or ""),
                    content=[c.copy() for c in t_child.children],
                )
                for t_child in t_children
            ]
        else:
            node.alternatives = [
                Alternative(
                    timestamp=None, content=[c.copy() for c in element.children]
                )
            ]

    def _label_for(self, element: Element, path: Path) -> KeyLabel:
        if len(self.spec) == 0:
            return KeyLabel(tag=element.tag, key=())
        key = self.spec.key_for(path)
        if key is None:
            raise ArchiveError(
                f"Archive element at {format_path(path)} is not keyed by the spec"
            )
        return KeyLabel(
            tag=element.tag,
            key=compute_key_value(element, key, value_of=self._archived_value_at),
        )

    def _archived_value_at(self, target) -> str:
        """``value_at`` over the Fig. 5 encoding.

        In the serialized archive a key target is a frontier element
        whose content may be wrapped in ``<T t="...">`` nodes —
        per-timestamp alternatives, or weave segments under compaction.
        Key values are stable over a node's lifetime (they define its
        identity), so decoding any one stored state yields *the* logical
        value; labels then match the ones live documents annotate to.
        """
        if isinstance(target, Attribute):
            return target.value
        t_children = [
            child
            for child in target.element_children()
            if child.tag == T_TAG and child.get_attribute(T_ATTR) is not None
        ]
        if not t_children:
            return value_at(target)
        attr_part = "".join(
            f'@{attr.name}="{attr.value}"'
            for attr in sorted(target.attributes, key=lambda a: a.name)
        )
        if self.options.compaction:
            # Reassemble the content visible at the first archived state:
            # every segment whose timestamp covers the anchor version.
            anchor = VersionSet.parse(
                t_children[0].get_attribute(T_ATTR) or ""
            ).min_version()
            lines: list[str] = []
            for t_child in t_children:
                timestamp = VersionSet.parse(t_child.get_attribute(T_ATTR) or "")
                if anchor in timestamp:
                    text = t_child.text_content()
                    lines.extend(text.split("\n") if text else [])
            content = lines_to_content(lines)
        else:
            content = t_children[0].children
        return attr_part + "".join(canonical_form(child) for child in content)

    def _is_frontier(self, path: Path) -> bool:
        if len(self.spec) == 0:
            return len(path) == 1
        return self.spec.is_frontier_path(path)

    # -- measures -----------------------------------------------------------------------

    def stats(self) -> ArchiveStats:
        serialized = len(self.to_xml_string().encode("utf-8"))
        return ArchiveStats(
            versions=self.version_count,
            nodes=self.root.node_count(),
            stored_timestamps=self.root.timestamp_count(),
            serialized_bytes=serialized,
            # In memory there is no at-rest encoding: disk mirrors raw.
            raw_bytes=serialized,
            disk_bytes=serialized,
        )



def node_count(element: Element) -> int:
    """E+T nodes of a materialized subtree (the cost accounting unit)."""
    count, found = 1, [element]
    for node in found:  # the list grows as it is walked
        count += len(node.children)
        for child in node.children:
            if isinstance(child, Element):
                found.append(child)
    return count


def _content_nodes(content: list) -> int:
    """E+T nodes of a frontier node's content items."""
    count = 0
    for item in content:
        count += 1 if item.__class__ is Text else node_count(item)
    return count


class Walk:
    """The guided walk at one version (module docstring): :meth:`build`
    makes the element of a node its caller has proved alive, given its
    effective timestamp.

    An object, not a closure: a closure that calls itself holds itself
    through a cell, a reference cycle that every read would leave for
    the collector; the walk refers to nothing that refers back to it.

    A walk made with ``counting`` keeps in ``nodes`` the E and T nodes
    it has built (shared frontier content counted whole), what a query
    reports as materialized; any other walk skips the count.  A first
    ``retrieve``'s blocks read straight into elements are not among
    them: a counting walk never streams.
    """

    __slots__ = ("version", "probes", "stream", "timestamp_tree", "counting", "nodes")

    def __init__(
        self,
        archive: Archive,
        version: int,
        probes: Optional[ProbeCount],
        stream: bool,
        counting: bool = False,
    ) -> None:
        self.version = version
        self.probes = probes
        self.stream = stream
        self.timestamp_tree = archive.timestamp_tree
        self.counting = counting
        self.nodes = 0

    def build(
        self,
        node: ArchiveNode,
        effective: VersionSet,
        ranks: Optional[list[tuple]] = None,
    ) -> Element:
        """The element of ``node`` at the walk's version; with
        ``ranks``, the plain sort tokens of its children too
        (:meth:`Archive.retrieve_ranked`)."""
        if node.weave is not None or node.alternatives is not None:
            return self.frontier(node)
        version, probes = self.version, self.probes
        built = node.children_at(version, probes, ranks) if self.stream else None
        if built is None:
            children = node.children
            if len(children) < TREE_MIN_CHILDREN:
                if probes is not None:
                    probes.short_scans += len(children)
                alive = [
                    child
                    for child in children
                    if child.timestamp is None or version in child.timestamp
                ]
            else:
                tree = self.timestamp_tree(node, effective)
                found = search_timestamp_tree(tree, version, len(children), probes)
                alive = [children[index] for index in found]
            if ranks is not None:
                ranks.extend([child.label.sort_token() for child in alive])
            built = []
            for child in alive:
                if child.alternatives is not None or child.weave is not None:
                    built.append(self.frontier(child))
                else:
                    stamp = child.timestamp
                    built.append(self.build(child, effective if stamp is None else stamp))
        if self.counting:
            self.nodes += 1
        return Element.assemble(node.label.tag, node.attributes, built)

    def frontier(self, node: ArchiveNode) -> Element:
        """The element of a frontier ``node``: its content at the
        walk's version.  Copy-on-write share: merges append alternatives,
        never edit them, so stored content is referenced, not copied."""
        if node.weave is not None:
            built = weave_content_at(node.weave, self.version)
        else:
            alternative = node.alternative_at(self.version)
            built = list(alternative.content) if alternative is not None else []
        if self.counting:
            self.nodes += 1 + _content_nodes(built)
        return Element.assemble(node.label.tag, node.attributes, built)


def archive_xml(
    root_timestamp: VersionSet, children: list[ArchiveNode], compaction: bool
) -> Element:
    """The Fig. 5 element tree: :meth:`Archive.to_xml`, any codec's text."""
    wrapper = Element(T_TAG)
    wrapper.set_attribute(T_ATTR, root_timestamp.to_text())
    wrapper.set_attribute(
        STORAGE_ATTR, STORAGE_WEAVE if compaction else STORAGE_ALTERNATIVES
    )
    root_element = wrapper.append(Element(ROOT_TAG))
    for child in children:
        _emit(child, root_element)
    return wrapper


def _emit(node: ArchiveNode, parent: Element) -> None:
    element = Element(node.label.tag)
    for name, value in node.attributes:
        element.set_attribute(name, value)
    if node.timestamp is not None:
        wrapper = Element(T_TAG)
        wrapper.set_attribute(T_ATTR, node.timestamp.to_text())
        wrapper.append(element)
        parent.append(wrapper)
    else:
        parent.append(element)
    if node.weave is not None:
        for segment in node.weave.segments:
            t_node = Element(T_TAG)
            t_node.set_attribute(T_ATTR, segment.timestamp.to_text())
            t_node.append(Text("\n".join(segment.lines)))
            element.append(t_node)
        return
    if node.alternatives is not None:
        if len(node.alternatives) == 1 and node.alternatives[0].timestamp is None:
            for content in node.alternatives[0].content:
                element.append(content.copy())
        else:
            for alternative in node.alternatives:
                if alternative.timestamp is None:
                    raise ValueError(
                        "multi-alternative frontier with an untimestamped "
                        "alternative"
                    )
                t_node = Element(T_TAG)
                t_node.set_attribute(T_ATTR, alternative.timestamp.to_text())
                for content in alternative.content:
                    t_node.append(content.copy())
                element.append(t_node)
        return
    for child in node.children:
        _emit(child, element)


def key_path_labels(
    path: str, spec: KeySpec, open_last: bool = False
) -> list[Union[KeyLabel, str]]:
    """The label each step of a key path names (``/``: none, the root),
    read by the one grammar (:func:`~repro.xmltree.xpath.parse_steps`)
    and label rule (:func:`~repro.keys.steplabel.step_label`).  A step
    whose predicates do not pin each path of its key once and nothing
    else raises :class:`ArchiveError` naming it.  With ``open_last`` a
    last step without predicates stays a bare tag covering every key of
    it (a ``changes`` prefix: ``/db/dept``)."""
    text = path.strip()
    if not text.startswith("/"):
        raise ArchiveError(f"Key path must be absolute: {path!r}")
    try:
        steps = parse_steps(text.rstrip("/")) if text.strip("/") else []
    except XPathError as error:
        raise ArchiveError(f"Malformed key path {path!r}: {error}") from None
    labels: list[Union[KeyLabel, str]] = []
    spec_path: Path = ()
    for step in steps:
        spec_path += (step.name,)
        key = spec.key_for(spec_path)
        child = step.axis == "child"
        label = step_label(step, key) if child else None
        if label is not None and len(label.key) == len(step.predicates):
            labels.append(label)
        elif open_last and child and step is steps[-1] and not step.predicates:
            labels.append(step.name)
        else:
            paths = ", ".join(name for _, name in key.rendered_paths) if key else ""
            raise ArchiveError(
                f"Step {str(step).lstrip('/')!r} of {path!r} names no keyed element: "
                f"its predicates must pin each path of its key {{{paths}}} once"
            )
    return labels
