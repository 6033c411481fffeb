"""Plan execution over the archive tree itself.

The executor never sees a backend: it walks *cursors*, and the three
cursor families make one evaluation algorithm serve every storage
shape:

* :class:`MemoryCursor` — an :class:`~repro.core.nodes.ArchiveNode`
  inside an in-memory :class:`~repro.core.archive.Archive` (the file
  backend, and each chunk of the chunked backend).  Child scans are
  guided by the archive's timestamp trees, key lookups by the sorted
  child lists, and matches materialize through the archive's guided
  walk — only the selected subtrees are ever built.
* :class:`StreamCursor` — a node of the external backend's key-sorted
  event stream.  Evaluation is a single forward pass in bounded
  memory: subtrees the plan rejects are drained without building
  anything, and only matched subtrees materialize.
* :class:`ElementCursor` — a plain materialized element.  Evaluation
  drops into this world below the frontier (where the archive stores
  content, not keyed nodes) and wherever a residual predicate forced a
  candidate to materialize; from there the element evaluator of
  :mod:`repro.xmltree.xpath` finishes the job, so planned and
  materialized evaluation agree by construction.

Results are yielded in snapshot document order as ``(anchor, element)``
pairs, where ``anchor`` is the sort token of the top-level record the
result lives under — the key the chunked backend merges per-chunk
streams by (hash partitioning scatters records, so chunk streams must
be re-interleaved into global key order).

**The run context.**  A :class:`MemoryCursor` made by hand opens a
*run*; every cursor reached from it is three slots — node, effective
timestamp, run — and stands on a node proved alive, which nothing
re-proves.  The run holds what one evaluation over one tree shares: the
version, the stats, one :meth:`~repro.core.archive.Archive._walk`
closure that materializes every hit, one ``ProbeCount`` it and the
child scans report to (folded into the stats by delta, so a result
pulled half way is accounted half way).  The evaluator recurses through
plain calls on a step index; only a sibling scan is a generator, so a
stream stays lazy per sibling (``first()`` builds one answer) without a
generator frame per step per result.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Union

from ..core.archive import Archive
from ..core.compaction import weave_content_at
from ..core.nodes import ArchiveNode
from ..core.tstree import ProbeCount
from ..core.versionset import VersionSet
from ..keys.annotate import KeyLabel
from ..storage.events import (
    ExitEvent,
    FrontierEvent,
    NodeEvent,
    PeekableEvents,
)
from ..xmltree.model import Element
from ..xmltree.xpath import CHILD_VALUE, apply_steps, virtual_shell
from .plan import (
    PUSH_ATTRIBUTE,
    PUSH_KEY,
    PUSH_POSITION,
    PlannedStep,
    QueryPlan,
    _plain_value,
)
from .result import QueryStats

#: Predicate verdicts at cursor level.
PASS = "pass"
FAIL = "fail"
NEEDS_ELEMENT = "needs-element"

#: The anchor of results not under any top-level record.
NO_ANCHOR: tuple = ()


def node_count(element: Element) -> int:
    """E+T nodes of a materialized subtree (the cost accounting unit)."""
    count, found = 1, [element]
    for node in found:  # the list grows as it is walked
        count += len(node.children)
        for child in node.children:
            if isinstance(child, Element):
                found.append(child)
    return count


# -- cursors ------------------------------------------------------------------


class Cursor:
    """One archive position bound to a scope version."""

    __slots__ = ()
    supports_lookup = False
    tag: str

    def attribute(self, name: str) -> Optional[str]:
        raise NotImplementedError

    def key_component(self, path_text: str) -> Optional[str]:
        """The node's stored key value at ``path_text`` (``None`` when
        unknown — e.g. already in the element world)."""
        return None

    def order_token(self) -> tuple:
        """Plain label sort token (chunk-merge anchor)."""
        return NO_ANCHOR

    def children(self) -> Iterator["Cursor"]:
        """Children alive at the scope version, in document order.

        Stream-backed cursors are forward-only: the caller must fully
        consume (or :meth:`skip`) each yielded child before pulling the
        next one.
        """
        raise NotImplementedError

    def lookup(self, label: KeyLabel) -> Optional["Cursor"]:
        """Key-equality child lookup; ``None`` on miss (only when
        ``supports_lookup``)."""
        return None

    def materialize(self) -> Optional[Element]:
        """The subtree at the scope version (consumes stream cursors)."""
        raise NotImplementedError

    def skip(self) -> None:
        """Declare this cursor unused (drains stream cursors)."""


class _Run:
    """What the cursors of one evaluation over one tree share."""

    __slots__ = ("archive", "version", "stats", "probes", "seen", "build")

    def __init__(self, archive: Archive, version: int, stats: QueryStats) -> None:
        self.archive = archive
        self.version = version
        self.stats = stats
        self.probes = ProbeCount()
        self.seen = 0  # of ``probes``, already in ``stats``
        self.build = archive._walk(version, False, self.probes, False)

    def fold_probes(self) -> None:
        total = self.probes.total()
        self.stats.tree_probes += total - self.seen
        self.seen = total


class MemoryCursor(Cursor):
    """A cursor over an in-memory archive node alive at the version."""

    __slots__ = ("node", "effective", "run")
    supports_lookup = True

    def __init__(
        self,
        archive: Archive,
        node: ArchiveNode,
        inherited: VersionSet,
        version: int,
        stats: QueryStats,
    ) -> None:
        self.node = node
        self.effective = node.effective_timestamp(inherited)
        self.run = _Run(archive, version, stats)

    def _at(self, child: ArchiveNode) -> "MemoryCursor":
        """The cursor of a child proved alive, in this cursor's run."""
        cursor = MemoryCursor.__new__(MemoryCursor)
        cursor.node = child
        cursor.effective = self.effective if child.timestamp is None else child.timestamp
        cursor.run = self.run
        return cursor

    @property
    def tag(self) -> str:  # type: ignore[override]
        return self.node.label.tag

    def attribute(self, name: str) -> Optional[str]:
        for attr_name, value in self.node.attributes:
            if attr_name == name:
                return value
        return None

    def key_component(self, path_text: str) -> Optional[str]:
        for component_path, value in self.node.label.key:
            if component_path == path_text:
                return value
        return None

    def order_token(self) -> tuple:
        return self.node.label.sort_token()

    def children(self) -> Iterator[Cursor]:
        node, run = self.node, self.run
        if node.is_frontier:
            for content in self._frontier_content():
                if isinstance(content, Element):
                    yield ElementCursor(content, run.stats)
            return
        indexes = run.archive.relevant_children(
            node, run.version, self.effective, run.probes
        )
        run.fold_probes()
        for index in indexes:
            run.stats.archive_nodes_visited += 1
            yield self._at(node.children[index])

    def _frontier_content(self):
        node = self.node
        if node.weave is not None:
            return weave_content_at(node.weave, self.run.version)
        alternative = node.alternative_at(self.run.version)
        return alternative.content if alternative is not None else []

    def lookup(self, label: KeyLabel) -> Optional[Cursor]:
        run = self.run
        run.stats.index_lookups += 1
        child = run.archive.find_child(self.node, label)
        if child is None:
            return None
        run.stats.archive_nodes_visited += 1
        if child.timestamp is not None and run.version not in child.timestamp:
            return None
        return self._at(child)

    def materialize(self) -> Optional[Element]:
        run = self.run
        element = run.build(self.node, self.effective)
        if not self.node.is_frontier:  # nothing is probed under a frontier node
            run.fold_probes()
        run.stats.nodes_materialized += node_count(element)
        return element


class ElementCursor(Cursor):
    """A cursor over an already-materialized element."""

    def __init__(self, element: Element, stats: QueryStats) -> None:
        self.element = element
        self.stats = stats

    @property
    def tag(self) -> str:  # type: ignore[override]
        return self.element.tag

    def attribute(self, name: str) -> Optional[str]:
        return self.element.get_attribute(name)

    def children(self) -> Iterator[Cursor]:
        for child in self.element.element_children():
            yield ElementCursor(child, self.stats)

    def materialize(self) -> Optional[Element]:
        return self.element


class StreamCursor(Cursor):
    """A cursor over the external backend's event stream (one pass).

    A ``NodeEvent`` cursor owns the events up to its matching
    ``ExitEvent``; consuming it (``children``/``materialize``/``skip``)
    advances the shared stream past that subtree.  ``FrontierEvent``
    cursors are self-contained.
    """

    def __init__(
        self,
        event: Union[NodeEvent, FrontierEvent],
        events: PeekableEvents,
        inherited: VersionSet,
        version: int,
        stats: QueryStats,
    ) -> None:
        self.event = event
        self.events = events
        self.is_frontier = isinstance(event, FrontierEvent)
        self.effective = (
            event.timestamp if event.timestamp is not None else inherited
        )
        self.version = version
        self.stats = stats
        self._consumed = self.is_frontier

    @property
    def tag(self) -> str:  # type: ignore[override]
        return self.event.label.tag

    def attribute(self, name: str) -> Optional[str]:
        for attr_name, value in self.event.attributes:
            if attr_name == name:
                return value
        return None

    def key_component(self, path_text: str) -> Optional[str]:
        for component_path, value in self.event.label.key:
            if component_path == path_text:
                return value
        return None

    def order_token(self) -> tuple:
        return self.event.label.sort_token()

    def children(self) -> Iterator[Cursor]:
        if self.is_frontier:
            for content in self._frontier_content():
                if isinstance(content, Element):
                    yield ElementCursor(content, self.stats)
            return
        while True:
            head = self.events.peek()
            if head is None:
                self._consumed = True
                return
            if isinstance(head, ExitEvent):
                self.events.next()
                self._consumed = True
                return
            event = self.events.next()
            assert isinstance(event, (NodeEvent, FrontierEvent))
            self.stats.archive_nodes_visited += 1
            child = StreamCursor(
                event, self.events, self.effective, self.version, self.stats
            )
            if self.version not in child.effective:
                child.skip()
                continue
            yield child
            child.skip()  # drain whatever the consumer left behind

    def _frontier_content(self):
        assert isinstance(self.event, FrontierEvent)
        for alternative in self.event.alternatives:
            if alternative.timestamp is None or self.version in alternative.timestamp:
                return alternative.content
        return []

    def skip(self) -> None:
        if self._consumed:
            return
        depth = 1
        while depth:
            event = self.events.next()
            if isinstance(event, NodeEvent):
                depth += 1
            elif isinstance(event, ExitEvent):
                depth -= 1
            self.stats.events_skipped += 1
        self._consumed = True

    def materialize(self) -> Optional[Element]:
        element = Element(self.tag)
        for name, value in self.event.attributes:
            element.set_attribute(name, value)
        self.stats.nodes_materialized += 1
        if self.is_frontier:
            for content in self._frontier_content():
                element.append(content.copy())
            self.stats.nodes_materialized += node_count(element) - 1
            return element
        for child in self.children():
            sub = child.materialize()
            if sub is not None:
                element.append(sub)
        return element


# -- predicate checking -------------------------------------------------------


def check_predicates(
    cursor: Cursor, step: PlannedStep, position: Optional[int]
) -> str:
    """Decide a step's predicates against a cursor, without
    materializing.  Returns :data:`PASS`, :data:`FAIL`, or
    :data:`NEEDS_ELEMENT` when some predicate can only be decided on
    the materialized element (residuals, key values whose canonical
    form may disagree with ``text_content``, key components that live
    in attributes — the XPath child predicate only sees elements)."""
    needs = False
    for planned in step.predicates:
        predicate = planned.predicate
        if planned.mode == PUSH_POSITION:
            if position is None:
                needs = True
            elif position != predicate.position:
                return FAIL
        elif planned.mode == PUSH_ATTRIBUTE:
            if cursor.attribute(predicate.name or "") != predicate.value:
                return FAIL
        elif planned.mode == PUSH_KEY:
            stored = cursor.key_component(planned.key_path or "")
            if stored is None or not _plain_value(stored):
                needs = True
            elif (
                predicate.kind == CHILD_VALUE
                and cursor.attribute(predicate.name or "") is not None
            ):
                needs = True
            elif stored != predicate.value:
                return FAIL
        else:  # RESIDUAL
            needs = True
    return NEEDS_ELEMENT if needs else PASS


# -- the evaluator ------------------------------------------------------------


def run_plan(
    root_cursor: Cursor, plan: QueryPlan, stats: QueryStats
) -> Iterator[tuple[tuple, Element]]:
    """Evaluate ``plan`` from the archive's synthetic root cursor.

    ``root_cursor`` plays the XPath document node: its children are the
    document roots (at most one alive per version).  Yields
    ``(anchor, element)`` in snapshot document order.
    """
    first = plan.steps[0]
    for child in root_cursor.children():
        if first.axis == "descendant":
            yield from _descend(child, plan, 0, 0, NO_ANCHOR)
        elif first.name in ("*", child.tag):
            yield from _candidate(child, plan, 0, 1, 0, NO_ANCHOR)
        else:
            child.skip()


def _candidate(
    cursor: Cursor,
    plan: QueryPlan,
    at: int,
    position: Optional[int],
    depth: int,
    anchor: tuple,
) -> Iterable[tuple[tuple, Element]]:
    """What the plan selects through ``cursor``: a name match of step
    ``at``, met at ``depth`` as candidate number ``position`` of a
    sibling scan (``None``: a lookup found it).  Results are anchored
    at the top-level record, depth 1."""
    step = plan.steps[at]
    verdict = check_predicates(cursor, step, position) if step.predicates else PASS
    if verdict == FAIL:
        cursor.skip()
        return ()
    if depth == 1:
        anchor = cursor.order_token()
    if verdict == PASS:
        return _eval(cursor, plan, at + 1, depth, anchor)
    element = cursor.materialize()
    # Lookup plans carry no positional predicate by construction: the
    # residual re-check of a looked-up node needs no sibling position.
    if element is None or not all(
        p.predicate.matches(element, position or 0) for p in step.predicates
    ):
        return ()
    below = apply_steps([element], plan.raw_steps[at + 1 :])
    return [(anchor, result) for result in below]


def _eval(
    cursor: Cursor, plan: QueryPlan, at: int, depth: int, anchor: tuple
) -> Iterable[tuple[tuple, Element]]:
    """Evaluate the steps from ``at`` on below an already-matched cursor."""
    steps = plan.steps
    if at == len(steps):
        element = cursor.materialize()
        return () if element is None else [(anchor, element)]
    step = steps[at]
    if step.axis == "descendant":
        return _descend(cursor, plan, at, depth, anchor)
    if step.lookup_label is not None and cursor.supports_lookup:
        hit = cursor.lookup(step.lookup_label)
        if hit is not None:
            return _candidate(hit, plan, at, None, depth + 1, anchor)
        # A miss is only trustworthy for plain stored key values; fall
        # through to the sibling scan, which handles every encoding.
    return _scan(cursor, plan, at, depth, anchor)


def _scan(
    cursor: Cursor, plan: QueryPlan, at: int, depth: int, anchor: tuple
) -> Iterator[tuple[tuple, Element]]:
    """Step ``at`` as a sibling scan of ``cursor``'s live children."""
    name = plan.steps[at].name
    position = 0
    for child in cursor.children():
        if name != "*" and child.tag != name:
            child.skip()
            continue
        position += 1
        yield from _candidate(child, plan, at, position, depth + 1, anchor)


def _descend(
    cursor: Cursor, plan: QueryPlan, at: int, depth: int, anchor: tuple
) -> Iterator[tuple[tuple, Element]]:
    """Descendant-or-self evaluation of step ``at``, pre-order.

    A cursor that passes the name test (and is not ruled out by the
    pushable predicates) materializes once; the whole sub-expression —
    this descendant step plus the rest — is then delegated to the
    element evaluator over that subtree, which also finds the nested
    matches a forward-only stream could not revisit.  Cursors the
    pushdown definitively rejects are descended in the archive world.
    """
    step = plan.steps[at]
    if depth == 1:
        anchor = cursor.order_token()
    if step.name in ("*", cursor.tag):
        if check_predicates(cursor, step, None) != FAIL:
            element = cursor.materialize()
            if element is not None:
                shell = [virtual_shell(element)]
                for result in apply_steps(shell, plan.raw_steps[at:]):
                    yield (anchor, result)
            return
    for child in cursor.children():
        yield from _descend(child, plan, at, depth + 1, anchor)
