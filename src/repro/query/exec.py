"""Plan execution over the archive tree itself.

The executor never sees a backend: it walks *cursors*, and the three
cursor families make one evaluation algorithm serve every storage
shape:

* :class:`MemoryCursor` — an :class:`~repro.core.nodes.ArchiveNode`
  inside an in-memory :class:`~repro.core.archive.Archive` (the file
  backend, and each chunk of the chunked backend).  Child scans are
  guided by the archive's timestamp trees, key lookups by the sorted
  child lists, and matches materialize through
  :meth:`~repro.core.archive.Archive.reconstruct_node` — only the
  selected subtrees are ever built.
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
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Union

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


class MemoryCursor(Cursor):
    """A cursor over an in-memory archive node."""

    supports_lookup = True

    def __init__(
        self,
        archive: Archive,
        node: ArchiveNode,
        inherited: VersionSet,
        version: int,
        stats: QueryStats,
    ) -> None:
        self.archive = archive
        self.node = node
        self.inherited = inherited
        self.effective = node.effective_timestamp(inherited)
        self.version = version
        self.stats = stats

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
        node = self.node
        if node.is_frontier:
            for content in self._frontier_content():
                if isinstance(content, Element):
                    yield ElementCursor(content, self.stats)
            return
        probes = ProbeCount()
        indexes = self.archive.relevant_children(
            node, self.version, self.effective, probes
        )
        self.stats.tree_probes += probes.total()
        for index in indexes:
            self.stats.archive_nodes_visited += 1
            yield MemoryCursor(
                self.archive,
                node.children[index],
                self.effective,
                self.version,
                self.stats,
            )

    def _frontier_content(self):
        node = self.node
        if node.weave is not None:
            return weave_content_at(node.weave, self.version)
        alternative = node.alternative_at(self.version)
        return alternative.content if alternative is not None else []

    def lookup(self, label: KeyLabel) -> Optional[Cursor]:
        self.stats.index_lookups += 1
        child = self.archive.find_child(self.node, label)
        if child is None:
            return None
        self.stats.archive_nodes_visited += 1
        if self.version not in child.effective_timestamp(self.effective):
            return None
        return MemoryCursor(
            self.archive, child, self.effective, self.version, self.stats
        )

    def materialize(self) -> Optional[Element]:
        # Nothing is probed under a frontier node (a dense select's every hit).
        probes = None if self.node.is_frontier else ProbeCount()
        element = self.archive.reconstruct_node(
            self.node, self.version, self.inherited, probes=probes
        )
        if probes is not None:
            self.stats.tree_probes += probes.total()
        if element is not None:
            self.stats.nodes_materialized += node_count(element)
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


def _element_matches(element: Element, step: PlannedStep, position: int) -> bool:
    return all(
        planned.predicate.matches(element, position)
        for planned in step.predicates
    )


# -- the evaluator ------------------------------------------------------------


def run_plan(
    root_cursor: Cursor, plan: QueryPlan, stats: QueryStats
) -> Iterator[tuple[tuple, Element]]:
    """Evaluate ``plan`` from the archive's synthetic root cursor.

    ``root_cursor`` plays the XPath document node: its children are the
    document roots (at most one alive per version).  Yields
    ``(anchor, element)`` in snapshot document order.
    """
    steps = plan.steps
    first, rest = steps[0], steps[1:]
    if first.axis == "child":
        for child in root_cursor.children():
            if not match_name_text(child.tag, first.name):
                child.skip()
                continue
            verdict = check_predicates(child, first, 1)
            if verdict == FAIL:
                child.skip()
                continue
            if verdict == NEEDS_ELEMENT:
                element = child.materialize()
                if element is None or not _element_matches(element, first, 1):
                    continue
                for result in apply_steps([element], _raw(rest)):
                    yield (NO_ANCHOR, result)
                continue
            yield from _eval(child, rest, depth=0, anchor=None)
    else:
        for child in root_cursor.children():
            yield from _descend(child, first, rest, depth=0, anchor=None)


def match_name_text(tag: str, name: str) -> bool:
    return name == "*" or tag == name


def _raw(steps: Sequence[PlannedStep]):
    return [planned.step for planned in steps]


def _anchor_of(cursor: Cursor, depth: int, anchor: Optional[tuple]) -> Optional[tuple]:
    """Results are anchored at the top-level record (depth 1)."""
    if depth == 1 and anchor is None:
        return cursor.order_token()
    return anchor


def _yield_key(anchor: Optional[tuple]) -> tuple:
    return anchor if anchor is not None else NO_ANCHOR


def _eval(
    cursor: Cursor,
    steps: Sequence[PlannedStep],
    depth: int,
    anchor: Optional[tuple],
) -> Iterator[tuple[tuple, Element]]:
    """Evaluate the remaining steps below an already-matched cursor."""
    if not steps:
        element = cursor.materialize()
        if element is not None:
            yield (_yield_key(anchor), element)
        return
    step, rest = steps[0], steps[1:]
    if step.axis == "descendant":
        yield from _descend(cursor, step, rest, depth, anchor)
        return
    if step.lookup_label is not None and cursor.supports_lookup:
        hit = cursor.lookup(step.lookup_label)
        if hit is not None:
            child_anchor = _anchor_of(hit, depth + 1, anchor)
            verdict = check_predicates(hit, step, None)
            if verdict == PASS:
                yield from _eval(hit, rest, depth + 1, child_anchor)
                return
            if verdict == NEEDS_ELEMENT:
                element = hit.materialize()
                # Residual re-check without a sibling position: lookup
                # plans carry no positional predicates by construction.
                if element is not None and _element_matches(element, step, 0):
                    for result in apply_steps([element], _raw(rest)):
                        yield (_yield_key(child_anchor), result)
                return
            return  # FAIL: the looked-up node does not satisfy the step
        # A miss is only trustworthy for plain stored key values; fall
        # through to the sibling scan, which handles every encoding.
    position = 0
    for child in cursor.children():
        if not match_name_text(child.tag, step.name):
            child.skip()
            continue
        position += 1
        verdict = check_predicates(child, step, position)
        if verdict == FAIL:
            child.skip()
            continue
        child_anchor = _anchor_of(child, depth + 1, anchor)
        if verdict == NEEDS_ELEMENT:
            element = child.materialize()
            if element is None or not _element_matches(element, step, position):
                continue
            for result in apply_steps([element], _raw(rest)):
                yield (_yield_key(child_anchor), result)
            continue
        yield from _eval(child, rest, depth + 1, child_anchor)


def _descend(
    cursor: Cursor,
    step: PlannedStep,
    rest: Sequence[PlannedStep],
    depth: int,
    anchor: Optional[tuple],
) -> Iterator[tuple[tuple, Element]]:
    """Descendant-or-self evaluation, pre-order.

    A cursor that passes the name test (and is not ruled out by the
    pushable predicates) materializes once; the whole sub-expression —
    this descendant step plus the rest — is then delegated to the
    element evaluator over that subtree, which also finds the nested
    matches a forward-only stream could not revisit.  Cursors the
    pushdown definitively rejects are descended in the archive world.
    """
    cursor_anchor = _anchor_of(cursor, depth, anchor)
    if match_name_text(cursor.tag, step.name):
        verdict = check_predicates(cursor, step, None)
        if verdict != FAIL:
            element = cursor.materialize()
            if element is not None:
                results = apply_steps(
                    [virtual_shell(element)], [step.step] + _raw(rest)
                )
                for result in results:
                    yield (_yield_key(cursor_anchor), result)
            return
    for child in cursor.children():
        yield from _descend(child, step, rest, depth + 1, cursor_anchor)
