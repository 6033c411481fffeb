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
version, the stats, one ``ProbeCount`` the child scans and the walk
report to (folded into the stats by delta, so a result pulled half way
is accounted half way), and the archive's guided walk
(:class:`~repro.core.archive.Walk`), made by the first
:meth:`~MemoryCursor.materialize` — a run that builds nothing makes
none.  The walk counts the E and T nodes it builds as it builds them;
``materialize`` adds that count to ``nodes_materialized``, so nothing
walks a built subtree a second time to count it.  The evaluator
recurses through plain calls on a step index; only a sibling scan is a
generator, so a stream stays lazy per sibling (``first()`` builds one
answer) without a generator frame per step per result.

**Projections off the label.**  A key projection is read off the
parent's stored key label (:func:`label_text`, one rule:
:func:`stored_text`).  Where the plan scans a step without predicates
whose next, last step projects a key of it
(:attr:`~repro.query.plan.QueryPlan.projected_scan`:
``/ROOT/Record/Num/text()``) and the scanned node is a stored
non-frontier node, :func:`_project` answers from each child's label as
the scan meets it (:meth:`MemoryCursor.projections`): no cursor, no
frame per child, the same counters.  Any other cursor scans.  A child
whose label cannot stand for the text (not a plain value, or an
attribute of that name) is taken the long way, as any other step would
take it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Union

from ..core.archive import Archive, Walk, node_count
from ..core.compaction import weave_content_at
from ..core.nodes import ArchiveNode
from ..core.tstree import ProbeCount
from ..core.versionset import VersionSet
from ..keys.annotate import KeyLabel
from ..keys.steplabel import plain_value
from ..storage.events import (
    ExitEvent,
    FrontierEvent,
    NodeEvent,
    PeekableEvents,
)
from ..xmltree.model import Element, Text
from ..xmltree.xpath import apply_steps, virtual_shell
from .plan import (
    PUSH_ATTRIBUTE,
    PUSH_KEY,
    PUSH_POSITION,
    PlannedStep,
    QueryPlan,
)
from .result import QueryStats

#: Predicate verdicts at cursor level.
PASS = "pass"
FAIL = "fail"
NEEDS_ELEMENT = "needs-element"

#: The anchor of results not under any top-level record.
NO_ANCHOR: tuple = ()


# -- cursors ------------------------------------------------------------------


class Cursor:
    """One archive position bound to a scope version."""

    __slots__ = ()
    supports_lookup = False
    tag: str
    stats: QueryStats

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

    def projections(
        self, name: str, key_path: str, anchored: bool
    ) -> Optional[Iterator[tuple[tuple, Optional[str], Optional["Cursor"]]]]:
        """Per child named ``name`` (``*``: any), as :meth:`children`
        meets them: its :meth:`order_token` (when ``anchored``, else
        :data:`NO_ANCHOR`), then its :func:`label_text` at ``key_path``
        and ``None`` — or, when the label cannot be trusted for that
        text, ``None`` and the child's cursor, for the evaluator to
        finish the long way.  ``None`` where the cursor reads no labels
        this way: the evaluator scans instead."""
        return None

    def materialize(self) -> Optional[Element]:
        """The subtree at the scope version (consumes stream cursors)."""
        raise NotImplementedError

    def skip(self) -> None:
        """Declare this cursor unused (drains stream cursors)."""


class _Run:
    """What the cursors of one evaluation over one tree share."""

    __slots__ = ("archive", "version", "stats", "probes", "seen", "walk")

    def __init__(self, archive: Archive, version: int, stats: QueryStats) -> None:
        self.archive = archive
        self.version = version
        self.stats = stats
        self.probes = ProbeCount()
        self.seen = 0  # of ``probes``, already in ``stats``
        self.walk: Optional[Walk] = None  # made by the first materialize

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

    @property
    def stats(self) -> QueryStats:  # type: ignore[override]
        return self.run.stats

    def attribute(self, name: str) -> Optional[str]:
        return value_of(self.node.attributes, name)

    def key_component(self, path_text: str) -> Optional[str]:
        return value_of(self.node.label.key, path_text)

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

    def projections(
        self, name: str, key_path: str, anchored: bool
    ) -> Optional[Iterator[tuple[tuple, Optional[str], Optional[Cursor]]]]:
        if self.node.is_frontier:  # its children are elements: no labels
            return None
        return self._projections(name, key_path, anchored)

    def _projections(
        self, name: str, key_path: str, anchored: bool
    ) -> Iterator[tuple[tuple, Optional[str], Optional[Cursor]]]:
        node, run = self.node, self.run
        stats = run.stats
        indexes = run.archive.relevant_children(
            node, run.version, self.effective, run.probes
        )
        run.fold_probes()
        children = node.children
        for index in indexes:
            stats.archive_nodes_visited += 1
            child = children[index]
            label = child.label
            if name != "*" and label.tag != name:
                continue
            token = label.sort_token() if anchored else NO_ANCHOR
            text = stored_text(
                value_of(label.key, key_path), value_of(child.attributes, key_path)
            )
            if text is None:
                yield token, None, self._at(child)
            else:
                yield token, text, None

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
        walk = run.walk
        if walk is None:
            walk = run.walk = Walk(run.archive, run.version, run.probes, False, True)
        element = walk.build(self.node, self.effective)
        if not self.node.is_frontier:  # nothing is probed under a frontier node
            run.fold_probes()
        run.stats.nodes_materialized += walk.nodes
        walk.nodes = 0
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
    """A node of the external backend's event stream alive at the scope
    version (one forward pass).

    A ``NodeEvent`` cursor owns the events up to its matching
    ``ExitEvent``; consuming it (``children``/``materialize``/``skip``)
    advances the shared stream past that subtree.  ``FrontierEvent``
    cursors are self-contained.  A child the version does not see is
    drained where it is met, and no cursor is made for it; only what
    the evaluation touches is built.
    """

    __slots__ = ("event", "events", "effective", "version", "stats", "_consumed")

    def __init__(
        self,
        event: Union[NodeEvent, FrontierEvent],
        events: PeekableEvents,
        effective: VersionSet,
        version: int,
        stats: QueryStats,
    ) -> None:
        self.event = event
        self.events = events
        self.effective = effective
        self.version = version
        self.stats = stats
        self._consumed = isinstance(event, FrontierEvent)

    @property
    def tag(self) -> str:  # type: ignore[override]
        return self.event.label.tag

    def attribute(self, name: str) -> Optional[str]:
        return value_of(self.event.attributes, name)

    def key_component(self, path_text: str) -> Optional[str]:
        return value_of(self.event.label.key, path_text)

    def order_token(self) -> tuple:
        return self.event.label.sort_token()

    def children(self) -> Iterator[Cursor]:
        event, events, version, stats = (
            self.event, self.events, self.version, self.stats
        )
        if isinstance(event, FrontierEvent):
            for content in _content_at(event, version):
                if isinstance(content, Element):
                    yield ElementCursor(content, stats)
            return
        inherited = self.effective
        while (live := _next_live(events, inherited, version, stats)) is not None:
            cursor = StreamCursor(live[0], events, live[1], version, stats)
            yield cursor
            cursor.skip()  # drain whatever the consumer left behind
        self._consumed = True

    def skip(self) -> None:
        if not self._consumed:
            self.stats.events_skipped += _drained(self.events, self.event)
            self._consumed = True

    def materialize(self) -> Element:
        self._consumed = True
        return _build(self.events, self.event, self.effective, self.version, self.stats)


StreamNode = Union[NodeEvent, FrontierEvent]


def _drained(events: PeekableEvents, first: StreamNode) -> int:
    """Drain the subtree ``first`` opens: the events read past it."""
    return sum(1 for _ in events.skip_subtree(first)) - 1


def _next_live(
    events: PeekableEvents, inherited: VersionSet, version: int, stats: QueryStats
) -> Optional[tuple[StreamNode, VersionSet]]:
    """The next child alive at ``version`` of the stream node being
    read, with its effective timestamp, or ``None`` once the node's exit
    is read; children the version does not see are drained on the way."""
    while True:
        event = events.next()
        if isinstance(event, ExitEvent):
            return None
        stats.archive_nodes_visited += 1
        effective = inherited if event.timestamp is None else event.timestamp
        if version in effective:
            return event, effective
        stats.events_skipped += _drained(events, event)


def _content_at(event: FrontierEvent, version: int) -> list:
    """A stream frontier node's content at ``version``."""
    for alternative in event.alternatives:
        if alternative.timestamp is None or version in alternative.timestamp:
            return alternative.content
    return []


def _build(
    events: PeekableEvents,
    event: StreamNode,
    effective: VersionSet,
    version: int,
    stats: QueryStats,
) -> Element:
    """The element of a stream node alive at ``version``, its subtree
    read off the stream as it is built."""
    tag, pairs = event.label.tag, event.attributes
    if isinstance(event, FrontierEvent):
        content = [item.copy() for item in _content_at(event, version)]
        element = Element.assemble(tag, pairs, content)
        stats.nodes_materialized += node_count(element)
        return element
    stats.nodes_materialized += 1
    children: list = []
    while (live := _next_live(events, effective, version, stats)) is not None:
        children.append(_build(events, live[0], live[1], version, stats))
    return Element.assemble(tag, pairs, children)


# -- predicate checking -------------------------------------------------------


def value_of(pairs: Iterable[tuple[str, str]], name: str) -> Optional[str]:
    """The value paired with ``name`` (a key label's components, a
    node's attributes), else ``None``."""
    for pair_name, value in pairs:
        if pair_name == name:
            return value
    return None


def stored_text(stored: Optional[str], attribute: Optional[str]) -> Optional[str]:
    """A node's stored key component ``stored`` at some path when it
    stands for the text that path selects, else ``None``: it must be
    stored, a :func:`~repro.keys.steplabel.plain_value` (its canonical
    form is its ``text_content``), and the node must have no
    ``attribute`` of that name (``navigate`` keys on one where no such
    child exists; an XPath child step never sees it)."""
    if stored is None or attribute is not None or not plain_value(stored):
        return None
    return stored


def label_text(cursor: Cursor, key_path: str) -> Optional[str]:
    """:func:`stored_text` of the cursor at ``key_path``."""
    return stored_text(cursor.key_component(key_path), cursor.attribute(key_path))


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
            stored = label_text(cursor, planned.key_path or "")
            if stored is None:
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
    if step.projection:
        text = label_text(cursor, step.name)
        if text is not None:  # else the lookup and scan below decide
            cursor.stats.nodes_materialized += 2 if text else 1
            children = [Text.assemble(text)] if text else []
            return [(anchor, Element.assemble(step.name, (), children))]
    if step.axis == "descendant":
        return _descend(cursor, plan, at, depth, anchor)
    if step.lookup_label is not None and cursor.supports_lookup:
        hit = cursor.lookup(step.lookup_label)
        if hit is not None:
            return _candidate(hit, plan, at, None, depth + 1, anchor)
        # A miss is only trustworthy for plain stored key values; fall
        # through to the sibling scan, which handles every encoding.
    if at == plan.projected_scan:
        projections = cursor.projections(steps[at].name, steps[at + 1].name, depth == 0)
        if projections is not None:
            return _project(projections, cursor.stats, plan, at, depth, anchor)
    return _scan(cursor, plan, at, depth, anchor)


def _project(
    projections: Iterator[tuple[tuple, Optional[str], Optional[Cursor]]],
    stats: QueryStats,
    plan: QueryPlan,
    at: int,
    depth: int,
    anchor: tuple,
) -> Iterator[tuple[tuple, Element]]:
    """Step ``at``, a scan without predicates whose next and last step
    is a key projection, over a cursor's :meth:`~Cursor.projections`:
    each child's answer read off its stored label — no cursor, no frame
    per child — and a child whose label cannot answer taken the long way
    from step ``at + 1``, as :func:`_candidate` takes a child that
    passed."""
    name = plan.steps[at + 1].name
    anchored = depth == 0
    for token, text, child in projections:
        if anchored:
            anchor = token
        if child is not None:
            yield from _eval(child, plan, at + 1, depth + 1, anchor)
        elif text:
            stats.nodes_materialized += 2
            yield anchor, Element.assemble(name, (), [Text.assemble(text)])
        else:
            stats.nodes_materialized += 1
            yield anchor, Element.assemble(name, (), [])


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
