"""Typed, streaming query results.

Every :class:`~repro.query.db.ArchiveDB` read returns a
:class:`QueryResult`: a lazy iterator over elements, strings or
:class:`~repro.core.tempquery.Change` records, tagged with its
``kind`` and carrying the :class:`QueryStats` accounting the planner's
pushdown claims are measured by.  Results stream — iteration pulls
items out of the underlying plan execution one at a time, and nothing
past the consumed prefix is materialized — while still supporting
list-style convenience (``all()``, ``first()``, ``len`` after
exhaustion) by caching what has already been produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Iterator, Optional


ELEMENTS = "elements"
STRINGS = "strings"
CHANGES = "changes"

_KINDS = (ELEMENTS, STRINGS, CHANGES)


@dataclass
class QueryStats:
    """Work accounting of one query execution.

    ``archive_nodes_visited`` counts archive-tree nodes the executor
    inspected (including index-lookup hits); ``tree_probes`` counts
    timestamp-tree nodes probed for version scoping;
    ``nodes_materialized`` counts E/T nodes actually built into result
    elements; ``index_lookups`` counts key-equality steps answered by
    binary search instead of a child scan; ``chunks_pruned`` counts
    chunk files skipped wholesale via the presence map;
    ``chunks_routed_past`` counts chunks a partition-level key lookup
    never had to consider because the hash router named the one owner;
    ``events_skipped`` counts stream events drained without building
    anything (external backend).  ``fallback`` is set when the plan
    abandoned the archive walk for materialize-then-evaluate.

    ``cache_hits``/``cache_misses`` count decoded-chunk cache traffic
    this query caused (both 0 on non-caching handles): a hit means a
    chunk's decode was skipped entirely because the process-wide cache
    held it at the chunk's current staleness token.
    """

    archive_nodes_visited: int = 0
    tree_probes: int = 0
    nodes_materialized: int = 0
    index_lookups: int = 0
    chunks_pruned: int = 0
    chunks_routed_past: int = 0
    events_skipped: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    fallback: bool = False
    fallback_reason: Optional[str] = None

    def nodes_visited(self) -> int:
        """The planner's headline metric: total nodes this query
        touched — archive probes plus everything materialized."""
        return (
            self.archive_nodes_visited
            + self.tree_probes
            + self.nodes_materialized
            + self.events_skipped
        )

    def as_record(self) -> dict:
        """The wire record ``xarchd`` sends: every field by name."""
        return dict(self.__dict__)

    def mark_fallback(self, reason: str) -> None:
        self.fallback = True
        self.fallback_reason = reason

    def merge(self, other: "QueryStats") -> None:
        """Add another query's counters to this one (a running total
        over several queries); the fallback flag is not carried."""
        self.archive_nodes_visited += other.archive_nodes_visited
        self.tree_probes += other.tree_probes
        self.nodes_materialized += other.nodes_materialized
        self.index_lookups += other.index_lookups
        self.chunks_pruned += other.chunks_pruned
        self.chunks_routed_past += other.chunks_routed_past
        self.events_skipped += other.events_skipped
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses


class QueryResult:
    """A lazy, typed stream of query answers.

    ``kind`` is ``'elements'``, ``'strings'`` or ``'changes'``.
    Iteration is incremental and repeatable: consumed items are cached,
    so a second ``for`` loop replays them before continuing the
    underlying execution.  ``stats`` fills in as items are produced and
    is complete once the result is exhausted.
    """

    def __init__(
        self,
        items: Iterable[Any],
        kind: str,
        stats: Optional[QueryStats] = None,
        plan: Any = None,  # the ``QueryPlan`` behind a ``select``
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"Unknown result kind {kind!r}")
        self.kind = kind
        self.stats = stats if stats is not None else QueryStats()
        self._plan = plan
        self._source: Optional[Iterator[Any]] = iter(items)
        self._cache: list[Any] = []

    @cached_property
    def plan_description(self) -> list[str]:
        """The plan behind a ``select``, a line per step: this result's
        own list, written when first asked for (plans are shared)."""
        return self._plan.describe() if self._plan is not None else []

    # -- iteration ---------------------------------------------------------

    def __iter__(self) -> Iterator[Any]:
        index = 0
        while True:
            if index < len(self._cache):
                yield self._cache[index]
                index += 1
                continue
            item = self._pull()
            if item is _DONE:
                return
            yield item
            index += 1

    def _pull(self):
        if self._source is None:
            return _DONE
        try:
            item = next(self._source)
        except StopIteration:
            self._source = None
            return _DONE
        self._cache.append(item)
        return item

    # -- convenience -------------------------------------------------------

    def all(self) -> list[Any]:
        """Exhaust the stream and return every item: what is left is
        drained in one go, not pulled an item at a time."""
        if self._source is not None:
            self._cache.extend(self._source)  # kept so far if the source raises
            self._source = None
        return list(self._cache)

    def first(self) -> Optional[Any]:
        """The first item, or ``None`` — pulls at most one item."""
        for item in self:
            return item
        return None

    def count(self) -> int:
        """Number of items (exhausts the stream)."""
        return len(self.all())

    def __len__(self) -> int:
        return self.count()

    def __bool__(self) -> bool:
        return self.first() is not None

    def __repr__(self) -> str:
        state = "exhausted" if self._source is None else "streaming"
        return (
            f"QueryResult(kind={self.kind!r}, {state}, "
            f"produced={len(self._cache)})"
        )


class _Done:
    __slots__ = ()


_DONE = _Done()
