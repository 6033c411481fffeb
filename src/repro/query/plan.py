"""The query planner: XPath + temporal scope → an archive-tree plan.

A plan decides, per location step, how much of the work can be pushed
into the archive's own structures instead of a materialized snapshot:

* **key lookup** — a child step whose predicates equate every key path
  of the step's key (per the archive's :class:`~repro.keys.spec.KeySpec`)
  compiles to a binary-search lookup over the sorted child lists — the
  Sec. 7.2 index machinery — instead of a sibling scan;
* **pushable predicates** — key-component equality, attribute equality
  and positional tests are decided on archive nodes directly (key
  values and attributes are stored on the node label);
* **residual predicates** — anything else (non-key child values,
  ``text()`` equality, values whose canonical form may disagree with
  ``text_content`` because of markup or escaping) forces the candidate
  subtree to be materialized at the scope version and checked in the
  element world — the *scan fallback*, bounded to that subtree;
* **version scoping** — every child scan consults the archive's
  timestamp trees, so children dead at the scope version are pruned
  without probing them individually.

The planner is deliberately static: it never touches the archive, only
the key specification.  So what it compiles is kept *with* the
specification (:class:`_Plans`: owned by this module, at most
:data:`PLAN_STORE_LIMIT` entries, oldest out first, none taken along
when the specification is pickled) and serves every facade, handle and
server pin sharing it, on any backend; two specifications never share a
plan.  An entry is a **shape**: the expression with the contents of its
quoted literals lifted out, plus one bit per literal — whether it is a
:func:`_plain_value`, all the planner ever asks of one.
``/ROOT/Record[Num='100']`` and ``[Num='207']`` are one shape,
``[Num='a&b']`` another (a residual).  The first expression of a shape
is parsed and classified; a later one is **bound**: the steps that carry
a literal are rebuilt around the new values (``lookup``/``lookup_label``
with them), the rest is the stored plan's.  Plans are immutable, so
sharing them across calls and threads is safe.  An expression whose
quotes the XPath parser reads another way than the lifting (a quote in a
step name) is compiled as ever and not kept; one that does not parse
raises every time and keeps nothing.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator, Optional

from ..keys.annotate import KeyLabel, KeyValue
from ..keys.paths import Path, format_path
from ..keys.spec import KeySpec
from ..xmltree.xpath import (
    ATTRIBUTE,
    CHILD_VALUE,
    POSITION,
    Predicate,
    Step,
    TEXT_VALUE,
    parse_steps,
    split_text_step,
)

#: Shapes kept per key specification.
PLAN_STORE_LIMIT = 128
#: ``= 'literal'`` as the XPath parser reads it inside a predicate.
_LITERAL = re.compile(r"""(=\s*)(['"])([^\[\]]*?)\2""")
_MARKUP = re.compile(r"""[<>&"@]""")
_STORE_LOCK = threading.Lock()  # misses only; a hit is one ``dict.get``

#: Predicate evaluation modes assigned by the planner.
PUSH_POSITION = "position"  # decided while scanning siblings
PUSH_ATTRIBUTE = "attribute"  # decided on the archive node's attributes
PUSH_KEY = "key"  # decided on the archive node's key label
RESIDUAL = "residual"  # needs the materialized element


def _plain_value(value: str) -> bool:
    """``True`` when ``value`` compares identically as canonical form
    and as ``text_content`` — no markup, no XML-escaped characters, no
    attribute encoding.  Key-equality pushdown is only sound for such
    values; others fall back to a residual (materialized) check."""
    return _MARKUP.search(value) is None


@dataclass(frozen=True)
class PlannedPredicate:
    """One predicate plus the mode the executor evaluates it in."""

    predicate: Predicate
    mode: str
    key_path: Optional[str] = None  # set for PUSH_KEY: the key component

    def bind(self, value: str) -> "PlannedPredicate":
        """The same test against another literal."""
        old = self.predicate
        return PlannedPredicate(
            Predicate(old.kind, old.name, value), self.mode, self.key_path
        )


@dataclass(frozen=True)
class PlannedStep:
    """One location step with its compiled evaluation strategy."""

    step: Step
    predicates: tuple[PlannedPredicate, ...]
    #: The keyed spec path this step lands on, when statically known
    #: (child-axis chains from the root; lost after ``//`` or ``*``).
    spec_path: Optional[Path] = None
    #: When set, the step is answered by one binary-search lookup with
    #: this key value instead of a child scan.
    lookup: Optional[KeyValue] = None
    #: ``lookup`` as a label: built with the step, not per node it is tried at.
    lookup_label: Optional[KeyLabel] = field(init=False, default=None, compare=False)
    #: ``step.axis`` and ``step.name``, one attribute load away.
    axis: str = field(init=False, default="", compare=False)
    name: str = field(init=False, default="", compare=False)

    def __post_init__(self) -> None:
        fill = object.__setattr__  # frozen: nothing else ever writes
        fill(self, "axis", self.step.axis)
        fill(self, "name", self.step.name)
        if self.lookup is not None:
            fill(self, "lookup_label", KeyLabel(tag=self.name, key=self.lookup))

    def bind(self, values: Iterator[str]) -> "PlannedStep":
        """This step with the next of ``values`` in place of each
        literal its predicates compare with."""
        predicates = tuple(
            [
                p if p.mode == PUSH_POSITION else p.bind(next(values))
                for p in self.predicates
            ]
        )
        lookup = self.lookup
        if lookup:
            pinned = _pinned(predicates)
            lookup = tuple([(path, pinned[path]) for path, _ in lookup])
        step = Step(self.axis, self.name, tuple([p.predicate for p in predicates]))
        return PlannedStep(step, predicates, self.spec_path, lookup)

    def residuals(self) -> list[PlannedPredicate]:
        return [p for p in self.predicates if p.mode == RESIDUAL]

    def describe(self) -> str:
        marker = "//" if self.axis == "descendant" else "/"
        preds = "".join(str(p.predicate) for p in self.predicates)
        if self.lookup is not None:
            how = "key lookup (sorted child index)"
        elif self.axis == "descendant":
            how = "descendant walk, version-pruned"
        else:
            how = "child scan, timestamp-tree pruned"
        pushed = [p for p in self.predicates if p.mode != RESIDUAL]
        residual = self.residuals()
        notes = []
        if pushed and self.lookup is None:
            notes.append(f"pushdown: {', '.join(p.mode for p in pushed)}")
        if residual:
            notes.append(f"residual: {len(residual)} predicate(s) on materialized nodes")
        detail = f" [{'; '.join(notes)}]" if notes else ""
        return f"{marker}{self.name}{preds} -> {how}{detail}"


@dataclass(frozen=True)
class QueryPlan:
    """A compiled query: steps plus whole-plan properties."""

    expression: str
    steps: tuple[PlannedStep, ...]
    want_text: bool
    #: Why no backend can run the plan over the archive tree, and why a
    #: partitioned one cannot chunk by chunk (``None``: it can).  Known
    #: from the shape: binding hands them on.
    fallbacks: tuple[Optional[str], Optional[str]] = (None, None)

    def bind(self, expression: str, literals: list[str]) -> "QueryPlan":
        """The plan of another ``expression`` of this shape."""
        if expression == self.expression:
            return self
        values = iter(literals)
        steps = [step.bind(values) if step.predicates else step for step in self.steps]
        return QueryPlan(expression, tuple(steps), self.want_text, self.fallbacks)

    # -- whole-plan properties --------------------------------------------

    @cached_property
    def raw_steps(self) -> tuple[Step, ...]:
        """The parsed steps, for the element evaluator."""
        return tuple([planned.step for planned in self.steps])

    def uses_index(self) -> bool:
        return any(step.lookup is not None for step in self.steps)

    def has_descendant_position(self) -> bool:
        """Positional predicates on descendant steps count candidates
        across whole subtrees — only the element evaluator gets that
        right, so such plans always fall back to a snapshot."""
        return any(
            step.axis == "descendant"
            and any(p.mode == PUSH_POSITION for p in step.predicates)
            for step in self.steps
        )

    def root_residual(self) -> bool:
        """Residual predicates on a child-axis first step test the
        document root itself, which cannot be checked without
        materializing it (descendant first steps check candidates as
        they are found instead)."""
        return self.steps[0].axis == "child" and bool(self.steps[0].residuals())

    def describe(self) -> list[str]:
        """The plan, one line per step: the caller's own list."""
        lines = [f"query {self.expression!r}"]
        lines.extend(f"  {step.describe()}" for step in self.steps)
        if self.want_text:
            lines.append("  -> text() of the matched elements")
        if self.has_descendant_position():
            lines.append("  !! positional predicate on '//': snapshot fallback")
        if self.root_residual():
            lines.append("  !! residual predicate on the root step: snapshot fallback")
        return lines


def _fallbacks(plan: QueryPlan) -> tuple[Optional[str], Optional[str]]:
    """:attr:`QueryPlan.fallbacks` of a freshly compiled plan."""
    everywhere = partitioned = None
    if plan.has_descendant_position():
        everywhere = "positional predicate on a descendant step"
    elif plan.root_residual():
        everywhere = "residual predicate on the root step"
    steps = plan.steps
    if len(steps) == 1:
        partitioned = "the query selects the document root, which no single chunk holds"
    elif any(step.axis == "descendant" for step in steps):
        partitioned = "descendant steps may select nodes above the chunk partition level"
    elif any(p.mode == PUSH_POSITION for p in steps[1].predicates):
        partitioned = "positional predicate at the partition level counts across chunks"
    return everywhere, partitioned


def _classify(
    predicate: Predicate, spec: KeySpec, spec_path: Optional[Path]
) -> PlannedPredicate:
    if predicate.kind == POSITION:
        return PlannedPredicate(predicate, PUSH_POSITION)
    if predicate.kind == ATTRIBUTE:
        return PlannedPredicate(predicate, PUSH_ATTRIBUTE)
    key = spec.key_for(spec_path) if spec_path is not None else None
    if key is not None and _plain_value(predicate.value):
        component_paths = {
            format_path(key_path, absolute=False) for key_path in key.key_paths
        }
        if predicate.kind == CHILD_VALUE and predicate.name in component_paths:
            return PlannedPredicate(predicate, PUSH_KEY, key_path=predicate.name)
        if predicate.kind == TEXT_VALUE and "." in component_paths:
            # A content key — ``(tel, {.})`` — stores the node's own
            # canonical content as its key value.
            return PlannedPredicate(predicate, PUSH_KEY, key_path=".")
    return PlannedPredicate(predicate, RESIDUAL)


def _pinned(planned) -> dict[Optional[str], str]:
    """Key path → the value of the first predicate that pins it."""
    return {
        p.key_path: p.predicate.value for p in reversed(planned) if p.mode == PUSH_KEY
    }


def _lookup_value(
    planned: list[PlannedPredicate], spec: KeySpec, spec_path: Optional[Path]
) -> Optional[KeyValue]:
    """The full key value when the predicates pin every key component."""
    key = spec.key_for(spec_path) if spec_path is not None else None
    if key is None:
        return None
    if any(p.mode == PUSH_POSITION for p in planned):
        # A positional predicate needs the sibling scan anyway.
        return None
    pinned = _pinned(planned)
    paths = sorted(format_path(key_path, absolute=False) for key_path in key.key_paths)
    if any(path not in pinned for path in paths):
        return None
    return tuple([(path, pinned[path]) for path in paths])


class _Plans(dict):
    """One specification's compiled plans by shape.  It sits in the
    specification's ``__dict__`` — it lives as long, and every holder of
    the specification finds it — but only this module reads or writes
    it, and a pickled specification (a pool task carries one) takes an
    empty one along."""

    def __reduce__(self) -> tuple:
        return (_Plans, ())


def stored_plans(spec: KeySpec) -> _Plans:
    """The plans kept with ``spec`` (made on first ask)."""
    plans = spec.__dict__.get("_plans")
    if plans is None:
        plans = spec.__dict__.setdefault("_plans", _Plans())
    return plans


def compile_plan(expression: str, spec: KeySpec) -> QueryPlan:
    """The plan of an XPath expression under a key specification: bound
    from the stored plan of its shape, compiled (and stored) when it is
    the first of it.

    Raises :class:`~repro.xmltree.xpath.XPathError` on malformed
    expressions (same grammar as the element evaluator).
    """
    parts = _LITERAL.split(expression)
    literals = parts[3::4]
    del parts[3::4]
    shape = (tuple(parts), tuple([_plain_value(value) for value in literals]))
    plans = stored_plans(spec)
    stored = plans.get(shape)
    if stored is not None:
        return stored.bind(expression, literals)
    plan = _compile(expression, spec)
    compared = [p.predicate for step in plan.steps for p in step.predicates]
    if [p.value for p in compared if p.kind != POSITION] == literals:
        with _STORE_LOCK:  # else the parser read the quotes its own way: not kept
            if len(plans) >= PLAN_STORE_LIMIT:
                del plans[next(iter(plans))]
            plans[shape] = plan
    return plan


def _compile(expression: str, spec: KeySpec) -> QueryPlan:
    steps, want_text = split_text_step(parse_steps(expression))
    planned_steps: list[PlannedStep] = []
    spec_path: Optional[Path] = ()
    for index, step in enumerate(steps):
        if spec_path is not None and step.axis == "child" and step.name != "*":
            spec_path = spec_path + (step.name,)
        else:
            spec_path = None  # '//' and '*' lose the static path
        known_path = spec_path if spec_path and spec.is_keyed_path(spec_path) else None
        planned = [_classify(pred, spec, known_path) for pred in step.predicates]
        lookup = None
        if index > 0 and step.axis == "child" and step.name != "*":
            # The first step anchors at the document root — there is
            # nothing to look up in; later child steps are candidates.
            lookup = _lookup_value(planned, spec, known_path)
        planned_steps.append(PlannedStep(step, tuple(planned), known_path, lookup))
    plan = QueryPlan(expression, tuple(planned_steps), want_text)
    return replace(plan, fallbacks=_fallbacks(plan))
