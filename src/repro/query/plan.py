"""The query planner: XPath + temporal scope → an archive-tree plan.

A plan decides, per location step, how much of the work can be pushed
into the archive's own structures instead of a materialized snapshot:

* **key lookup** — a child step whose predicates equate every key path
  of the step's key (per the archive's :class:`~repro.keys.spec.KeySpec`)
  with a :func:`~repro.keys.steplabel.plain_value` compiles to a
  binary-search lookup over the sorted child lists — the Sec. 7.2 index
  machinery — instead of a sibling scan.  The label looked up is the one
  :func:`~repro.keys.steplabel.step_label` names, the rule ``history``,
  ``changes`` prefixes and chunk routing read a key path by, so
  ``[fn='John'][ln='Doe']`` and the paper's ``[fn=John, ln=Doe]`` look up
  one label;
* **key projection** — a trailing child step without predicates that
  names a one-step key path of its parent's key (``/ROOT/Record/Num``,
  ``…/emp/fn/text()``) is answered from the parent's key label, which
  Annotate Keys stored there (Sec. 4.1): the parent's children are never
  looked up or scanned.  The executor falls back to the lookup and scan
  when the stored value is not a plain value or the parent has
  an attribute of that name;
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
specification (:class:`_Plans`, owned by this module) and serves every
facade, handle and server pin sharing it, on any backend; two
specifications never share a plan.  Two maps are kept, each of at most
:data:`PLAN_STORE_LIMIT` entries, oldest out first:

* **shapes** — an expression with its predicate literals, quoted or
  bare, lifted out, plus one bit per literal: whether it is a plain
  value, all the planner ever asks of one.  ``/ROOT/Record[Num='100']``
  and ``[Num='207']`` are one shape, ``[Num=100]`` and ``[Num=207]``
  another, ``[Num='a&b']`` a third (a residual).  The first expression
  of a shape is parsed and classified, and its plan stored;
* **bound plans** — by expression, the plan last handed out for it.  An
  expression asked for again is answered by one ``dict.get``, with what
  the evaluator cached on the plan (:attr:`QueryPlan.projected_scan`,
  :attr:`QueryPlan.raw_steps`); a new expression of a known shape is
  **bound** — the steps that carry a literal rebuilt around the new
  values (their lookup label named again by the label rule), the rest
  the stored plan's — and kept.  Only expressions that repeat gain: a
  specification parsed afresh (a cold open) starts with both maps empty.
  And only while the expressions in rotation fit under the limit: the
  oldest goes first, not the least used, so a cycle through more
  distinct expressions than :data:`PLAN_STORE_LIMIT` never hits (the
  ``warm-query`` and ``server-mixed`` benchmark workloads rotate 96
  keyed expressions and one dense one).

Plans are immutable, so sharing them across calls and threads is safe.
An expression whose quotes the XPath parser reads another way than the
lifting (a quote in a step name) is compiled as ever and not kept; one
that does not parse raises every time and keeps nothing.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator, Optional

from ..keys.annotate import KeyLabel, KeyValue
from ..keys.paths import Path
from ..keys.spec import Key, KeySpec
from ..keys.steplabel import key_component, plain_value, step_label
from ..xmltree.xpath import (
    ATTRIBUTE,
    POSITION,
    Predicate,
    Step,
    parse_steps,
    split_text_step,
)

#: Shapes, and bound plans, kept per key specification.
PLAN_STORE_LIMIT = 128
#: ``= 'literal'`` or ``= bare`` as the XPath parser reads it inside a
#: predicate (a bare one ends at ``,`` or ``]``).
_LITERAL = re.compile(
    r"""(=\s*)(['"])?((?(2)[^\[\]]*?|[^'"\s\[\],][^\[\],]*?))(?(2)\2|(?=\s*[,\]]))"""
)
_STORE_LOCK = threading.Lock()  # misses only; a hit is one ``dict.get``

#: Predicate evaluation modes assigned by the planner.
PUSH_POSITION = "position"  # decided while scanning siblings
PUSH_ATTRIBUTE = "attribute"  # decided on the archive node's attributes
PUSH_KEY = "key"  # decided on the archive node's key label
RESIDUAL = "residual"  # needs the materialized element


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
    #: The key at ``spec_path`` when the step is looked up (``None``: it
    #: is scanned); a bound step names its label by it again.
    key: Optional[Key] = field(default=None, compare=False)
    #: When set, the step is a key projection: its text is the parent's
    #: key component of this name, when the executor may trust it.
    projection: bool = False
    #: When set, the step is answered by one binary-search lookup with
    #: this key value instead of a child scan: the step's
    #: :func:`~repro.keys.steplabel.step_label`, every value plain.
    lookup: Optional[KeyValue] = field(init=False, default=None)
    #: ``lookup`` as a label: built with the step, not per node it is tried at.
    lookup_label: Optional[KeyLabel] = field(init=False, default=None, compare=False)
    #: ``step.axis`` and ``step.name``, one attribute load away.
    axis: str = field(init=False, default="", compare=False)
    name: str = field(init=False, default="", compare=False)

    def __post_init__(self) -> None:
        fill = object.__setattr__  # frozen: nothing else ever writes
        fill(self, "axis", self.step.axis)
        fill(self, "name", self.step.name)
        label = step_label(self.step, self.key) if self.key is not None else None
        if label is not None:
            fill(self, "lookup", label.key)
            fill(self, "lookup_label", label)

    def bind(self, values: Iterator[str]) -> "PlannedStep":
        """This step with the next of ``values`` in place of each
        literal its predicates compare with."""
        predicates = tuple(
            [
                p if p.mode == PUSH_POSITION else p.bind(next(values))
                for p in self.predicates
            ]
        )
        step = Step(self.axis, self.name, tuple([p.predicate for p in predicates]))
        return PlannedStep(step, predicates, self.spec_path, self.key, self.projection)

    def residuals(self) -> list[PlannedPredicate]:
        return [p for p in self.predicates if p.mode == RESIDUAL]

    def describe(self) -> str:
        marker = "//" if self.axis == "descendant" else "/"
        preds = "".join(str(p.predicate) for p in self.predicates)
        if self.projection:
            how = "key projection (parent's key label)"
        elif self.lookup is not None:
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

    @cached_property
    def projected_scan(self) -> Optional[int]:
        """The step whose children the evaluator answers off their
        stored labels: a child scan without predicates whose next step,
        the last, is a key projection (``/ROOT/Record/Num``); else
        ``None``."""
        at = len(self.steps) - 2
        if at < 0 or not self.steps[-1].projection:
            return None
        step = self.steps[at]
        if step.axis != "child" or step.predicates or step.lookup is not None:
            return None
        return at

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


def _classify(predicate: Predicate, key: Optional[Key]) -> PlannedPredicate:
    if predicate.kind == POSITION:
        return PlannedPredicate(predicate, PUSH_POSITION)
    if predicate.kind == ATTRIBUTE:
        return PlannedPredicate(predicate, PUSH_ATTRIBUTE)
    path = key_component(predicate, key) if key is not None else None
    if path is not None and plain_value(predicate.value):
        return PlannedPredicate(predicate, PUSH_KEY, key_path=path)
    return PlannedPredicate(predicate, RESIDUAL)


def _projects(spec: KeySpec, parent_path: Optional[Path], name: str) -> bool:
    """Whether ``name`` is a one-step key path of the key at ``parent_path``."""
    key = spec.key_for(parent_path) if parent_path is not None else None
    return key is not None and (name,) in key.key_paths


class _Plans(dict):
    """One specification's compiled plans by shape, and in ``bound`` the
    plans of the expressions last asked for, by expression — each map at
    most :data:`PLAN_STORE_LIMIT` entries, oldest out first.  It sits in
    the specification's ``__dict__`` — it lives as long, and every holder
    of the specification finds it — but only this module reads or
    writes it (``clear`` empties both maps)."""

    def __init__(self) -> None:
        super().__init__()
        self.bound: dict[str, QueryPlan] = {}

    def clear(self) -> None:
        super().clear()
        self.bound.clear()


def stored_plans(spec: KeySpec) -> _Plans:
    """The plans kept with ``spec`` (made on first ask)."""
    plans = spec.__dict__.get("_plans")
    if plans is None:
        plans = spec.__dict__.setdefault("_plans", _Plans())
    return plans


def _keep(store: dict, key, plan: QueryPlan) -> None:
    """Keep ``plan`` under ``key``, the oldest entry out at the limit;
    the caller holds :data:`_STORE_LOCK`."""
    if len(store) >= PLAN_STORE_LIMIT:
        del store[next(iter(store))]
    store[key] = plan


def compile_plan(expression: str, spec: KeySpec) -> QueryPlan:
    """The plan of an XPath expression under a key specification: the
    one kept for the expression, else bound from the stored plan of its
    shape, else compiled (and stored) as the first of its shape.

    Raises :class:`~repro.xmltree.xpath.XPathError` on malformed
    expressions (same grammar as the element evaluator).
    """
    plans = stored_plans(spec)
    plan = plans.bound.get(expression)
    if plan is not None:
        return plan
    parts = _LITERAL.split(expression)
    literals = parts[3::4]
    del parts[3::4]
    shape = (tuple(parts), tuple([plain_value(value) for value in literals]))
    stored = plans.get(shape)
    if stored is not None:
        plan = stored.bind(expression, literals)
        with _STORE_LOCK:
            _keep(plans.bound, expression, plan)
        return plan
    plan = _compile(expression, spec)
    compared = [p.predicate for step in plan.steps for p in step.predicates]
    if [p.value for p in compared if p.kind != POSITION] == literals:
        with _STORE_LOCK:  # else the parser read the quotes its own way: not kept
            _keep(plans, shape, plan)
            _keep(plans.bound, expression, plan)
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
        key = spec.key_for(known_path) if known_path is not None else None
        planned = [_classify(pred, key) for pred in step.predicates]
        projection = (
            index > 0
            and index == len(steps) - 1
            and step.axis == "child"
            and not planned
            and _projects(spec, planned_steps[-1].spec_path, step.name)
        )
        # The first step anchors at the document root — there is nothing
        # to look up in.  A later step is looked up when it names a label
        # whose values are plain, as every binding of its shape does.
        label = step_label(step, key) if index and key is not None else None
        if label is None or not all([plain_value(value) for _, value in label.key]):
            key = None
        planned_steps.append(
            PlannedStep(step, tuple(planned), known_path, key, projection)
        )
    plan = QueryPlan(expression, tuple(planned_steps), want_text)
    return replace(plan, fallbacks=_fallbacks(plan))
