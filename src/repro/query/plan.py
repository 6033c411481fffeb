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
the key specification, so a plan can be compiled once and executed
against any backend (in-memory, chunked, stream).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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
    return not any(ch in value for ch in "<>&\"@")


@dataclass(frozen=True)
class PlannedPredicate:
    """One predicate plus the mode the executor evaluates it in."""

    predicate: Predicate
    mode: str
    key_path: Optional[str] = None  # set for PUSH_KEY: the key component

    def describe(self) -> str:
        return f"{self.predicate} via {self.mode}"


@dataclass
class PlannedStep:
    """One location step with its compiled evaluation strategy."""

    step: Step
    predicates: list[PlannedPredicate]
    #: The keyed spec path this step lands on, when statically known
    #: (child-axis chains from the root; lost after ``//`` or ``*``).
    spec_path: Optional[Path] = None
    #: When set, the step is answered by one binary-search lookup with
    #: this key value instead of a child scan.
    lookup: Optional[KeyValue] = None
    #: ``lookup`` as a label: built with the step, not per node it is tried at.
    lookup_label: Optional[KeyLabel] = field(init=False, default=None, compare=False)

    def __post_init__(self) -> None:
        if self.lookup is not None:
            self.lookup_label = KeyLabel(tag=self.step.name, key=self.lookup)

    @property
    def axis(self) -> str:
        return self.step.axis

    @property
    def name(self) -> str:
        return self.step.name

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


@dataclass
class QueryPlan:
    """A compiled query: steps plus whole-plan properties."""

    expression: str
    steps: list[PlannedStep]
    want_text: bool
    spec: KeySpec = field(repr=False, default=None)  # type: ignore[assignment]

    # -- whole-plan properties --------------------------------------------

    def uses_index(self) -> bool:
        return any(step.lookup is not None for step in self.steps)

    def has_descendant(self) -> bool:
        return any(step.axis == "descendant" for step in self.steps)

    def has_descendant_position(self) -> bool:
        """Positional predicates on descendant steps count candidates
        across whole subtrees — only the element evaluator gets that
        right, so such plans always fall back to a snapshot."""
        return any(
            step.axis == "descendant"
            and any(p.mode == PUSH_POSITION for p in step.predicates)
            for step in self.steps
        )

    def has_position_at(self, index: int) -> bool:
        """Whether the step at ``index`` carries a positional predicate.

        Partitioned backends need this: positions at the partition
        level (the document root's children) count siblings *across*
        parts, which no single part can see."""
        if index >= len(self.steps):
            return False
        return any(
            p.mode == PUSH_POSITION for p in self.steps[index].predicates
        )

    def root_residual(self) -> bool:
        """Residual predicates on a child-axis first step test the
        document root itself, which cannot be checked without
        materializing it (descendant first steps check candidates as
        they are found instead)."""
        return (
            bool(self.steps)
            and self.steps[0].axis == "child"
            and bool(self.steps[0].residuals())
        )

    def single_step(self) -> bool:
        return len(self.steps) == 1

    def describe(self) -> list[str]:
        lines = [f"query {self.expression!r}"]
        lines.extend(f"  {step.describe()}" for step in self.steps)
        if self.want_text:
            lines.append("  -> text() of the matched elements")
        if self.has_descendant_position():
            lines.append("  !! positional predicate on '//': snapshot fallback")
        if self.root_residual():
            lines.append("  !! residual predicate on the root step: snapshot fallback")
        return lines


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
    components: list[tuple[str, str]] = []
    for key_path in key.key_paths:
        path_text = format_path(key_path, absolute=False)
        match = next(
            (
                p
                for p in planned
                if p.mode == PUSH_KEY and p.key_path == path_text
            ),
            None,
        )
        if match is None:
            return None
        components.append((path_text, match.predicate.value))
    components.sort(key=lambda item: item[0])
    return tuple(components)


def compile_plan(expression: str, spec: KeySpec) -> QueryPlan:
    """Compile an XPath expression against a key specification.

    Raises :class:`~repro.xmltree.xpath.XPathError` on malformed
    expressions (same grammar as the element evaluator).
    """
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
        planned_steps.append(
            PlannedStep(
                step=step,
                predicates=planned,
                spec_path=known_path,
                lookup=lookup,
            )
        )
    return QueryPlan(
        expression=expression, steps=planned_steps, want_text=want_text, spec=spec
    )
