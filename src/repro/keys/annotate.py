"""Annotate Keys (Sec. 4.1): attach its key value to every keyed node.

The module walks a document in document order with an explicit stack
(the paper's Algorithm *Annotate Keys*), classifies every element as
*keyed*, *frontier* or *beyond the frontier*, evaluates key-path values,
and enforces the key constraints the merge relies on:

* every key path exists uniquely at each keyed node (existence part of
  strong-key satisfaction);
* no two siblings in the same target set share a key value (uniqueness);
* every node above the frontier is keyed (coverage — the paper's second
  structural assumption).

The result is an :class:`AnnotatedDocument`: the unchanged tree plus a
side table of :class:`KeyLabel` annotations (the paper mutates the tree;
a side table keeps the input immutable, which the experiments rely on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..xmltree.model import Element, Text
from .paths import Path, format_path, navigate, value_at
from .spec import Key, KeySpec


class KeyViolationError(ValueError):
    """The document does not satisfy the key specification."""


class KeyCoverageError(KeyViolationError):
    """An unkeyed node occurs above the frontier (assumption 2, Sec. 3)."""


# A key value: ((key-path string, canonical value string), ...) sorted by
# key-path string.  ``()`` means "keyed by tag alone" (empty key-path set).
KeyValue = tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class KeyLabel:
    """The full label of a node: tag plus key value (Sec. 4.2 ``label(x)``)."""

    tag: str
    key: KeyValue

    def sort_token(self) -> tuple:
        """Token realizing the paper's ``<=lab`` order on labels.

        Orders by tag, then number of key components, then component
        paths, then component values.  Canonical value strings stand in
        for ``<v`` on values: the order differs from the paper's letter
        but is total and consistent across archive and version, which is
        all Nested Merge requires ("all that really matters ... is that
        nodes with identical key values are merged together").
        """
        return (self.tag, len(self.key), self.key)

    def __str__(self) -> str:
        if not self.key:
            return self.tag
        inner = ", ".join(f"{path}={value}" for path, value in self.key)
        return f"{self.tag}{{{inner}}}"


@dataclass
class AnnotatedDocument:
    """A document plus key labels for every keyed node."""

    root: Element
    spec: KeySpec
    labels: dict[int, KeyLabel]
    frontier_ids: set[int]
    #: For a version that was digested before it was annotated
    #: (:func:`repro.core.merge.annotate_version`): the kept-memo entry
    #: of each child of the root, by element id.
    records: dict = field(default_factory=dict)

    def label(self, node: Element) -> Optional[KeyLabel]:
        """The node's key label, or ``None`` for unkeyed nodes."""
        return self.labels.get(id(node))

    def is_keyed(self, node: Element) -> bool:
        return id(node) in self.labels

    def is_frontier(self, node: Element) -> bool:
        return id(node) in self.frontier_ids

    def shell(self) -> "AnnotatedDocument":
        """A childless twin of the root, under this document's own tables.

        The caller fills ``shell().root.children`` with some of this
        root's children *by reference* (not through ``append``, which
        would re-parent them): everything below them is annotated here
        already, so a slice of the document costs no second scan and no
        copy, and the caller's tree stays as it was.
        """
        shell = Element(self.root.tag)
        shell.attributes = [attr.copy() for attr in self.root.attributes]
        self.labels[id(shell)] = self.labels[id(self.root)]
        return AnnotatedDocument(
            root=shell,
            spec=self.spec,
            labels=self.labels,
            frontier_ids=self.frontier_ids,
            records=self.records,
        )

    def __reduce__(self):
        # The tables are keyed by ``id()``, which no other process
        # shares: the document travels as its tree (parent pointers are
        # not pickled, so a shell takes only its own records along) and
        # is annotated again on arrival.
        return (annotate_keys, (self.root, self.spec))


def compute_key_value(node: Element, key: Key, value_of=None) -> KeyValue:
    """Evaluate a node's key value under ``key``.

    Raises :class:`KeyViolationError` unless every key path exists
    uniquely at the node (the paper's strong keys require unique
    existence).  ``value_of`` overrides the target-value extractor
    (default :func:`repro.keys.paths.value_at`); the archive parser uses
    it to decode key targets stored in the Fig. 5 representation.
    """
    value_of = value_of or value_at
    components: list[tuple[str, str]] = []
    for key_path, path_text in key.rendered_paths:
        targets = navigate(node, key_path)
        if not targets:
            raise KeyViolationError(
                f"Key path {path_text!r} missing at <{node.tag}> "
                f"(key {key})"
            )
        if len(targets) > 1:
            raise KeyViolationError(
                f"Key path {path_text!r} not unique at <{node.tag}> "
                f"(key {key}): {len(targets)} occurrences"
            )
        components.append((path_text, value_of(targets[0])))
    return tuple(components)


def annotate_keys(
    root: Element, spec: KeySpec, known: Optional[dict[int, KeyLabel]] = None
) -> AnnotatedDocument:
    """Annotate every keyed node of ``root`` with its key value.

    The traversal is a single document-order scan carrying the keyed
    path it stands at (the paper's main stack ``M``; here the
    specification's own table of keyed paths, one step per level);
    key-path values are evaluated through pointers into the subtree, the
    implementation the paper's analysis assumes.  Each node's children
    are labelled, and checked against each other for uniqueness, as the
    node is visited.

    ``known`` gives the labels of children of ``root`` the caller has
    already — records a writer's kept memo proved unchanged
    (:func:`repro.core.merge.annotate_version`): they take that label,
    count among their siblings for uniqueness, and are not descended.

    With an empty key specification the root is treated as the single
    frontier node and the document is otherwise unannotated — archiving
    then degenerates to the SCCS approach, as the paper prescribes.
    """
    labels: dict[int, KeyLabel] = {}
    frontier_ids: set[int] = set()
    document = AnnotatedDocument(
        root=root, spec=spec, labels=labels, frontier_ids=frontier_ids
    )
    if len(spec) == 0:
        labels[id(root)] = KeyLabel(tag=root.tag, key=())
        frontier_ids.add(id(root))
        return document

    keyed = spec.roots.get(root.tag)
    if keyed is None:
        raise _unkeyed(root, (root.tag,))
    labels[id(root)] = KeyLabel(tag=root.tag, key=compute_key_value(root, keyed.key))
    if keyed.frontier:
        frontier_ids.add(id(root))
        return document  # everything beneath is beyond the frontier
    stack = [(root, keyed)]
    while stack:
        node, keyed = stack.pop()
        below = keyed.below
        seen: set[KeyLabel] = set()
        for child in node.children:
            if isinstance(child, Text):
                if child.text.strip():
                    raise KeyCoverageError(
                        f"Text content above the frontier under <{node.tag}> "
                        f"at {format_path(keyed.path)}"
                    )
                continue
            label = known.get(id(child)) if known else None
            if label is None:
                step = below.get(child.tag)
                if step is None:
                    raise _unkeyed(child, keyed.path + (child.tag,))
                label = KeyLabel(
                    tag=child.tag, key=compute_key_value(child, step.key)
                )
                if step.frontier:
                    frontier_ids.add(id(child))
                else:
                    stack.append((child, step))
            distinct = len(seen)
            seen.add(label)
            if len(seen) == distinct:
                raise KeyViolationError(
                    f"Duplicate key value {label} among children of "
                    f"<{node.tag}>"
                )
            labels[id(child)] = label
    return document


def _unkeyed(node: Element, path: Path) -> KeyCoverageError:
    return KeyCoverageError(
        f"Unkeyed node above the frontier: <{node.tag}> at {format_path(path)}"
    )


def iter_keyed_nodes(document: AnnotatedDocument) -> Iterator[tuple[Element, KeyLabel]]:
    """Yield ``(node, label)`` for every keyed node in document order."""
    for node in document.root.iter_elements():
        label = document.label(node)
        if label is not None:
            yield node, label
