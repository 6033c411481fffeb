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

from dataclasses import dataclass
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
    for key_path in key.key_paths:
        targets = navigate(node, key_path)
        path_text = format_path(key_path, absolute=False)
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
    components.sort(key=lambda item: item[0])
    return tuple(components)


def annotate_keys(root: Element, spec: KeySpec) -> AnnotatedDocument:
    """Annotate every keyed node of ``root`` with its key value.

    The traversal is a single document-order scan maintaining the
    root-to-node path (the paper's main stack ``M``); key-path values are
    evaluated through pointers into the subtree, the implementation the
    paper's analysis assumes.

    With an empty key specification the root is treated as the single
    frontier node and the document is otherwise unannotated — archiving
    then degenerates to the SCCS approach, as the paper prescribes.
    """
    labels: dict[int, KeyLabel] = {}
    frontier_ids: set[int] = set()

    if len(spec) == 0:
        labels[id(root)] = KeyLabel(tag=root.tag, key=())
        frontier_ids.add(id(root))
        return AnnotatedDocument(
            root=root, spec=spec, labels=labels, frontier_ids=frontier_ids
        )

    # Iterative document-order walk carrying the path from the root.
    stack: list[tuple[Element, Path]] = [(root, (root.tag,))]
    while stack:
        node, path = stack.pop()
        key = spec.key_for(path)
        if key is None:
            raise KeyCoverageError(
                f"Unkeyed node above the frontier: <{node.tag}> at "
                f"{format_path(path)}"
            )
        labels[id(node)] = KeyLabel(tag=node.tag, key=compute_key_value(node, key))
        if spec.is_frontier_path(path):
            frontier_ids.add(id(node))
            continue  # everything beneath is beyond the frontier
        _check_children_coverage(node, path)
        for child in node.element_children():
            stack.append((child, path + (child.tag,)))

    document = AnnotatedDocument(
        root=root, spec=spec, labels=labels, frontier_ids=frontier_ids
    )
    _check_sibling_uniqueness(document)
    return document


def _check_children_coverage(node: Element, path: Path) -> None:
    for child in node.children:
        if isinstance(child, Text) and child.text.strip():
            raise KeyCoverageError(
                f"Text content above the frontier under <{node.tag}> at "
                f"{format_path(path)}"
            )


def _check_sibling_uniqueness(document: AnnotatedDocument) -> None:
    """No two keyed siblings may share a key label (strong-key uniqueness)."""
    stack = [document.root]
    while stack:
        node = stack.pop()
        if document.is_frontier(node):
            continue
        seen: set[KeyLabel] = set()
        for child in node.element_children():
            label = document.label(child)
            if label is None:
                continue
            if label in seen:
                raise KeyViolationError(
                    f"Duplicate key value {label} among children of "
                    f"<{node.tag}>"
                )
            seen.add(label)
            stack.append(child)


def iter_keyed_nodes(document: AnnotatedDocument) -> Iterator[tuple[Element, KeyLabel]]:
    """Yield ``(node, label)`` for every keyed node in document order."""
    for node in document.root.iter_elements():
        label = document.label(node)
        if label is not None:
            yield node, label
