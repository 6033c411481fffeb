"""A keyless top-down tree diff — the XML-Diff stand-in (Sec. 5).

The paper tried IBM's XML-Diff as a tree-structured delta encoder and
found it "incurred a significantly higher space overhead" than line
diff, settling on line diff for the evaluation.  This module provides
an equivalent baseline: a top-down structural diff in the spirit of
[Cobena et al. 2001] — children are aligned by a Myers run over
content fingerprints (so identical subtrees match for free), unmatched
same-tag elements recurse, and everything else is recorded whole.

The delta is a *patch tree*, itself an XML document, applied by a
single lock-step walk over the old document:

* ``<c n="k"/>``   — copy the next ``k`` old children;
* ``<s n="k"/>``   — skip (delete) the next ``k`` old children;
* ``<i>...</i>``   — insert the contained subtrees / text;
* ``<p>...</p>``   — recurse: patch the next old child with the
  contained operation sequence;
* ``<t>new</t>``   — replace the next old child (a text node);
* ``<r>...</r>``   — replace the whole document (root changed).

It round-trips: :func:`apply_tree_delta` reconstructs the new version
exactly.
"""

from __future__ import annotations

import hashlib

from ..xmltree.canonical import canonical_form
from ..xmltree.model import Element, Text
from ..xmltree.serializer import serialized_size
from .myers import diff_lines


class TreeDiffError(ValueError):
    """Raised when a delta cannot be applied."""


def _signature(node) -> str:
    if isinstance(node, Text):
        return "#text:" + hashlib.sha256(node.text.encode("utf-8")).hexdigest()[:16]
    digest = hashlib.sha256(canonical_form(node).encode("utf-8")).hexdigest()[:16]
    return f"{node.tag}:{digest}"


def _shallow(node) -> str:
    if isinstance(node, Text):
        return "#text"
    return node.tag


def _attrs(node: Element) -> tuple:
    return tuple(sorted((a.name, a.value) for a in node.attributes))


def tree_diff(old: Element, new: Element) -> Element:
    """Compute a patch-tree delta transforming ``old`` into ``new``."""
    delta = Element("tree-delta")
    if old.tag != new.tag or _attrs(old) != _attrs(new):
        replacement = delta.append(Element("r"))
        replacement.append(new.copy())
        return delta
    _emit_patch_ops(old, new, delta)
    return delta


def _emit_copy(target: Element, count: int) -> None:
    if count <= 0:
        return
    last = target.children[-1] if target.children else None
    if isinstance(last, Element) and last.tag == "c":
        last.set_attribute("n", str(int(last.get_attribute("n")) + count))
        return
    op = target.append(Element("c"))
    op.set_attribute("n", str(count))


def _emit_skip(target: Element, count: int) -> None:
    if count <= 0:
        return
    last = target.children[-1] if target.children else None
    if isinstance(last, Element) and last.tag == "s":
        last.set_attribute("n", str(int(last.get_attribute("n")) + count))
        return
    op = target.append(Element("s"))
    op.set_attribute("n", str(count))


def _emit_insert(target: Element, nodes) -> None:
    op = target.append(Element("i"))
    # Positional, not ``append``: keep text nodes distinct.
    op.children.extend(node.copy() for node in nodes)


def _emit_patch_ops(old: Element, new: Element, target: Element) -> None:
    """Emit the operation sequence aligning old's children to new's."""
    old_children = old.children
    new_children = new.children
    deep_old = [_signature(c) for c in old_children]
    deep_new = [_signature(c) for c in new_children]
    ops = diff_lines(deep_old, deep_new)
    index = 0
    while index < len(ops):
        op = ops[index]
        if op.kind == "equal":
            _emit_copy(target, op.a_end - op.a_start)
            index += 1
            continue
        if (
            op.kind == "delete"
            and index + 1 < len(ops)
            and ops[index + 1].kind == "insert"
        ):
            insert = ops[index + 1]
            _align_unmatched(
                old_children[op.a_start : op.a_end],
                new_children[insert.b_start : insert.b_end],
                target,
            )
            index += 2
            continue
        if op.kind == "delete":
            _emit_skip(target, op.a_end - op.a_start)
        else:
            _emit_insert(target, new_children[op.b_start : op.b_end])
        index += 1


def _align_unmatched(old_run, new_run, target: Element) -> None:
    """Second-chance alignment of changed runs by tag, recursing into
    same-tag element pairs so small deep changes yield small deltas."""
    shallow_old = [_shallow(c) for c in old_run]
    shallow_new = [_shallow(c) for c in new_run]
    for op in diff_lines(shallow_old, shallow_new):
        if op.kind == "equal":
            for pair in range(op.a_end - op.a_start):
                old_child = old_run[op.a_start + pair]
                new_child = new_run[op.b_start + pair]
                if isinstance(old_child, Text):
                    text_op = target.append(Element("t"))
                    text_op.append(Text(new_child.text))
                elif _attrs(old_child) != _attrs(new_child):
                    _emit_skip(target, 1)
                    _emit_insert(target, [new_child])
                else:
                    patch = target.append(Element("p"))
                    _emit_patch_ops(old_child, new_child, patch)
        elif op.kind == "delete":
            _emit_skip(target, op.a_end - op.a_start)
        else:
            _emit_insert(target, new_run[op.b_start : op.b_end])


def apply_tree_delta(old: Element, delta: Element) -> Element:
    """Apply a patch-tree delta to reconstruct the new document."""
    ops = delta.children
    if len(ops) == 1 and isinstance(ops[0], Element) and ops[0].tag == "r":
        (replacement,) = ops[0].element_children()
        return replacement.copy()
    return _apply_ops(old, ops)


def _apply_ops(old: Element, ops) -> Element:
    result = Element(old.tag)
    for attr in old.attributes:
        result.set_attribute(attr.name, attr.value)
    # Positional appends that never coalesce adjacent text nodes: delta
    # application must preserve exact child counts.
    splice = result.children.append
    cursor = 0
    for op in ops:
        if not isinstance(op, Element):
            continue
        if op.tag == "c":
            count = int(op.get_attribute("n") or "0")
            for child in old.children[cursor : cursor + count]:
                splice(child.copy())
            cursor += count
        elif op.tag == "s":
            cursor += int(op.get_attribute("n") or "0")
        elif op.tag == "i":
            for child in op.children:
                splice(child.copy())
        elif op.tag == "p":
            old_child = old.children[cursor]
            if not isinstance(old_child, Element):
                raise TreeDiffError("Patch op targets a text node")
            splice(_apply_ops(old_child, op.children))
            cursor += 1
        elif op.tag == "t":
            splice(Text(op.text_content()))
            cursor += 1
        else:
            raise TreeDiffError(f"Unknown delta op <{op.tag}>")
    if cursor > len(old.children):
        raise TreeDiffError("Delta consumed more children than exist")
    return result


def tree_delta_size(old: Element, new: Element) -> int:
    """Serialized size of the tree delta (the storage-cost metric)."""
    return serialized_size(tree_diff(old, new))
