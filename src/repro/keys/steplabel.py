"""The label rule: which keyed element a path step names.

A keyed element is told apart from its siblings by its label, its tag
plus its key value (Sec. 4.2), and a key path names it step by step
(Sec. 7.2: ``/db/dept[name=finance]/emp[fn=John, ln=Doe]``).
:func:`step_label` is the one place a parsed step becomes a label: the
planner's key lookups, ``history``, ``changes`` prefixes and chunk
routing all ask it.
"""

from __future__ import annotations

import re
from typing import Optional

from ..xmltree.xpath import CHILD_VALUE, POSITION, TEXT_VALUE, Predicate, Step
from .annotate import KeyLabel
from .spec import Key

_MARKUP = re.compile(r"""[<>&"@]""")


def plain_value(value: str) -> bool:
    """``True`` when ``value`` compares identically as canonical form
    and as ``text_content`` — no markup, no XML-escaped characters, no
    attribute encoding.  Key-equality pushdown is only sound for such
    values; others fall back to a residual (materialized) check."""
    return _MARKUP.search(value) is None


def key_component(predicate: Predicate, key: Key) -> Optional[str]:
    """The path of ``key`` an equality predicate pins (``[fn=John]``;
    ``[.=x]`` or ``[text()=x]`` for a content key), or ``None``."""
    if predicate.kind == CHILD_VALUE:
        name = predicate.name
    elif predicate.kind == TEXT_VALUE:
        name = "."
    else:
        return None
    for _, text in key.rendered_paths:
        if text == name:
            return text
    return None


def step_label(step: Step, key: Optional[Key]) -> Optional[KeyLabel]:
    """The label ``step`` names under ``key``, the specification's key at
    the step's path (``None``: nothing is keyed there): its tag plus, per
    key path, the value of the first predicate pinning it.  ``None`` when
    a key path is unpinned, a predicate is positional, or an unkeyed step
    has predicates; other predicates leave the label as it is.  A key
    value is the stored canonical one, as ``Change`` paths render it."""
    if key is None:
        return None if step.predicates else KeyLabel(step.name, ())
    pinned: dict[str, str] = {}
    for predicate in step.predicates:
        if predicate.kind == POSITION:
            return None
        path = key_component(predicate, key)
        if path is not None and path not in pinned:
            pinned[path] = predicate.value
    if len(pinned) < len(key.key_paths):
        return None
    value = tuple([(text, pinned[text]) for _, text in key.rendered_paths])
    return KeyLabel(step.name, value)
