"""Keys and relative keys for hierarchical data (Sec. 3, Appendix A.4-A.5).

A relative key is ``(Q, (Q', {P1, ..., Pk}))``: from each node in the
*context* ``Q``, the *target* path ``Q'`` identifies a set of nodes that
must each have exactly one value at every *key path* ``Pi``, and be
uniquely identified among their target set by those values.

The :class:`KeySpec` closes the user-supplied keys under the paper's
implication rule — "whenever a key ``(Q, (Q', {P1..Pk}))`` exists, the
keys ``(Q/Q', (Pi, {}))`` are implied" — computes the *frontier paths*
(keyed paths that are not proper prefixes of other keyed paths), and
verifies the paper's structural assumptions on the key structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .paths import (
    EMPTY_PATH,
    Path,
    concat,
    format_path,
    is_proper_prefix,
    parse_path,
)


class KeySpecError(ValueError):
    """Raised when a key specification violates the paper's assumptions."""


@dataclass(frozen=True)
class Key:
    """One relative key ``(context, (target, {key_paths}))``."""

    context: Path
    target: Path
    key_paths: tuple[Path, ...] = ()

    def __post_init__(self) -> None:
        if not self.target:
            raise KeySpecError("Key target path must be non-empty")
        seen: set[Path] = set()
        for path in self.key_paths:
            if path in seen:
                raise KeySpecError(
                    f"Duplicate key path {format_path(path, absolute=False)!r}"
                )
            seen.add(path)

    @property
    def absolute_target(self) -> Path:
        """``Q/Q'`` — the full root-to-target path (``CS_i`` in Sec. 4.1)."""
        return concat(self.context, self.target)

    @cached_property
    def rendered_paths(self) -> tuple[tuple[Path, str], ...]:
        """Every key path beside its text, in the order a key value lists
        its components (by text): rendered and sorted once per key, not
        once per node the key labels."""
        rendered = [
            (path, format_path(path, absolute=False)) for path in self.key_paths
        ]
        return tuple(sorted(rendered, key=lambda item: item[1]))

    def __str__(self) -> str:
        paths = ", ".join(format_path(p, absolute=False) for p in self.key_paths)
        return (
            f"({format_path(self.context)}, "
            f"({format_path(self.target, absolute=False)}, {{{paths}}}))"
        )


@dataclass
class KeyedPath:
    """One keyed path of a specification as Annotate Keys walks it: the
    key that labels the nodes there, whether they are frontier nodes,
    and the keyed paths one step below by child tag — so the walk
    carries this down instead of building and hashing a path per node."""

    path: Path
    key: Key
    frontier: bool
    below: dict[str, "KeyedPath"] = field(default_factory=dict, repr=False)


def key(context: str, target: str, key_paths: tuple[str, ...] | list[str] = ()) -> Key:
    """Convenience constructor from path strings."""
    return Key(
        context=parse_path(context),
        target=parse_path(target),
        key_paths=tuple(parse_path(p) for p in key_paths),
    )


@dataclass
class KeySpec:
    """A closed set of relative keys plus derived structure.

    Construction closes the explicit keys under the implied-key rule,
    indexes keys by absolute target path, computes frontier paths, and
    checks the three structural assumptions of Sec. 3:

    1. *insertion-friendly*: every key's context is itself a keyed path
       (or the root), so correspondences resolve top-down;
    2. coverage cannot be checked without a document — it is enforced
       during annotation (:mod:`repro.keys.annotate`);
    3. no keyed node beneath a key path.
    """

    explicit_keys: list[Key]
    keys_by_path: dict[Path, Key] = field(init=False, repr=False)
    frontier_paths: frozenset[Path] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        closed: dict[Path, Key] = {}
        for user_key in self.explicit_keys:
            self._add(closed, user_key)
        for user_key in list(self.explicit_keys):
            for key_path in user_key.key_paths:
                if key_path == EMPTY_PATH:
                    continue
                implied = Key(
                    context=user_key.absolute_target,
                    target=key_path,
                    key_paths=(),
                )
                if implied.absolute_target not in closed:
                    self._add(closed, implied)
        self.keys_by_path = closed
        # Proper prefixes of keyed paths: one set for both checks below.
        prefixes = {path[:end] for path in closed for end in range(len(path))}
        self.frontier_paths = frozenset(closed.keys() - prefixes)
        self._check_insertion_friendly()
        self._check_no_keys_beneath_key_paths(prefixes)

    @cached_property
    def roots(self) -> dict[str, KeyedPath]:
        """The keyed paths of length one, by tag; the rest hang below
        them.  Built the first time a document is annotated: a handle
        that only reads never asks."""
        keyed = {
            path: KeyedPath(path, path_key, path in self.frontier_paths)
            for path, path_key in self.keys_by_path.items()
        }
        roots = {}
        for path, entry in keyed.items():
            if len(path) == 1:
                roots[path[0]] = entry
            elif path[:-1] in keyed:  # else unreachable: coverage fails above it
                keyed[path[:-1]].below[path[-1]] = entry
        return roots

    @staticmethod
    def _add(closed: dict[Path, Key], new_key: Key) -> None:
        path = new_key.absolute_target
        if path in closed:
            raise KeySpecError(
                f"Two keys share the target path {format_path(path)!r}"
            )
        closed[path] = new_key

    def _check_insertion_friendly(self) -> None:
        for k in self.keys_by_path.values():
            if k.context == EMPTY_PATH:
                continue
            if k.context not in self.keys_by_path:
                raise KeySpecError(
                    f"Key {k} is not insertion-friendly: its context "
                    f"{format_path(k.context)!r} is not itself a keyed path"
                )

    def _check_no_keys_beneath_key_paths(self, prefixes: set[Path]) -> None:
        # Assumption 3: for keys K1 with non-empty key path Pi, no keyed
        # path may lie strictly beneath K1's target extended by Pi.
        for k in self.explicit_keys:
            for key_path in k.key_paths:
                beneath = concat(k.absolute_target, key_path)
                if key_path == EMPTY_PATH or beneath not in prefixes:
                    continue
                for other_path in self.keys_by_path:  # name the first
                    if is_proper_prefix(beneath, other_path):
                        raise KeySpecError(
                            f"Keyed path {format_path(other_path)!r} lies "
                            f"beneath the key path "
                            f"{format_path(beneath)!r} of key {k}"
                        )

    # -- queries -------------------------------------------------------------

    def key_for(self, path: Path) -> Key | None:
        """The key whose absolute target equals ``path``, if any."""
        return self.keys_by_path.get(path)

    def is_keyed_path(self, path: Path) -> bool:
        return path in self.keys_by_path

    def is_frontier_path(self, path: Path) -> bool:
        return path in self.frontier_paths

    def max_keyed_depth(self) -> int:
        """Length of the longest keyed path (0 for an empty spec)."""
        if not self.keys_by_path:
            return 0
        return max(len(path) for path in self.keys_by_path)

    def __len__(self) -> int:
        return len(self.keys_by_path)

    def __iter__(self):
        return iter(self.keys_by_path.values())

    def __str__(self) -> str:
        return "\n".join(str(k) for k in self.keys_by_path.values())


def empty_spec() -> KeySpec:
    """A key specification with no keys.

    Archiving under an empty spec degenerates to the SCCS approach
    (paper Sec. 2, first caveat): the document root acts as one frontier
    and all content is merged by diff.
    """
    return KeySpec(explicit_keys=[])
