"""Timestamps as compact sets of version numbers (Sec. 2).

A timestamp is a set of version numbers stored as sorted, disjoint,
non-adjacent closed intervals — the paper's ``[1-3,5,7-9]`` notation.
Because scientific data is largely accretive, an element tends to live
through long runs of consecutive versions, so the interval encoding is
small (usually a single interval).

The algebra is the retrieval hot path: the archive's walk runs one
membership test per stored timestamp it meets, and the timestamp trees union/
intersect/difference interval lists wholesale.  Every bulk operation is
therefore a single linear pass over the interval lists — construction,
``union``, ``intersection`` and ``difference`` are all ``O(n + m)`` —
and two small caches serve the point queries: the element count is
memoized until the next mutation, and ``in`` remembers the interval it
last landed on, so runs of nearby probes (retrieving one version across
thousands of nodes whose timestamps barely differ) skip the binary
search entirely.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def _validate_range(start: int, end: int) -> None:
    if start > end:
        raise ValueError(f"Empty range {start}-{end}")
    if start < 1:
        raise ValueError(f"Version numbers are positive, got {start}")


def _coalesce(pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Merge validated ``(start, end)`` pairs, pre-sorted by start, into
    the canonical disjoint non-adjacent interval list — one pass."""
    merged: list[list[int]] = []
    for start, end in pairs:
        if merged and start <= merged[-1][1] + 1:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return merged


class VersionSet:
    """A mutable set of positive version numbers with interval encoding."""

    __slots__ = ("_intervals", "_length", "_probe")

    def __init__(self, versions: Iterable[int] = ()) -> None:
        ordered = sorted(set(versions))
        intervals: list[list[int]] = []
        if ordered:
            _validate_range(ordered[0], ordered[0])
            start = previous = ordered[0]
            for version in ordered[1:]:
                if version == previous + 1:
                    previous = version
                else:
                    intervals.append([start, previous])
                    start = previous = version
            intervals.append([start, previous])
        self._intervals: list[list[int]] = intervals
        self._length: int | None = len(ordered)
        self._probe: int = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def _from_normalized(cls, intervals: list[list[int]]) -> "VersionSet":
        """Adopt an already-canonical interval list (internal fast path)."""
        result = cls.__new__(cls)
        result._intervals = intervals
        result._length = None
        result._probe = 0
        return result

    @classmethod
    def from_intervals(cls, intervals: Iterable[tuple[int, int]]) -> "VersionSet":
        """Build from ``(start, end)`` pairs (inclusive).

        One sort plus one coalescing pass — linear in the number of
        pairs (after sorting), never a per-pair interval-list rebuild.
        """
        pairs = sorted(intervals)
        for start, end in pairs:
            _validate_range(start, end)
        return cls._from_normalized(_coalesce(pairs))

    @classmethod
    def parse(cls, text: str) -> "VersionSet":
        """Parse the textual form, e.g. ``'1-3,5,7-9'``."""
        text = text.strip()
        if not text:
            return cls()
        pairs: list[tuple[int, int]] = []
        for part in text.split(","):
            part = part.strip()
            if "-" in part:
                start_text, end_text = part.split("-", 1)
                pairs.append((int(start_text), int(end_text)))
            else:
                version = int(part)
                pairs.append((version, version))
        return cls.from_intervals(pairs)

    def copy(self) -> "VersionSet":
        clone = VersionSet.__new__(VersionSet)
        clone._intervals = [pair.copy() for pair in self._intervals]
        clone._length = self._length
        clone._probe = 0
        return clone

    # -- mutation ------------------------------------------------------------

    def add(self, version: int) -> None:
        """Insert one version number.

        The common archiving mutation is appending the next version to a
        timestamp that ends at the previous one; that case extends the
        last interval in place without touching the rest of the list.
        """
        _validate_range(version, version)
        intervals = self._intervals
        if intervals:
            last = intervals[-1]
            if last[0] <= version <= last[1]:
                return
            if version == last[1] + 1:
                last[1] = version
                if self._length is not None:
                    self._length += 1
                return
            if version > last[1]:
                intervals.append([version, version])
                if self._length is not None:
                    self._length += 1
                return
        self.add_range(version, version)

    def add_range(self, start: int, end: int) -> None:
        """Insert the inclusive range ``start..end`` (one linear pass)."""
        _validate_range(start, end)
        merged: list[list[int]] = []
        placed = False
        for lo, hi in self._intervals:
            if hi + 1 < start:          # entirely before, not adjacent
                merged.append([lo, hi])
            elif end + 1 < lo:          # entirely after, not adjacent
                if not placed:
                    merged.append([start, end])
                    placed = True
                merged.append([lo, hi])
            else:                        # overlaps or adjacent: absorb
                start = min(start, lo)
                end = max(end, hi)
        if not placed:
            merged.append([start, end])
        self._intervals = merged
        self._length = None
        self._probe = 0

    def discard(self, version: int) -> None:
        """Remove one version number if present."""
        updated: list[list[int]] = []
        for lo, hi in self._intervals:
            if version < lo or version > hi:
                updated.append([lo, hi])
                continue
            if lo <= version - 1:
                updated.append([lo, version - 1])
            if version + 1 <= hi:
                updated.append([version + 1, hi])
        self._intervals = updated
        self._length = None
        self._probe = 0

    # -- queries ---------------------------------------------------------------

    def __contains__(self, version: int) -> bool:
        intervals = self._intervals
        count = len(intervals)
        if count == 0:
            return False
        # Last-probe cursor: reconstruction probes the same handful of
        # versions against timestamps that mostly share intervals, so
        # the previous landing spot usually answers immediately.
        probe = self._probe
        if probe < count:
            start, end = intervals[probe]
            if start <= version <= end:
                return True
            if version > end and (
                probe + 1 == count or version < intervals[probe + 1][0]
            ):
                return False
        lo, hi = 0, count - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            start, end = intervals[mid]
            if version < start:
                hi = mid - 1
            elif version > end:
                lo = mid + 1
            else:
                self._probe = mid
                return True
        # Remember the nearest interval below: the next probe is usually
        # for a neighbouring version.
        self._probe = max(hi, 0)
        return False

    def __iter__(self) -> Iterator[int]:
        for lo, hi in self._intervals:
            yield from range(lo, hi + 1)

    def __len__(self) -> int:
        if self._length is None:
            self._length = sum(hi - lo + 1 for lo, hi in self._intervals)
        return self._length

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VersionSet) and self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(tuple(tuple(pair) for pair in self._intervals))

    def intervals(self) -> list[tuple[int, int]]:
        """The interval encoding as ``(start, end)`` pairs."""
        return [(lo, hi) for lo, hi in self._intervals]

    def interval_count(self) -> int:
        return len(self._intervals)

    def min_version(self) -> int:
        if not self._intervals:
            raise ValueError("Empty VersionSet has no minimum")
        return self._intervals[0][0]

    def max_version(self) -> int:
        if not self._intervals:
            raise ValueError("Empty VersionSet has no maximum")
        return self._intervals[-1][1]

    def issuperset(self, other: "VersionSet") -> bool:
        """``True`` when every version in ``other`` is in ``self``."""
        it = iter(self._intervals)
        current = next(it, None)
        for lo, hi in other._intervals:
            while current is not None and current[1] < lo:
                current = next(it, None)
            if current is None or not (current[0] <= lo and hi <= current[1]):
                return False
        return True

    # -- algebra -----------------------------------------------------------------

    def union(self, other: "VersionSet") -> "VersionSet":
        """Set union as one two-pointer merge: ``O(n + m)``."""
        a, b = self._intervals, other._intervals
        if not a:
            return other.copy()
        if not b:
            return self.copy()

        def interleave() -> Iterator[tuple[int, int]]:
            i = j = 0
            while i < len(a) and j < len(b):
                if a[i][0] <= b[j][0]:
                    yield a[i][0], a[i][1]
                    i += 1
                else:
                    yield b[j][0], b[j][1]
                    j += 1
            while i < len(a):
                yield a[i][0], a[i][1]
                i += 1
            while j < len(b):
                yield b[j][0], b[j][1]
                j += 1

        return VersionSet._from_normalized(_coalesce(interleave()))

    def intersection(self, other: "VersionSet") -> "VersionSet":
        """Set intersection as one two-pointer sweep: ``O(n + m)``."""
        result: list[list[int]] = []
        i, j = 0, 0
        a, b = self._intervals, other._intervals
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo <= hi:
                # Pieces of two canonical lists are never adjacent:
                # consecutive pieces straddle a gap of one input.
                result.append([lo, hi])
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return VersionSet._from_normalized(result)

    def difference(self, other: "VersionSet") -> "VersionSet":
        """Set difference as one interval sweep: ``O(n + m)``, never the
        version-at-a-time discard loop (``O(|other| · n)``)."""
        a, b = self._intervals, other._intervals
        if not a or not b:
            return self.copy()
        result: list[list[int]] = []
        j = 0
        for lo, hi in a:
            cursor = lo
            while j < len(b) and b[j][1] < cursor:
                j += 1
            k = j
            while k < len(b) and b[k][0] <= hi:
                if b[k][0] > cursor:
                    result.append([cursor, b[k][0] - 1])
                cursor = b[k][1] + 1
                if cursor > hi:
                    break
                k += 1
            if cursor <= hi:
                result.append([cursor, hi])
        return VersionSet._from_normalized(result)

    def without(self, version: int) -> "VersionSet":
        """A copy with one version removed (the paper's ``T - {i}``)."""
        result = self.copy()
        result.discard(version)
        return result

    # -- text form ------------------------------------------------------------------

    def to_text(self) -> str:
        """Render the paper's notation: ``'1-3,5,7-9'``."""
        parts = []
        for lo, hi in self._intervals:
            parts.append(str(lo) if lo == hi else f"{lo}-{hi}")
        return ",".join(parts)

    def __repr__(self) -> str:
        return f"VersionSet({self.to_text()!r})"
