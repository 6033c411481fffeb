"""The decoded-chunk cache: never re-decode what the working set holds.

Every repeat read of a chunk used to pay the full decode (XML parse or
record decode) again, even moments after the last one — under the
server's per-request snapshot opens and the query fan-out that decode
dominates the read path.  :class:`DecodedChunkCache` is a process-wide,
size-bounded LRU of decoded :class:`~repro.core.archive.Archive` chunk
trees shared by every backend handle that opens for reading.

**Keying and invalidation.**  Entries are keyed by ``(archive root
path, chunk id, staleness token)``.  The token is the chunk's recorded
payload checksum from the integrity sidecar — the generation-keyed
staleness pattern of ``KeyIndex``/PR 9 sharpened to its fixpoint: a WAL
commit that republishes a chunk gives it a new checksum (new key, old
entry ages out of the LRU), while commits that *don't* touch the chunk
keep its token — so readers across generations share one decode and a
publish invalidates exactly the republished chunks.  A crashed commit
never poisons the cache: tokens come from the sidecar state the reader
verified its bytes against, so an entry can only ever be installed for
payload bytes that actually decoded.  Chunks without a recorded
checksum (legacy layouts, ``verify="never"`` handles without a sidecar)
fall back to the manifest generation as token — and are simply not
cached when there is no generation either.

**Sharing discipline.**  Cached archives are shared read-only across
handles and threads; writers never consult *this* cache (a writer
mutates its archive in place, which must not leak into other readers'
views) and never install into it.  Backends opt in per handle via
``cache_reads=True`` — set by snapshot opens (``open_archive(...,
recover=False)``) — and bypass the cache on their write paths even
then.  What a writer keeps for itself between appends — the whole-file
backend's one archive, the chunked backend's held trees — is private to
its handle; the chunked backend costs its held trees against this
cache's ``max_bytes`` (so ``REPRO_CHUNK_CACHE_BYTES=0`` turns both
off), but in an account of its own: they are not entries here and
evict nothing.

Knobs: ``REPRO_CHUNK_CACHE_BYTES`` caps the budget (approximate: an
entry costs its at-rest payload size plus the decoded container body
its tree keeps alive — ``Archive.body_bytes``, the larger part for an
``xbin`` chunk with blocks still unread; default 256 MiB), ``0``
disables caching entirely.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Hashable, Optional

from ..core.archive import Archive

#: Default cache budget when ``REPRO_CHUNK_CACHE_BYTES`` is unset.
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024

CacheKey = tuple[str, Hashable, Hashable]


class DecodedChunkCache:
    """A thread-safe, size-bounded LRU of decoded chunk archives.

    ``cost`` is what the caller knows the entry holds without walking
    it: the at-rest payload size — a stable proxy for the decoded
    tree's footprint (the decoded form is larger by a roughly constant
    factor, so relative budgeting is preserved) — plus any encoded
    body the tree still reads from.  Set at ``put``, never re-costed.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        self.max_bytes = max(0, int(max_bytes))
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, tuple[Archive, int]]" = (
            OrderedDict()
        )
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def enabled(self) -> bool:
        return self.max_bytes > 0

    def get(self, key: CacheKey) -> Optional[Archive]:
        """The cached archive for ``key``, freshened to most-recent."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: CacheKey, archive: Archive, cost: int) -> None:
        """Install a decoded chunk; evicts LRU entries past the budget."""
        if not self.enabled:
            return
        cost = max(1, int(cost))
        if cost > self.max_bytes:
            return  # larger than the whole budget: not worth evicting for
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (archive, cost)
            self._bytes += cost
            while self._bytes > self.max_bytes and self._entries:
                _, (_, evicted_cost) = self._entries.popitem(last=False)
                self._bytes -= evicted_cost
                self.evictions += 1

    def invalidate(self, root: str) -> int:
        """Drop every entry of one archive (by its root path).

        Correctness never requires this — stale tokens age out of the
        LRU on their own — but explicit writers call it after mutating
        through a read-caching handle so the budget is not spent on
        entries no future read can hit.
        """
        with self._lock:
            doomed = [key for key in self._entries if key[0] == root]
            for key in doomed:
                _, cost = self._entries.pop(key)
                self._bytes -= cost
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def reset_counters(self) -> None:
        with self._lock:
            self.hits = self.misses = self.evictions = 0

    @property
    def entry_count(self) -> int:
        return len(self._entries)

    @property
    def used_bytes(self) -> int:
        return self._bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"DecodedChunkCache(entries={len(self._entries)}, "
            f"bytes={self._bytes}/{self.max_bytes}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )


_cache: Optional[DecodedChunkCache] = None
_cache_guard = threading.Lock()


def _budget_from_env() -> int:
    raw = os.environ.get("REPRO_CHUNK_CACHE_BYTES")
    if raw is None:
        return DEFAULT_CACHE_BYTES
    try:
        return max(0, int(raw))
    except ValueError:
        return DEFAULT_CACHE_BYTES


def chunk_cache() -> DecodedChunkCache:
    """The process-wide decoded-chunk cache (created on first use)."""
    global _cache
    with _cache_guard:
        if _cache is None:
            _cache = DecodedChunkCache(_budget_from_env())
        return _cache


def reset_chunk_cache(max_bytes: Optional[int] = None) -> DecodedChunkCache:
    """Swap in a fresh cache (tests; ``max_bytes=None`` re-reads the env)."""
    global _cache
    with _cache_guard:
        _cache = DecodedChunkCache(
            _budget_from_env() if max_bytes is None else max_bytes
        )
        return _cache
