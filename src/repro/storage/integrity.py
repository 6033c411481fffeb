"""The integrity plane: payload checksums and the typed error taxonomy.

The storage engine is WAL-atomic but — before this module — trusted
every byte it read back: bit rot or a truncated publish surfaced as a
confusing :class:`~repro.storage.codec.CodecError`, an XML parse error,
or (worst) a silently wrong answer from a stale sidecar.  The integrity
plane closes that gap:

* every payload written through a backend gets a recorded SHA-256 in
  the archive's checksum table (:class:`ChecksumSidecar`), which the
  manifest carries on every layout — so the table publishes by the
  same rename as the commit it describes, and checksums and bytes are
  never torn apart;
* every read hashes a covered payload before anything decodes it, and
  a covered payload that is missing raises.  A decoded-chunk cache hit
  reads no bytes, so it hashes none: it hands back a tree decoded from
  bytes that were hashed against the very checksum that keys it
  (:mod:`repro.storage.cache`).  Damage that lands on disk after such a
  decode is reported by the next miss, or by ``fsck``; until then the
  cache keeps answering with the verified tree;
* failures raise a *typed* :class:`IntegrityError` — readers can tell
  a short file (:class:`TruncatedPayload`) from flipped bits
  (:class:`ChecksumMismatch`) from metadata that contradicts the data
  (:class:`ManifestInconsistent`) — instead of leaking whatever the
  codec or parser happened to hit first.

All three errors subclass :class:`~repro.core.archive.ArchiveError`,
so pre-integrity error handling stays safe (it just gets more
specific); the CLI maps the family to exit code 2.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from ..core.archive import ArchiveError

#: Subdirectory fsck's ``--repair`` moves undecodable payloads into.
QUARANTINE_DIR = "quarantine"


class IntegrityError(ArchiveError):
    """A stored payload or its metadata failed verification."""


class ChecksumMismatch(IntegrityError):
    """Payload bytes do not hash to their recorded SHA-256."""


class TruncatedPayload(IntegrityError):
    """A payload is shorter than its recorded size (torn/partial write)."""


class ManifestInconsistent(IntegrityError):
    """Archive metadata contradicts itself or the files on disk."""


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def hash_file(path: str, chunk_size: int = 1 << 20) -> tuple[str, int]:
    """Stream a file's SHA-256 without holding it in memory."""
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_size)
            if not chunk:
                break
            digest.update(chunk)
            size += len(chunk)
    return digest.hexdigest(), size


def checksum_entry(data: bytes) -> dict:
    """The recorded form of one payload's checksum."""
    return {"sha256": sha256_hex(data), "bytes": len(data)}


def verify_bytes(name: str, data: bytes, expected: Optional[dict]) -> None:
    """Check payload bytes against a recorded entry.

    ``expected`` of ``None`` (an uncovered/legacy payload) passes —
    absence of a checksum is a scrub finding, not a read error.  A
    short payload classifies as :class:`TruncatedPayload`; any other
    difference as :class:`ChecksumMismatch`.
    """
    if expected is None:
        return
    recorded = expected.get("sha256")
    if recorded and sha256_hex(data) == recorded:
        return
    size = expected.get("bytes")
    if isinstance(size, int) and len(data) < size:
        raise TruncatedPayload(
            f"Payload {name!r} is truncated: {len(data)} of {size} "
            f"recorded bytes on disk"
        )
    raise ChecksumMismatch(
        f"Payload {name!r} does not match its recorded checksum "
        f"(expected sha256 {recorded}, have {sha256_hex(data)})"
    )


def verify_file(name: str, path: str, expected: Optional[dict]) -> None:
    """Like :func:`verify_bytes` but streaming from disk.

    A covered file that is *missing* raises
    :class:`ManifestInconsistent` — the metadata names bytes the disk
    does not have.
    """
    if expected is None:
        return
    try:
        digest, size = hash_file(path)
    except FileNotFoundError:
        raise ManifestInconsistent(
            f"Payload {name!r} is recorded in the checksum table but "
            f"missing on disk"
        )
    recorded = expected.get("sha256")
    if recorded and digest == recorded:
        return
    expected_size = expected.get("bytes")
    if isinstance(expected_size, int) and size < expected_size:
        raise TruncatedPayload(
            f"Payload {name!r} is truncated: {size} of {expected_size} "
            f"recorded bytes on disk"
        )
    raise ChecksumMismatch(
        f"Payload {name!r} does not match its recorded checksum "
        f"(expected sha256 {recorded}, have {digest})"
    )


def _self_digest(body: dict) -> str:
    """Deterministic hash of a manifest/WAL record body (sans its hash)."""
    return sha256_hex(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )


class ChecksumSidecar:
    """One archive's checksum table.

    Maps payload name (relative to the archive root) to
    ``{"sha256", "bytes"}`` and carries the names fsck has quarantined.
    The manifest carries the table (``Manifest.checksums`` and
    ``.quarantined``), so its self-checksum covers it and one rename
    publishes it with the rest of the commit.

    Where a store written before that kept its table,
    :mod:`repro.storage.legacy` alone knows, and reads it as the
    manifest's.  A store with no table anywhere is a pre-integrity
    archive: verification is skipped for every file and ``fsck``
    reports it (repairable).
    """

    def __init__(self, entries: Optional[dict] = None, quarantined=()) -> None:
        self.entries: dict[str, dict] = dict(entries or {})
        self.quarantined: set[str] = set(quarantined)

    def copy(self) -> "ChecksumSidecar":
        return ChecksumSidecar(self.entries, self.quarantined)

    # -- bookkeeping -------------------------------------------------------

    def record(self, name: str, data: bytes) -> None:
        self.entries[name] = checksum_entry(data)
        self.quarantined.discard(name)

    def record_file(self, name: str, path: str) -> None:
        """:meth:`record` of the bytes at ``path``, streamed."""
        digest, size = hash_file(path)
        self.entries[name] = {"sha256": digest, "bytes": size}
        self.quarantined.discard(name)

    def forget(self, name: str) -> None:
        self.entries.pop(name, None)

    def quarantine(self, name: str) -> None:
        self.entries.pop(name, None)
        self.quarantined.add(name)

    def entry(self, name: str) -> Optional[dict]:
        return self.entries.get(name)

    def covers(self, name: str) -> bool:
        return name in self.entries

    # -- verification ------------------------------------------------------

    def verify(self, name: str, data: bytes) -> None:
        """Check payload bytes read back against the table.

        Quarantined payloads always raise — fsck moved the bytes aside
        because they were undecodable.
        """
        if name in self.quarantined:
            raise IntegrityError(
                f"Payload {name!r} was quarantined by fsck --repair; "
                f"restore it from {QUARANTINE_DIR}/ or re-ingest"
            )
        verify_bytes(name, data, self.entries.get(name))
