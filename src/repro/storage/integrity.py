"""The integrity plane: payload checksums and the typed error taxonomy.

The storage engine is WAL-atomic but — before this module — trusted
every byte it read back: bit rot or a truncated publish surfaced as a
confusing :class:`~repro.storage.codec.CodecError`, an XML parse error,
or (worst) a silently wrong answer from a stale sidecar.  The integrity
plane closes that gap:

* every payload written through a backend gets a recorded SHA-256 —
  in the manifest for whole-file archives, in a per-backend
  ``checksums.json`` sidecar (:class:`ChecksumSidecar`) for directory
  backends — published through the same WAL commit as the payload
  itself, so checksums and bytes are never torn apart;
* reads verify under a configurable policy (``verify="always"``:
  every read, the default; ``"open"``: once per file per backend
  instance; ``"never"``: trust the disk);
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
import os
from typing import Optional

from ..core.archive import ArchiveError

#: Read-verification policies accepted by every backend.
VERIFY_POLICIES = ("always", "open", "never")

#: On-disk format tag of the ``checksums.json`` sidecar.
CHECKSUMS_FORMAT = 1

#: Conventional name of the sidecar inside directory archives.
CHECKSUMS_NAME = "checksums.json"

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


def validate_policy(verify: str) -> str:
    if verify not in VERIFY_POLICIES:
        raise ArchiveError(
            f"Unknown verify policy {verify!r} "
            f"(choose from {', '.join(VERIFY_POLICIES)})"
        )
    return verify


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
            f"Payload {name!r} is recorded in the checksum sidecar but "
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
    """Deterministic hash of a sidecar/WAL record body (sans its hash)."""
    return sha256_hex(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )


class ChecksumSidecar:
    """``checksums.json``: one directory archive's payload checksums.

    Maps payload name (relative to the archive root) to
    ``{"sha256", "bytes"}`` and carries the names fsck has quarantined.
    The sidecar is self-checksummed — a flipped bit in the sidecar
    itself is detected, not silently trusted — and is staged through
    the same WAL commit as the payloads it describes, so the two are
    never torn apart by a crash.

    A missing sidecar (``present`` is ``False``) means a pre-integrity
    archive: verification is skipped for every file and ``fsck``
    reports the archive as unchecksummed (repairable).

    The whole-file layout has one payload and keeps its entry in the
    manifest instead: its table has no ``path`` and is never written
    out as a sidecar.
    """

    def __init__(self, path: Optional[str]) -> None:
        self.path = os.path.abspath(path) if path is not None else None
        self.entries: dict[str, dict] = {}
        self.quarantined: set[str] = set()
        self.present = False

    @classmethod
    def load(cls, path: str) -> "ChecksumSidecar":
        """Read and self-verify the sidecar (missing → empty/legacy)."""
        sidecar = cls(path)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return sidecar
        sidecar.present = True
        try:
            record = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise ManifestInconsistent(
                f"Checksum sidecar {path!r} is unreadable: {error}"
            )
        if not isinstance(record, dict) or "entries" not in record:
            raise ManifestInconsistent(
                f"Checksum sidecar {path!r} is malformed (no entries)"
            )
        recorded = record.pop("sha256", None)
        if recorded is None:
            # Every sidecar ever written carries the field, so absence
            # is damage — a flipped bit in the key name must not switch
            # the check off.
            raise ManifestInconsistent(
                f"Checksum sidecar {path!r} carries no self-checksum "
                f"(corrupt sidecar)"
            )
        if _self_digest(record) != recorded:
            raise ChecksumMismatch(
                f"Checksum sidecar {path!r} fails its own checksum "
                f"(corrupt sidecar)"
            )
        sidecar.entries = dict(record["entries"])
        sidecar.quarantined = set(record.get("quarantined", ()))
        return sidecar

    def copy(self) -> "ChecksumSidecar":
        duplicate = ChecksumSidecar(self.path)
        duplicate.entries = dict(self.entries)
        duplicate.quarantined = set(self.quarantined)
        duplicate.present = self.present
        return duplicate

    def to_json(self) -> str:
        body = {
            "format": CHECKSUMS_FORMAT,
            "entries": {name: self.entries[name] for name in sorted(self.entries)},
            "quarantined": sorted(self.quarantined),
        }
        body["sha256"] = _self_digest(
            {key: body[key] for key in body if key != "sha256"}
        )
        return json.dumps(body, sort_keys=True, indent=2) + "\n"

    # -- bookkeeping -------------------------------------------------------

    def record(self, name: str, data: bytes) -> None:
        self.entries[name] = checksum_entry(data)
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

    def verify(
        self, name: str, data: bytes, policy: str, verified: set
    ) -> None:
        """Verify payload bytes under a read policy.

        ``verified`` is the caller's per-instance memo for the
        ``"open"`` policy (verify once per file, then trust the
        instance's view).  Quarantined payloads always raise — fsck
        moved the bytes aside because they were undecodable.
        """
        if name in self.quarantined:
            raise IntegrityError(
                f"Payload {name!r} was quarantined by fsck --repair; "
                f"restore it from {QUARANTINE_DIR}/ or re-ingest"
            )
        if policy == "never":
            return
        if policy == "open" and name in verified:
            return
        verify_bytes(name, data, self.entries.get(name))
        verified.add(name)
