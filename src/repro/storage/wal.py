"""Write-ahead commit log and atomic file publication.

The durable backends never overwrite archive state in place.  A commit
proceeds in three phases:

1. **Stage** — every file of the commit is written to ``<final>.tmp``
   (same directory, so the later rename never crosses filesystems) and
   fsynced;
2. **Append** — one WAL record listing the staged files (plus commit
   metadata) is written, itself via tmp+rename, and the directory is
   fsynced.  The record is the *intent log* that makes recovery
   deterministic — not yet the commit point;
3. **Publish** — each staged file is moved over its final name with
   :func:`os.replace`, the directory is fsynced, and the WAL record is
   removed.  The **first publish rename is the commit point**: a batch
   whose record is durable but whose files are all still staged rolls
   back on recovery, so nothing may be acknowledged to a caller before
   publish begins.

Recovery on open inspects the WAL record:

* no record → any ``*.tmp`` stragglers are from a crash mid-stage;
  they are discarded (rollback — nothing was committed);
* record present and *every* staged file still has its ``.tmp`` → the
  crash hit between append and publish; the batch is rolled back
  (tmps and record deleted) and the archive reads at the pre-batch
  state;
* record present with some tmps already renamed → the crash hit
  mid-publish; the remaining renames are replayed (roll forward) so the
  archive never exposes a torn mix of old and new files.

The roll-back-if-nothing-published rule keeps recovery deterministic:
either no rename happened (the batch is droppable) or at least one did
(the batch must complete).

Records carry a self-checksum (SHA-256 over their canonical body), so
recovery can *classify* an unreadable record deterministically: a
record that fails to parse or to verify is torn or rotted — and since
the record itself publishes atomically (tmp + rename), a torn record
can never have been the commit point, so recovery discards it and
rolls the staged files back (``"discarded-torn-record"``) instead of
raising.

Every durable operation here crosses the fault-injection seam of
:mod:`repro.storage.faults`; payload writes additionally retry
transient ``EIO``/``ENOSPC`` failures with bounded backoff.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Optional

from . import faults
from .integrity import _self_digest

WAL_FORMAT = 1


class WalError(ValueError):
    """Raised when a commit log cannot be interpreted.

    ``reason`` classifies the failure: ``"torn"`` for a record whose
    bytes fail to parse or to match their self-checksum (an incomplete
    or rotted write — never a committed intent), ``"malformed"`` for a
    structurally wrong but intact record (written by a broken tool).
    """

    def __init__(self, message: str, reason: str = "torn") -> None:
        super().__init__(message)
        self.reason = reason


def fsync_directory(directory: str) -> None:
    """Flush a directory's entry table (rename durability on POSIX).

    Platforms that refuse ``open`` on directories (Windows) skip the
    sync; the rename itself is still atomic there.
    """
    faults.before_op("dirsync", directory)
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_once(path: str, data: bytes) -> None:
    faults.before_op("write", path)
    data = faults.filter_payload(path, data)
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        faults.before_op("fsync", path)
        os.fsync(handle.fileno())


def write_file_durable(path: str, payload: "str | bytes") -> None:
    """Write ``payload`` to ``path`` and fsync the file (not the dir).

    Text is written UTF-8; bytes are written verbatim — codec-encoded
    payloads stage through the same durability path as plain text.
    Transient ``EIO``/``ENOSPC`` failures are retried with bounded
    backoff; anything persistent propagates.
    """
    data = payload.encode("utf-8") if isinstance(payload, str) else payload
    faults.retry_transient(lambda: _write_once(path, data))


def fsync_file(path: str) -> None:
    """Flush a file somebody else finished writing, and its directory
    entry, to stable storage."""
    faults.before_op("fsync", path)
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    fsync_directory(os.path.dirname(os.path.abspath(path)))


def replace_file(tmp: str, path: str) -> None:
    """Rename a staged file over its final name (the seam's commit op)."""
    faults.before_op("replace", path)
    os.replace(tmp, path)


def atomic_write_text(path: str, text: str) -> None:
    """Publish ``text`` at ``path`` atomically: tmp, fsync, rename,
    directory fsync.  Readers see either the old or the new content,
    never a torn write."""
    tmp = path + ".tmp"
    write_file_durable(tmp, text)
    replace_file(tmp, path)
    fsync_directory(os.path.dirname(os.path.abspath(path)))


def wal_location(path: "str | os.PathLike") -> str:
    """Where an archive at ``path`` keeps its write-ahead record."""
    path = os.fspath(path)
    if os.path.isdir(path):
        return os.path.join(path, "wal.json")
    return path + ".wal"


class WriteAheadLog:
    """One archive's commit log: stage, append, publish, recover.

    ``path`` is the WAL record's location; staged files may live in any
    directory (entries are recorded relative to the WAL's directory).
    A :class:`Commit` built by :meth:`begin` accumulates staged files;
    its :meth:`Commit.commit` runs append + publish.  Tests simulate
    crashes by monkeypatching :meth:`publish` to raise after
    :meth:`append` has made the record durable.
    """

    def __init__(self, path: str) -> None:
        self.path = os.path.abspath(path)
        self.directory = os.path.dirname(self.path)

    # -- commit protocol ---------------------------------------------------

    def begin(self) -> "Commit":
        return Commit(self)

    def append(self, entries: list[str], meta: Optional[dict] = None) -> None:
        """Make the intent record durable (recovery's decision input;
        the commit point is the first rename in :meth:`publish`).

        The record carries a self-checksum so recovery can tell a torn
        or rotted record from a durable intent.
        """
        record = {
            "format": WAL_FORMAT,
            "entries": [os.path.relpath(entry, self.directory) for entry in entries],
            "meta": meta or {},
        }
        record["sha256"] = _self_digest(record)
        atomic_write_text(self.path, json.dumps(record))

    def publish(self, entries: list[str]) -> None:
        """Rename every staged file over its final name and clear the
        record.  Idempotent: entries whose tmp is already gone were
        published before a crash and are skipped."""
        for entry in entries:
            tmp = entry + ".tmp"
            if os.path.exists(tmp):
                replace_file(tmp, entry)
        fsync_directory(self.directory)
        self.clear()

    def clear(self) -> None:
        if os.path.exists(self.path):
            faults.before_op("remove", self.path)
            os.remove(self.path)
            fsync_directory(self.directory)

    # -- recovery ----------------------------------------------------------

    def read_record(self) -> Optional[dict]:
        """The current intent record, verified; ``None`` when absent.

        Raises :class:`WalError` with ``reason="torn"`` for a record
        whose bytes fail to parse or to match their self-checksum, and
        ``reason="malformed"`` for an intact record of the wrong shape.
        :meth:`recover` turns either into a deterministic outcome
        rather than propagating.
        """
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as error:
            raise WalError(
                f"Unreadable commit log {self.path!r}: {error}", reason="torn"
            )
        if not isinstance(record, dict) or "entries" not in record:
            raise WalError(
                f"Malformed commit log {self.path!r}", reason="malformed"
            )
        recorded = record.pop("sha256", None)
        if recorded is None:
            # No self-checksum means no verifiable intent — a flipped
            # bit inside the key name must not smuggle a record past
            # verification, so absence is treated as malformed (and
            # recovery rolls staged files back, never forward).
            raise WalError(
                f"Commit log {self.path!r} carries no self-checksum",
                reason="malformed",
            )
        if _self_digest(record) != recorded:
            raise WalError(
                f"Commit log {self.path!r} fails its self-checksum "
                f"(torn or corrupt record)",
                reason="torn",
            )
        return record

    def recover(self, stray_tmps: Iterable[str] = ()) -> str:
        """Bring the archive directory to a consistent state.

        Returns ``"clean"``, ``"rolled-back"``, ``"rolled-forward"`` or
        ``"discarded-torn-record"``.  ``stray_tmps`` names tmp files
        the caller knows could exist (crash mid-stage); they are
        removed when no commit record claims them.
        """
        # The record's own staging file is never durable intent — a
        # crash between writing and renaming it leaves the previous
        # record (or none) in force.  Sweep it first, unconditionally.
        if os.path.exists(self.path + ".tmp"):
            os.remove(self.path + ".tmp")
        discarded = False
        try:
            record = self.read_record()
        except WalError:
            # A torn (or malformed) record cannot have been the commit
            # point — the record itself is published atomically, so an
            # unreadable one was never durable intent.  Discard it and
            # fall through to the no-record path: staged tmps roll back.
            os.remove(self.path)
            record = None
            discarded = True
        if record is None:
            removed = False
            for tmp in stray_tmps:
                if os.path.exists(tmp):
                    os.remove(tmp)
                    removed = True
            if discarded:
                return "discarded-torn-record"
            return "rolled-back" if removed else "clean"
        entries = [
            os.path.join(self.directory, entry) for entry in record["entries"]
        ]
        if all(os.path.exists(entry + ".tmp") for entry in entries):
            # Nothing was published: drop the batch (pre-batch state).
            for entry in entries:
                os.remove(entry + ".tmp")
            self.clear()
            return "rolled-back"
        # Publication started: finish it so no torn mix survives.
        self.publish(entries)
        return "rolled-forward"


class Commit:
    """Staged files of one atomic commit (see :class:`WriteAheadLog`)."""

    def __init__(self, wal: WriteAheadLog) -> None:
        self._wal = wal
        self._entries: list[str] = []

    def stage(self, path: str, payload: "str | bytes") -> None:
        """Write one file of the commit (text or bytes) to its staging name."""
        path = os.path.abspath(path)
        write_file_durable(path + ".tmp", payload)
        self._entries.append(path)

    def adopt(self, path: str) -> None:
        """Take in a file the caller wrote at ``path``'s staging name
        itself — a payload streamed to disk, never held in memory."""
        path = os.path.abspath(path)
        fsync_file(path + ".tmp")
        self._entries.append(path)

    def commit(self, meta: Optional[dict] = None) -> None:
        """Append the record, then publish every staged file."""
        if not self._entries:
            return
        self._wal.append(self._entries, meta)
        self._wal.publish(self._entries)
        self._entries = []

    def abort(self) -> None:
        """Discard staged files after a failure before the append."""
        for entry in self._entries:
            tmp = entry + ".tmp"
            if os.path.exists(tmp):
                os.remove(tmp)
        self._entries = []
