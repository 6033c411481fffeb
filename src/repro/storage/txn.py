"""The archive transaction: the one place a commit is spelled out.

``retrieve(v)`` must return version *v* exactly, forever; on disk that
promise is one policy, and :class:`ArchiveTxn` owns it for every write
of every backend — creation, ``add_version``, ``ingest_batch`` and
``recode`` alike::

    with ArchiveTxn(backend, version_count) as txn:
        txn.put(path, payload)          # as many as the write produces

Inside the block the backend only computes new payloads and hands them
over.  Leaving it cleanly runs the commit:

1. every payload was staged as ``<path>.tmp`` and fsynced by ``put``
   (or written by the caller at :meth:`ArchiveTxn.staging` and taken in
   by :meth:`ArchiveTxn.adopt`), its SHA-256 recorded in a pending copy
   of the backend's checksum table;
2. the manifest — next generation, the given version count and codec,
   the checksum table, and whatever the write put in
   :attr:`ArchiveTxn.extra` — is staged last;
3. the write-ahead record is appended and the staged files are renamed
   into place (:mod:`repro.storage.wal`);
4. only then does in-memory state move: the backend receives the new
   checksum table and codec, takes the rest from the manifest it just
   published (:meth:`StorageBackend._adopt
   <repro.storage.backend.StorageBackend._adopt>`), forgets what it had
   verified of the rewritten files, and drops its entries from the
   decoded-chunk cache;
5. on a store an earlier release wrote, the files of its layout that
   the new manifest replaced are removed
   (:func:`~repro.storage.legacy.retire`).

So a commit stages what changed and the one file that describes it.
An append to an 8-chunk archive is 9 staged files (8 chunks and the
manifest) and 13 syncs: one per staged file, one for the write-ahead
record, and three of the directory (record in, files published, record
out).  ``tests/test_storage_txn.py`` pins both counts.

An exception before step 3 removes what was staged and leaves disk and
handle as they were.  A failure *during* step 3 removes nothing: a
durable record means recovery decides between roll-back and
roll-forward, on the backend's reload (see
:func:`~repro.storage.backend.mutation`) or the next open.
"""

from __future__ import annotations

import os
from types import TracebackType
from typing import TYPE_CHECKING, Optional

from .cache import chunk_cache
from .codec import Codec
from .integrity import ChecksumSidecar
from .legacy import retire
from .wal import WriteAheadLog, wal_location

if TYPE_CHECKING:
    from .backend import Manifest, StorageBackend


class ArchiveTxn:
    """One atomic publication of ``backend``'s next state."""

    def __init__(
        self,
        backend: "StorageBackend",
        version_count: int,
        codec: Optional[Codec] = None,
    ) -> None:
        self.backend = backend
        #: What the committed manifest records.
        self.version_count = version_count
        self.codec = codec if codec is not None else backend.codec
        #: The checksum table as it stands once this commit lands.
        self.checksums: ChecksumSidecar = backend._checksums.copy()
        self._commit = WriteAheadLog(wal_location(backend.storage_root)).begin()
        #: Staging files handed out by :meth:`staging`.
        self._streamed: list[str] = []
        #: Manifest fields this commit sets, over the backend's
        #: ``_manifest_extra``.
        self.extra: dict = {}

    def __enter__(self) -> "ArchiveTxn":
        return self

    def put(self, path: str, payload: "str | bytes") -> Optional[dict]:
        """Stage one file; returns its new checksum-table entry."""
        self._commit.stage(path, payload)
        data = payload.encode("utf-8") if isinstance(payload, str) else payload
        name = os.path.basename(path)
        self.checksums.record(name, data)
        return self.checksums.entry(name)

    def put_uncovered(self, path: str, text: str) -> None:
        """Stage the one file an archive keeps outside its checksum
        table: the key specification text, written once at creation."""
        self._commit.stage(path, text)

    def staging(self, path: str) -> str:
        """Where to write a payload that is streamed rather than built
        in memory; :meth:`adopt` takes the finished file in."""
        staged = os.path.abspath(path) + ".tmp"
        self._streamed.append(staged)
        return staged

    def adopt(self, path: str) -> None:
        """Take in the finished file at ``staging(path)``."""
        self._commit.adopt(path)
        self.checksums.record_file(
            os.path.basename(path), os.path.abspath(path) + ".tmp"
        )

    def _seal(self) -> "Manifest":
        """Stage the manifest, which carries the checksum table."""
        backend = self.backend
        manifest = backend.manifest(self.version_count, self.codec, self.checksums)
        manifest.extra.update(self.extra)
        self._commit.stage(backend.manifest_path(), manifest.to_json())
        return manifest

    def _abort(self) -> None:
        self._commit.abort()
        for staged in self._streamed:
            if os.path.exists(staged):
                os.remove(staged)

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        traceback: Optional[TracebackType],
    ) -> None:
        if exc_type is not None:
            self._abort()
            return
        try:
            manifest = self._seal()
        except BaseException:
            self._abort()
            raise
        self._commit.commit(meta={"version_count": self.version_count})
        backend = self.backend
        backend._checksums = self.checksums
        backend.codec = self.codec
        backend._adopt(manifest)
        retire(backend.storage_root, backend._retired)
        backend._retired = []
        if not backend._recover:
            # Entries under superseded checksums would only age out of
            # the LRU; a snapshot handle that writes drops them so the
            # budget is not spent on what no read can reach.
            chunk_cache().invalidate(backend.storage_root)
