"""Persistent archive storage: one protocol, two engines, three
backend kinds, one transaction.

:class:`StorageBackend` (``backend.py``) is the contract every
persistence path implements — the key-hash :class:`ChunkedArchiver`
(Sec. 5), whose one-chunk layout is the whole-file
:class:`FileBackend`, and the event-stream :class:`ExternalArchiver`
(Sec. 6) — behind a self-describing manifest (:func:`open_archive`
reads backend and codec from it).  Every write of every backend,
creation included, is one :class:`ArchiveTxn` (``txn.py``) over the
write-ahead commit log of ``wal.py``: payloads and the manifest, which
carries their checksum table, publish together or not at all.  The
external-memory machinery keeps its own modules: event-stream files
with I/O accounting, bounded-memory sorted runs with k-way merging and
the one-pass stream merge.
"""

from .archiver import ExternalArchiver
from .backend import (
    BACKEND_KINDS,
    Manifest,
    RecodeReport,
    StorageBackend,
    create_archive,
    detect_backend_kind,
    key_spec_fingerprint,
    keys_location,
    manifest_location,
    open_archive,
    read_manifest,
)
from .chunked import (
    ChunkedArchiver,
    ChunkedArchiverError,
    FileBackend,
    restore_key_order,
)
from .codec import (
    CODEC_NAMES,
    CODECS,
    Codec,
    CodecError,
    GzipCodec,
    RawCodec,
    XMillCodec,
    get_codec,
)
from .events import (
    DEFAULT_PAGE_SIZE,
    EventWriter,
    ExitEvent,
    FrontierEvent,
    IOStats,
    NodeEvent,
    PeekableEvents,
    decode_event,
    encode_event,
    read_events,
)
from .extmerge import StreamMergeError, merge_archive_stream
from .extsort import merge_event_streams, sort_version, write_sorted_runs
from .faults import CrashPoint, FaultInjector, inject
from .fsck import FINDING_CODES, Finding, FsckReport, fsck_archive
from .integrity import (
    QUARANTINE_DIR,
    ChecksumMismatch,
    ChecksumSidecar,
    IntegrityError,
    ManifestInconsistent,
    TruncatedPayload,
)
from .legacy import CHECKSUMS_NAME
from .txn import ArchiveTxn
from .wal import Commit, WalError, WriteAheadLog, atomic_write_text

__all__ = [
    "ArchiveTxn",
    "BACKEND_KINDS",
    "CHECKSUMS_NAME",
    "CODECS",
    "CODEC_NAMES",
    "Codec",
    "CodecError",
    "ChecksumMismatch",
    "ChecksumSidecar",
    "CrashPoint",
    "DEFAULT_PAGE_SIZE",
    "ChunkedArchiver",
    "ChunkedArchiverError",
    "Commit",
    "FINDING_CODES",
    "FaultInjector",
    "Finding",
    "FsckReport",
    "GzipCodec",
    "IntegrityError",
    "ManifestInconsistent",
    "QUARANTINE_DIR",
    "RawCodec",
    "RecodeReport",
    "TruncatedPayload",
    "XMillCodec",
    "EventWriter",
    "ExitEvent",
    "ExternalArchiver",
    "FileBackend",
    "FrontierEvent",
    "IOStats",
    "Manifest",
    "NodeEvent",
    "PeekableEvents",
    "StorageBackend",
    "StreamMergeError",
    "WalError",
    "WriteAheadLog",
    "atomic_write_text",
    "create_archive",
    "decode_event",
    "detect_backend_kind",
    "encode_event",
    "fsck_archive",
    "get_codec",
    "inject",
    "key_spec_fingerprint",
    "keys_location",
    "manifest_location",
    "merge_archive_stream",
    "merge_event_streams",
    "open_archive",
    "read_events",
    "read_manifest",
    "restore_key_order",
    "sort_version",
    "write_sorted_runs",
]
