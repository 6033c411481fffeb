"""``xarch fsck``: scrub an archive's on-disk state, optionally repair.

The scrub works at the *file* level — it never goes through
:func:`~repro.storage.backend.open_archive`, whose constructor would
silently run WAL recovery and hide exactly the states fsck exists to
report.  It walks manifest ↔ the checksum table the manifest carries ↔
payload files ↔ WAL state ↔ key-spec fingerprint and cross-checks the
manifest's chunk → presence map against actual chunk contents,
emitting one structured :class:`Finding` per problem.  It knows one
layout: a store an earlier release wrote is scrubbed as the manifest
:func:`~repro.storage.legacy.current_manifest` reads it as, and a file
of the older layout that fails its check as it is read is a finding.

Repair (``--repair``) follows one rule: **rebuild everything
derivable, quarantine — never delete — everything that is not**.

* WAL state (pending or torn records, stray ``*.tmp``) → run the
  deterministic recovery of :class:`~repro.storage.wal.WriteAheadLog`;
* the presence map, the manifest and the checksum table are all
  derivable from healthy payloads → rebuilt; every repair of the map
  or the table rewrites the manifest that carries it, and every
  manifest a repair writes is today's, so on a store an earlier
  release wrote it also retires the files of that layout
  (:func:`~repro.storage.legacy.retire`) — a damaged one is repaired
  so; a file of an older layout beside a manifest of today's is debris
  → deleted;
* payload files (chunks, the whole-file archive, the event stream)
  are *not* derivable → a payload that fails its checksum but still
  decodes is re-recorded (stale checksum), one that does not decode is
  moved into ``quarantine/`` and remembered in the table so reads
  raise a typed error instead of serving garbage.

``--deep`` additionally decodes and parses every payload (XML parse
per chunk/file, a full event-stream walk for the external backend), so
corruption that preserves the checksummed bytes-at-rest (a bug, not
bit rot) is still caught.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

from ..core.archive import Archive, ArchiveError
from ..keys.spec import KeySpec
from .archiver import STREAM_NAME
from .backend import (
    MANIFEST_NAME,
    Manifest,
    commit_log,
    detect_backend_kind,
    key_spec_fingerprint,
    keys_location,
    manifest_location,
)
from .chunked import _chunk_presence_of, chunk_files, chunk_index_for_label
from .codec import GZIP, RAW, XBIN, XMILL, Codec, CodecError, get_codec
from .events import IOStats, NodeEvent, read_events
from .integrity import (
    QUARANTINE_DIR,
    ChecksumMismatch,
    ChecksumSidecar,
    IntegrityError,
    TruncatedPayload,
    hash_file,
)
from .legacy import CHECKSUMS_NAME, current_manifest, retire
from .wal import WalError, atomic_write_text

#: Every finding code fsck can emit, with a one-line meaning.
FINDING_CODES = {
    "wal-pending": "an interrupted commit's WAL record is still present",
    "wal-torn": "the WAL record is torn or corrupt (never a committed intent)",
    "stray-tmp": "a staged *.tmp file no WAL record claims",
    "manifest-missing": "the archive has no manifest",
    "manifest-corrupt": "the manifest fails to parse or self-verify",
    "manifest-inconsistent": "the manifest contradicts the files on disk",
    "key-spec-mismatch": "the keys file does not match the manifest fingerprint",
    "checksums-missing": "payloads exist but no checksum table covers them",
    "checksums-corrupt": "the checksums.json of a store from before the "
    "manifest carried the table fails to parse or self-verify",
    "missing-payload": "a checksummed payload is missing on disk",
    "checksum-mismatch": "a payload's bytes do not match their recorded checksum",
    "truncated-payload": "a payload is shorter than its recorded size",
    "unchecksummed": "a payload exists with no recorded checksum",
    "undecodable": "a payload fails to decode or parse",
    "presence-mismatch": "a chunk's recorded presence disagrees with its contents",
    "leftover-sidecar": "a .presence, versions.txt or checksums.json file "
    "beside a manifest that carries what it held",
    "quarantined": "a payload was previously quarantined by fsck --repair",
}


@dataclass
class Finding:
    """One problem the scrub found (and possibly repaired)."""

    code: str
    path: str
    detail: str
    repaired: bool = False
    repair: str = ""

    def __str__(self) -> str:
        line = f"{self.code}: {self.path} — {self.detail}"
        if self.repaired:
            line += f" [repaired: {self.repair}]"
        elif self.repair:
            line += f" [repairable: {self.repair}]"
        return line


@dataclass
class FsckReport:
    """Everything one scrub pass found."""

    path: str
    kind: str
    findings: list[Finding] = field(default_factory=list)
    repair: bool = False
    deep: bool = False

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def unrepaired(self) -> list[Finding]:
        return [finding for finding in self.findings if not finding.repaired]

    def add(self, code: str, path: str, detail: str, repair: str = "") -> Finding:
        finding = Finding(code=code, path=path, detail=detail, repair=repair)
        self.findings.append(finding)
        return finding

    def to_json(self) -> str:
        return json.dumps(
            {
                "path": self.path,
                "kind": self.kind,
                "clean": self.clean,
                "repair": self.repair,
                "deep": self.deep,
                "findings": [
                    {
                        "code": finding.code,
                        "path": finding.path,
                        "detail": finding.detail,
                        "repaired": finding.repaired,
                        "repair": finding.repair,
                    }
                    for finding in self.findings
                ],
            },
            indent=2,
        )

    def __str__(self) -> str:
        lines = [str(finding) for finding in self.findings]
        if self.clean:
            lines.append(f"{self.path}: clean ({self.kind} archive)")
        else:
            repaired = sum(1 for finding in self.findings if finding.repaired)
            summary = f"{self.path}: {len(self.findings)} finding(s)"
            if repaired:
                summary += f", {repaired} repaired"
            lines.append(summary)
        return "\n".join(lines)


def fsck_archive(
    path: "str | os.PathLike",
    *,
    keys_file: "Optional[str | os.PathLike]" = None,
    repair: bool = False,
    deep: bool = False,
) -> FsckReport:
    """Scrub the archive at ``path``; repair derivable damage when asked."""
    path = os.fspath(path)
    if not os.path.exists(path):
        raise ArchiveError(f"No archive at {path!r}")
    try:
        kind = detect_backend_kind(path)
    except IntegrityError:
        # The manifest itself is corrupt — exactly what fsck exists to
        # report.  Fall back to layout sniffing so the scrub can run.
        kind = _sniff_kind(path)
    report = FsckReport(path=path, kind=kind, repair=repair, deep=deep)
    scrubber = _Scrubber(path, kind, report, keys_file=keys_file)
    scrubber.run()
    return report


def _sniff_kind(path: str) -> str:
    """Layout-only kind detection (never trusts the manifest): an
    ``archive.jsonl`` stream is external, chunk files are chunked, a
    plain file is a whole-file archive."""
    if os.path.isfile(path):
        return "file"
    if os.path.exists(os.path.join(path, STREAM_NAME)):
        return "external"
    if (
        os.path.exists(keys_location(path))
        # A pending commit log means a chunked archive crashed
        # mid-publish before its manifest landed.
        or os.path.exists(os.path.join(path, "wal.json"))
        or chunk_files(path)
    ):
        return "chunked"
    raise ArchiveError(f"{path!r} is not an archive directory")


def detect_codec(prefix: bytes) -> Codec:
    """The codec whose magic opens ``prefix`` (raw when none matches).

    A gzip-framed *stream* written by the ``xmill`` or ``xbin`` codec
    sniffs as ``gzip`` — harmless, since all three share the
    framed-gzip text path; documents carry the unambiguous XMill/xbin
    magic.
    """
    for codec in (XBIN, XMILL, GZIP):
        if codec.magic and prefix.startswith(codec.magic):
            return codec
    return RAW


#: Largest chunk count ``--repair`` will consider when the manifest that
#: recorded it is gone.
_CHUNK_COUNT_SEARCH = 256


def _derive_manifest(
    path: str, kind: str, spec: Optional[KeySpec]
) -> Optional[Manifest]:
    """The manifest ``--repair`` writes for a store that lost its own,
    or ``None`` when the stored bytes do not settle it.

    Opening an archive never guesses: the manifest names kind, codec
    and chunk count, and every door refuses a store without one.  This
    is the one place they are read back off the payloads, in one decode
    pass: the codec from the first payload's magic bytes, the version
    count from the stored roots and, of a chunked store, the presence
    map and the chunk count.  The highest chunk file only bounds that
    count from below — records hash to chunks, so the last chunks of a
    small archive are often empty.  A candidate count fits when every
    stored top-level record routes, under it, to the chunk file that
    holds it; the answer is the one candidate that fits, and anything
    else (no records to test, several fits, a chunk that does not
    decode, no key specification) is not guessed at.
    """
    fingerprint = key_spec_fingerprint(spec) if spec is not None else ""
    try:
        if kind == "external":
            stream = os.path.join(path, STREAM_NAME)
            with open(stream, "rb") as handle:
                codec = detect_codec(handle.read(8))
            root = next(read_events(stream, IOStats(), codec))
            if not isinstance(root, NodeEvent) or root.timestamp is None:
                return None
            return Manifest(kind, fingerprint, root.timestamp.max_version(), codec.name)
        if spec is None:
            return None
        files = {0: path}  # a whole file: its presence and labels go unused
        if kind == "chunked":
            files = {
                index: os.path.join(path, name)
                for index, name in chunk_files(path).items()
            }
        codec, version_count = None, 0
        presence: dict[str, str] = {}
        routed: list[tuple[int, object]] = []  # (chunk, label) of every record
        for index, full in sorted(files.items()):
            with open(full, "rb") as handle:
                data = handle.read()
            codec = codec or detect_codec(data)
            tree = Archive.from_xml_string(codec.decode_document(data), spec)
            version_count = max(version_count, tree.last_version)
            presence[str(index)] = _chunk_presence_of(tree).to_text()
            for shell in tree.root.children:
                routed.extend((index, record.label) for record in shell.children)
    except (CodecError, ValueError, OSError, EOFError, StopIteration):
        return None
    if kind == "file":
        return Manifest(kind, fingerprint, version_count, codec.name)
    fits = [
        count
        for count in range(max(files, default=-1) + 1, _CHUNK_COUNT_SEARCH + 1)
        if all(chunk_index_for_label(label, count) == index for index, label in routed)
    ]
    if not routed or len(fits) != 1:
        return None
    extra = {"chunk_count": fits[0], "presence": presence}
    return Manifest(kind, fingerprint, version_count, codec.name, extra=extra)


#: The finding code of an older layout's file that failed its check as
#: it was read, by the error it raised (any other: ``undecodable``).
_DAMAGE_CODES = {
    TruncatedPayload: "truncated-payload",
    ChecksumMismatch: "checksum-mismatch",
}


class _Scrubber:
    """One scrub pass's working state."""

    def __init__(
        self,
        path: str,
        kind: str,
        report: FsckReport,
        keys_file: "Optional[str | os.PathLike]" = None,
    ) -> None:
        self.path = path
        self.kind = kind
        self.report = report
        self.repair = report.repair
        self.deep = report.deep
        self.directory = path if os.path.isdir(path) else os.path.dirname(path)
        self.is_dir = os.path.isdir(path)
        #: The manifest as today's layout reads it
        #: (:func:`~repro.storage.legacy.current_manifest`).
        self.manifest: Optional[Manifest] = None
        #: Whether the manifest on disk is of an older layout.
        self.upgraded = False
        #: The files of an older layout that the manifest replaces.
        self.retired: list[str] = []
        #: Findings on those files, repaired by the next manifest write.
        self.stale: list[Finding] = []
        #: The checksum table (``None`` while none is recorded anywhere).
        self.table: Optional[ChecksumSidecar] = None
        #: The payloads' codec, by name (``None`` while no manifest names it).
        self.codec: Optional[str] = None
        self.keys_path = (
            os.fspath(keys_file) if keys_file is not None else keys_location(path)
        )
        #: The key specification the keys file holds (``None`` when it is
        #: missing or does not parse), and why it did not parse.
        self.spec: Optional[KeySpec] = None
        self.spec_error: Optional[str] = None

    # -- helpers -----------------------------------------------------------

    def _load_keys(self) -> None:
        """Read and parse the keys file, the one time the scrub does."""
        from ..keys.keyparser import parse_key_spec

        try:
            with open(self.keys_path, "r", encoding="utf-8") as handle:
                self.spec = parse_key_spec(handle.read())
        except OSError:
            pass  # no keys file: nothing to check it against or derive with
        except ValueError as error:
            self.spec_error = str(error)

    def _rel(self, full: str) -> str:
        return os.path.relpath(full, self.directory) if self.is_dir else (
            os.path.basename(full)
        )

    def _payload_files(self) -> list[str]:
        """The archive's payload files (absolute paths)."""
        if self.kind == "file":
            names = [self.path]
        elif self.kind == "external":
            names = [os.path.join(self.path, STREAM_NAME)]
        else:
            names = [
                os.path.join(self.path, name)
                for name in sorted(chunk_files(self.path).values())
            ]
        return [full for full in names if os.path.isfile(full)]

    def _quarantine(self, full: str, finding: Finding) -> None:
        """Move an unrepairable payload aside — never delete it."""
        name = os.path.basename(full)
        if not self.repair:
            finding.repair = "quarantine the payload"
            return
        quarantine = os.path.join(self.directory, QUARANTINE_DIR)
        os.makedirs(quarantine, exist_ok=True)
        target = os.path.join(quarantine, name)
        suffix = 0
        while os.path.exists(target):
            suffix += 1
            target = os.path.join(quarantine, f"{name}.{suffix}")
        os.replace(full, target)
        if self.table is not None:
            self.table.quarantine(name)
            self._record_table()
        finding.repaired = True
        finding.repair = f"moved to {os.path.relpath(target, self.directory)}"

    def _decodes(self, full: str) -> bool:
        """Whether a payload decodes (and parses) under the codec."""
        name = os.path.basename(full)
        try:
            if name == STREAM_NAME:
                for _ in read_events(full, IOStats(), self.codec):
                    pass
            else:  # chunk files and the whole-file archive: XML payloads
                from ..xmltree.parser import parse_document

                with open(full, "rb") as handle:
                    data = handle.read()
                parse_document(get_codec(self.codec).decode_document(data))
        except (
            IntegrityError,
            CodecError,
            ValueError,
            OSError,
            UnicodeDecodeError,
            EOFError,
        ):
            return False
        return True

    # -- the pass ----------------------------------------------------------

    def run(self) -> None:
        self._scrub_wal()
        self._load_keys()  # after recovery, which may publish the keys file
        self._load_manifest()
        self._scrub_key_spec()
        self._scrub_payloads()
        self._scrub_retired()
        if self.kind == "chunked":
            self._scrub_chunked()
        if self.kind == "external":
            self._scrub_external()

    def _scrub_wal(self) -> None:
        wal, stray_tmps = commit_log(self.path)
        torn = False
        record = None
        try:
            record = wal.read_record()
        except WalError as error:
            torn = True
            finding = self.report.add(
                "wal-torn",
                self._rel(wal.path),
                str(error),
                repair="discard the record and roll staged files back",
            )
            if self.repair:
                wal.recover(stray_tmps=stray_tmps)
                finding.repaired = True
                finding.repair = "discarded; staged files rolled back"
        if record is not None:
            finding = self.report.add(
                "wal-pending",
                self._rel(wal.path),
                f"interrupted commit of {len(record.get('entries', []))} "
                f"file(s) awaiting recovery",
                repair="run WAL recovery (roll back or forward)",
            )
            if self.repair:
                outcome = wal.recover(stray_tmps=stray_tmps)
                finding.repaired = True
                finding.repair = f"recovered ({outcome})"
                # The manifest may have just changed on disk.
        if record is None and not torn:
            for tmp in stray_tmps:
                if not os.path.exists(tmp):
                    continue
                finding = self.report.add(
                    "stray-tmp",
                    self._rel(tmp),
                    "staged file with no commit record (crash mid-stage)",
                    repair="remove the unclaimed staging file",
                )
                if self.repair:
                    os.remove(tmp)
                    finding.repaired = True
                    finding.repair = "removed"

    def _load_manifest(self) -> None:
        location = manifest_location(self.path)
        try:
            with open(location, "rb") as handle:
                on_disk = Manifest.from_json(handle.read().decode("utf-8"))
        except FileNotFoundError:
            code = "manifest-missing"
            detail = "archive carries no manifest (legacy layout or deleted)"
        except (ArchiveError, UnicodeDecodeError) as error:
            code, detail = "manifest-corrupt", str(error)
        else:
            self.codec = on_disk.codec
            if on_disk.kind != self.kind:
                self.report.add(
                    "manifest-inconsistent",
                    self._rel(location),
                    f"manifest says kind {on_disk.kind!r}, layout is "
                    f"{self.kind!r}",
                )
            self._read_as_today(on_disk)
            return
        finding = self.report.add(
            code, self._rel(location), detail, repair="rebuild from the archive's files"
        )
        if self.repair:
            self._rebuild_manifest(finding)

    def _read_as_today(self, on_disk: Manifest) -> None:
        """Take the manifest as today's layout reads it, and its table.

        A damaged file of an older layout is a finding as it is read:
        the old checksum table is rebuilt from the payloads, any other
        is left out and retired by the next manifest write.  A store
        with payloads and no table anywhere is reported too."""
        damaged: dict[str, IntegrityError] = {}
        self.manifest, self.retired = current_manifest(
            self.path, on_disk, damaged.__setitem__
        )
        self.upgraded = self.manifest != on_disk
        self.table = self.manifest.checksum_table()
        for name, error in damaged.items():
            if name == CHECKSUMS_NAME:
                code, repair = "checksums-corrupt", "rebuild from the payloads on disk"
            else:
                code = _DAMAGE_CODES.get(type(error), "undecodable")
                repair = "retire it with today's manifest"
            finding = self.report.add(code, name, str(error), repair=repair)
            self.stale.append(finding)
            if self.repair and name == CHECKSUMS_NAME:
                self._rebuild_table(finding)
        missing = self.table is None and CHECKSUMS_NAME not in damaged
        if missing and self._payload_files():
            finding = self.report.add(
                "checksums-missing",
                self._rel(manifest_location(self.path)),
                "payloads exist with no checksum table (pre-integrity "
                "archive)",
                repair="record the table in the manifest, from the payloads "
                "on disk",
            )
            if self.repair:
                self._rebuild_table(finding)

    def _rebuild_manifest(self, finding: Finding) -> None:
        """Write the manifest the payloads still prove
        (:func:`_derive_manifest`), with their checksum table."""
        rebuilt = _derive_manifest(self.path, self.kind, self.spec)
        if rebuilt is None:
            counts = "version or chunk" if self.kind == "chunked" else "version"
            finding.repair = f"unrepairable: {counts} count not derivable"
            return
        self.codec = rebuilt.codec
        # The table went with the manifest, unless an older layout kept
        # it beside; what is damaged there is not trusted.
        self.manifest, self.retired = current_manifest(
            self.path, rebuilt, lambda name, error: None
        )
        self.table = self.manifest.checksum_table() or self._table_of_payloads()
        self._record_table()
        finding.repaired = True
        finding.repair = f"rebuilt ({self.kind}, {rebuilt.version_count} version(s))"

    def _table_of_payloads(self) -> ChecksumSidecar:
        """A table covering every payload on disk that decodes."""
        table = ChecksumSidecar()
        for full in self._payload_files():
            if self._decodes(full):
                table.record_file(os.path.basename(full), full)
        return table

    def _rebuild_table(self, finding: Finding) -> None:
        self.table = self._table_of_payloads()
        if self._record_table():
            finding.repaired = True
            finding.repair = f"rebuilt covering {len(self.table.entries)} payload(s)"

    def _record_table(self) -> bool:
        """Write the table into the manifest, as every repair of it
        does, under the next generation: a reader pinned to the one
        before must not be handed the repaired store under the same
        key.  The manifest written is today's, so the files of an older
        layout it replaces are retired with it, and every finding on
        them is repaired.  Whether there was a manifest to carry it."""
        if self.manifest is None or self.table is None:
            return False
        self.manifest.checksums = dict(self.table.entries)
        self.manifest.quarantined = sorted(self.table.quarantined)
        self.manifest.generation += 1
        atomic_write_text(manifest_location(self.path), self.manifest.to_json())
        retire(self.path, self.retired)
        for finding in self.stale:
            if not finding.repaired:
                finding.repaired = True
                finding.repair = "retired with today's manifest"
        return True

    def _rerecord(self, name: str, full: str) -> bool:
        """Record what a payload that decodes hashes to now."""
        assert self.table is not None
        self.table.record_file(name, full)
        return self._record_table()

    def _scrub_key_spec(self) -> None:
        if self.manifest is None or not self.manifest.key_spec_hash:
            return
        if self.spec_error is not None:
            detail = f"keys file does not parse: {self.spec_error}"
        elif self.spec is None:
            return
        elif key_spec_fingerprint(self.spec) != self.manifest.key_spec_hash:
            detail = (
                "keys file fingerprint differs from the manifest's "
                "(wrong or edited keys file)"
            )
        else:
            return
        self.report.add("key-spec-mismatch", self._rel(self.keys_path), detail)

    def _scrub_payloads(self) -> None:
        """Hash every payload against its recorded checksum."""
        on_disk = {os.path.basename(full): full for full in self._payload_files()}
        entries: dict[str, dict] = {}
        if self.table is not None:
            entries = self.table.entries
            for name in sorted(self.table.quarantined):
                self.report.add(
                    "quarantined",
                    name,
                    "payload was moved aside by an earlier fsck --repair",
                )
        for name in sorted(set(entries) | set(on_disk)):
            full = on_disk.get(name)
            expected = entries.get(name)
            if expected is None:
                if self.table is not None:
                    finding = self.report.add(
                        "unchecksummed",
                        name,
                        "payload has no recorded checksum",
                        repair="record its checksum (after verifying it decodes)",
                    )
                    if not self.repair:
                        continue
                    if not self._decodes(full):
                        self._quarantine(full, finding)
                    elif self._rerecord(name, full):
                        finding.repaired = True
                        finding.repair = "checksum recorded"
                continue
            if full is None:
                finding = self.report.add(
                    "missing-payload",
                    name,
                    "recorded in the checksum table but missing on disk "
                    "(deleted or lost)",
                    repair="forget the entry (the data itself is unrecoverable)",
                )
                if self.repair and self.table is not None:
                    self.table.forget(name)
                    if self._record_table():
                        finding.repaired = True
                        finding.repair = "entry forgotten; payload remains lost"
                continue
            digest, size = hash_file(full)
            if digest == expected.get("sha256"):
                if self.deep and not self._decodes(full):
                    finding = self.report.add(
                        "undecodable",
                        name,
                        "checksum matches but the payload does not decode "
                        "(written corrupt)",
                    )
                    self._quarantine(full, finding)
                continue
            recorded_size = expected.get("bytes")
            if isinstance(recorded_size, int) and size < recorded_size:
                code, detail = (
                    "truncated-payload",
                    f"{size} of {recorded_size} recorded bytes on disk",
                )
            else:
                code, detail = (
                    "checksum-mismatch",
                    f"sha256 {digest[:12]}… differs from recorded "
                    f"{str(expected.get('sha256'))[:12]}…",
                )
            finding = self.report.add(
                code,
                name,
                detail,
                repair="re-record if it decodes, quarantine otherwise",
            )
            if not self.repair:
                continue
            if not self._decodes(full):
                self._quarantine(full, finding)
            elif self._rerecord(name, full):
                finding.repaired = True
                finding.repair = "payload decodes; checksum re-recorded"

    # -- backend-specific cross-checks -------------------------------------

    def _chunk_archives(self):
        """``(index, decoded tree)`` of every chunk file that decodes;
        the others are the hash pass's to report."""
        codec = get_codec(self.codec)
        for index, name in sorted(chunk_files(self.path).items()):
            try:
                with open(os.path.join(self.path, name), "rb") as handle:
                    text = codec.decode_document(handle.read())
                yield index, Archive.from_xml_string(text, self.spec)
            except (CodecError, ValueError, OSError, EOFError):
                continue

    def _scrub_chunked(self) -> None:
        """Cross-check the manifest's presence map against chunk
        contents."""
        if self.spec is None or self.manifest is None:
            return
        mapped = self.manifest.extra.get("presence", {})
        presence = dict(mapped)  # what a repair records
        stale = []
        for index, archive in self._chunk_archives():
            derived = presence[str(index)] = _chunk_presence_of(archive).to_text()
            recorded = mapped.get(str(index))
            if recorded != derived:
                stale.append(
                    self.report.add(
                        "presence-mismatch",
                        MANIFEST_NAME,
                        f"chunk {index} is recorded present at {recorded!r}, "
                        f"its contents say {derived!r}",
                        repair="rewrite the presence map from the chunks' contents",
                    )
                )
        if stale and self.repair:
            self._rewrite_presence(presence, stale)

    def _scrub_retired(self) -> None:
        """Files of an older layout beside a manifest of today's are
        debris: nothing reads them.  ``--repair`` deletes them, as the
        next write-capable open would, and retires a damaged one beside
        an older manifest, by writing today's."""
        if self.manifest is None:
            return
        debris = () if self.upgraded else self.retired
        for name in debris:
            if os.path.exists(os.path.join(self.directory, name)):
                self.stale.append(
                    self.report.add(
                        "leftover-sidecar",
                        name,
                        "the manifest carries what this file held; nothing reads it",
                        repair="delete it",
                    )
                )
        if self.repair and not all(finding.repaired for finding in self.stale):
            self._record_table()

    def _rewrite_presence(self, presence: dict, findings: list) -> None:
        """Publish ``presence`` as the manifest's map."""
        assert self.manifest is not None and self.table is not None
        self.manifest.extra["presence"] = presence
        self._record_table()
        for finding in findings:
            finding.repaired = True
            finding.repair = "presence map rewritten from the chunks' contents"

    def _scrub_external(self) -> None:
        """Deep-walk the event stream so structural damage is caught."""
        if not self.deep:
            return
        stream = os.path.join(self.path, STREAM_NAME)
        if not os.path.exists(stream):
            return
        codec = self.codec
        if codec is None:  # no usable manifest: the stream's magic names it
            with open(stream, "rb") as handle:
                codec = detect_codec(handle.read(8)).name
        try:
            for _ in read_events(stream, IOStats(), codec):
                pass
        except IntegrityError as error:
            self.report.add(
                "undecodable", self._rel(stream), str(error),
                repair="quarantine the stream",
            )
