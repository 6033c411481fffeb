"""``xarch fsck``: scrub an archive's on-disk state, optionally repair.

The scrub works at the *file* level — it never goes through
:func:`~repro.storage.backend.open_archive`, whose constructor would
silently run WAL recovery and hide exactly the states fsck exists to
report.  It walks manifest ↔ payload files ↔ checksum sidecar ↔ WAL
state ↔ key-spec fingerprint and cross-checks the manifest's chunk →
presence map (on a store from before the map: the ``.presence``
sidecars) against actual chunk contents, emitting one structured
:class:`Finding` per problem.

Repair (``--repair``) follows one rule: **rebuild everything
derivable, quarantine — never delete — everything that is not**.

* WAL state (pending or torn records, stray ``*.tmp``) → run the
  deterministic recovery of :class:`~repro.storage.wal.WriteAheadLog`;
* the presence map, the manifest and the checksum sidecar are all
  derivable from healthy payloads → rebuilt (the map through an
  :class:`~repro.storage.txn.ArchiveTxn`, which on a store from before
  the map also retires its sidecars and ``versions.txt``); a sidecar
  left beside a manifest that carries the map is debris → deleted;
* payload files (chunks, the whole-file archive, the event stream)
  are *not* derivable → a payload that fails its checksum but still
  decodes is re-recorded (stale checksum), one that does not decode is
  moved into ``quarantine/`` and remembered in the sidecar so reads
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
from typing import Callable, Optional

from ..core.archive import ArchiveError
from .backend import (
    MANIFEST_NAME,
    Manifest,
    commit_log,
    detect_backend_kind,
    key_spec_fingerprint,
    keys_location,
    manifest_location,
)
from .codec import GZIP, RAW, XBIN, XMILL, Codec, CodecError, get_codec
from .integrity import (
    CHECKSUMS_NAME,
    QUARANTINE_DIR,
    ChecksumSidecar,
    IntegrityError,
    hash_file,
)
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
    "checksums-missing": "payloads exist but no checksum sidecar covers them",
    "checksums-corrupt": "the checksum sidecar fails to parse or self-verify",
    "missing-payload": "a checksummed payload is missing on disk",
    "checksum-mismatch": "a payload's bytes do not match their recorded checksum",
    "truncated-payload": "a payload is shorter than its recorded size",
    "unchecksummed": "a payload exists with no recorded checksum",
    "undecodable": "a payload fails to decode or parse",
    "presence-mismatch": "a chunk's recorded presence disagrees with its contents",
    "leftover-sidecar": "a .presence or versions.txt file beside a manifest "
    "that carries the presence map",
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


# -- what the files themselves still say --------------------------------------
#
# Opening an archive never guesses: the manifest names kind, codec and
# chunk count, and a path without one is refused.  Rebuilding a lost or
# corrupt manifest is the one place these are read back off the layout
# and the payloads' magic bytes.


def _sniff_kind(path: str) -> str:
    """Layout-only kind detection (never trusts the manifest): an
    ``archive.jsonl`` stream is external, chunk files are chunked, a
    plain file is a whole-file archive."""
    if os.path.isfile(path):
        return "file"
    if os.path.exists(os.path.join(path, "archive.jsonl")):
        return "external"
    if (
        os.path.exists(os.path.join(path, CHECKSUMS_NAME))
        or os.path.exists(os.path.join(path, "versions.txt"))
        # A pending commit log means a chunked archive crashed
        # mid-publish before its manifest landed.
        or os.path.exists(os.path.join(path, "wal.json"))
        or _chunk_files(path)
    ):
        return "chunked"
    raise ArchiveError(f"{path!r} is not an archive directory")


def _is_sidecar(name: str) -> bool:
    """A file of the chunked layout from before the manifest carried
    the presence map and the version count alone."""
    return name.endswith(".presence") or name == "versions.txt"


def _chunk_files(path: str) -> dict[int, str]:
    """Chunk index -> file name, of the chunk files in a directory."""
    found = {}
    for name in os.listdir(path):
        if name.startswith("chunk-") and name.endswith(".xml"):
            try:
                found[int(name[len("chunk-") : -len(".xml")])] = name
            except ValueError:
                continue
    return found


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


def sniff_codec(path: str) -> Codec:
    """Detect the codec of an existing payload file by its leading bytes."""
    try:
        with open(os.fspath(path), "rb") as handle:
            return detect_codec(handle.read(8))
    except (FileNotFoundError, IsADirectoryError):
        return RAW


def _sniff_backend_codec(path: str, kind: str) -> Codec:
    """Codec of a manifest-less archive, from its payload magic bytes."""
    if kind == "file":
        return sniff_codec(path)
    if kind == "external":
        return sniff_codec(os.path.join(path, "archive.jsonl"))
    names = sorted(_chunk_files(path).values())
    return sniff_codec(os.path.join(path, names[0])) if names else RAW


#: Largest chunk count ``--repair`` will consider when the manifest that
#: recorded it is gone.
_CHUNK_COUNT_SEARCH = 256


def _derive_chunk_count(path: str, codec: Codec, spec) -> Optional[int]:
    """The chunk count a manifest-less chunked directory was written
    with, or ``None`` when the stored records do not settle it.

    The highest chunk file only bounds it from below — records hash to
    chunks, so the last chunks of a small archive are often empty.  A
    candidate count fits when every stored top-level record routes,
    under it, to the chunk file that holds it; the answer is the one
    candidate that fits, and anything else (no records to test, several
    fits, no key specification) is not guessed at.
    """
    from ..core.archive import Archive
    from .chunked import chunk_index_for_label

    chunks = _chunk_files(path)
    if spec is None or not chunks:
        return None
    stored: list[tuple[int, object]] = []
    try:
        for index, name in chunks.items():
            with open(os.path.join(path, name), "rb") as handle:
                text = codec.decode_document(handle.read())
            for shell in Archive.from_xml_string(text, spec).root.children:
                stored.extend((index, record.label) for record in shell.children)
    except (CodecError, ValueError, OSError, EOFError):
        return None
    fits = [
        count
        for count in range(max(chunks) + 1, _CHUNK_COUNT_SEARCH + 1)
        if all(chunk_index_for_label(label, count) == index for index, label in stored)
    ]
    return fits[0] if stored and len(fits) == 1 else None


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
        self.keys_file = os.fspath(keys_file) if keys_file is not None else None
        self.directory = path if os.path.isdir(path) else os.path.dirname(path)
        self.is_dir = os.path.isdir(path)
        self.manifest: Optional[Manifest] = None
        self.sidecar: Optional[ChecksumSidecar] = None
        self.codec = None
        #: ``(name, Codec)`` cache behind :meth:`_payload_codec` — the
        #: registry is consulted once per codec name, not once per
        #: payload decoded.
        self._resolved_codec = None
        #: Set when a repair changed the sidecar; it republishes once.
        self._sidecar_dirty = False

    # -- helpers -----------------------------------------------------------

    def _payload_codec(self):
        """The resolved :class:`~repro.storage.codec.Codec` for
        ``self.codec``, cached until the name changes (a manifest
        rebuild or sniff mid-run invalidates it)."""
        if self._resolved_codec is None or self._resolved_codec[0] != self.codec:
            self._resolved_codec = (self.codec, get_codec(self.codec))
        return self._resolved_codec[1]

    @property
    def _mapped(self) -> bool:
        """Whether the manifest carries the chunk -> presence map — and
        with it the version count alone: no file beside it does then."""
        return self.manifest is not None and "presence" in self.manifest.extra

    def _rel(self, full: str) -> str:
        return os.path.relpath(full, self.directory) if self.is_dir else (
            os.path.basename(full)
        )

    def _payload_files(self) -> list[str]:
        """The archive's payload files (absolute paths)."""
        if self.kind == "file":
            return [self.path] if os.path.isfile(self.path) else []
        names = sorted(os.listdir(self.path))
        payloads = []
        for name in names:
            full = os.path.join(self.path, name)
            if not os.path.isfile(full):
                continue
            if self.kind == "chunked" and (
                (name.startswith("chunk-") and name.endswith(".xml"))
                or (_is_sidecar(name) and not self._mapped)
            ):
                payloads.append(full)
            elif self.kind == "external" and name == "archive.jsonl":
                payloads.append(full)
        return payloads

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
        if self.sidecar is not None:
            self.sidecar.quarantine(name)
            self._sidecar_dirty = True
        finding.repaired = True
        finding.repair = f"moved to {os.path.relpath(target, self.directory)}"

    def _decodes(self, full: str) -> bool:
        """Whether a payload decodes (and parses) under the codec."""
        name = os.path.basename(full)
        try:
            if name.endswith(".presence"):
                from ..core.versionset import VersionSet

                with open(full, "r", encoding="utf-8") as handle:
                    VersionSet.parse(handle.read())
            elif name == "versions.txt":
                with open(full, "r", encoding="utf-8") as handle:
                    int(handle.read().strip() or "0")
            elif name == "archive.jsonl":
                from .events import IOStats, read_events

                for _ in read_events(full, IOStats(), self.codec):
                    pass
            else:  # chunk files and the whole-file archive: XML payloads
                from ..xmltree.parser import parse_document

                with open(full, "rb") as handle:
                    data = handle.read()
                parse_document(self._payload_codec().decode_document(data))
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
        self._load_manifest()
        if self.codec is None:
            # No (usable) manifest: fall back to payload magic bytes so
            # decode checks don't misclassify healthy encoded payloads.
            self.codec = self._sniff_codec()
        self._load_sidecar()
        self._scrub_key_spec()
        self._scrub_payloads()
        if self.kind == "chunked":
            self._scrub_chunked()
        if self.kind == "external":
            self._scrub_external()
        self._flush_sidecar()

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
                # The manifest/sidecar may have just changed on disk.
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
                raw = handle.read()
        except FileNotFoundError:
            finding = self.report.add(
                "manifest-missing",
                self._rel(location),
                "archive carries no manifest (legacy layout or deleted)",
                repair="rebuild from the archive's files",
            )
            if self.repair:
                self._rebuild_manifest(finding)
            return
        try:
            self.manifest = Manifest.from_json(raw.decode("utf-8"))
        except (ArchiveError, UnicodeDecodeError) as error:
            finding = self.report.add(
                "manifest-corrupt",
                self._rel(location),
                str(error),
                repair="rebuild from the archive's files",
            )
            if self.repair:
                self._rebuild_manifest(finding)
            return
        self.codec = self.manifest.codec
        if self.manifest.kind != self.kind:
            self.report.add(
                "manifest-inconsistent",
                self._rel(location),
                f"manifest says kind {self.manifest.kind!r}, layout is "
                f"{self.kind!r}",
            )

    def _rebuild_manifest(self, finding: Finding) -> None:
        """Best-effort manifest reconstruction from derivable state."""
        codec = self.codec = self._sniff_codec()
        version_count = self._derive_version_count(codec)
        if version_count is None:
            finding.repair = "unrepairable: version count not derivable"
            return
        spec_hash = ""
        keys_path = self.keys_file or keys_location(self.path)
        if os.path.exists(keys_path):
            from ..keys.keyparser import parse_key_spec

            try:
                with open(keys_path, "r", encoding="utf-8") as handle:
                    spec_hash = key_spec_fingerprint(parse_key_spec(handle.read()))
            except ValueError:
                spec_hash = ""
        extra: dict = {}
        if self.kind == "chunked":
            from .chunked import _chunk_presence_of

            spec = self._load_spec()
            chunk_count = _derive_chunk_count(self.path, get_codec(codec), spec)
            if chunk_count is None:
                finding.repair = "unrepairable: chunk count not derivable"
                return
            extra["chunk_count"] = chunk_count
            extra["presence"] = {
                str(index): _chunk_presence_of(archive).to_text()
                for index, archive in self._chunk_archives(spec)
            }
        manifest = Manifest(
            kind=self.kind,
            key_spec_hash=spec_hash,
            version_count=version_count,
            codec=codec,
            extra=extra,
        )
        text = manifest.to_json()
        atomic_write_text(manifest_location(self.path), text)
        self.manifest = manifest
        self.codec = codec
        if self.sidecar is not None:
            self.sidecar.record(MANIFEST_NAME, text.encode("utf-8"))
            self._sidecar_dirty = True
        else:
            self._sidecar_dirty = True  # flushed after the sidecar loads
        finding.repaired = True
        finding.repair = f"rebuilt ({self.kind}, {version_count} version(s))"

    def _sniff_codec(self) -> str:
        try:
            return _sniff_backend_codec(self.path, self.kind).name
        except (OSError, ValueError):
            return "raw"

    def _derive_version_count(self, codec: str) -> Optional[int]:
        try:
            if self.kind == "chunked":
                meta = os.path.join(self.path, "versions.txt")
                if os.path.exists(meta):  # a store from before the map
                    with open(meta, "r", encoding="utf-8") as handle:
                        return int(handle.read().strip() or "0")
                # Every chunk shares the global numbering.
                spec = self._load_spec()
                if spec is None:
                    return None
                counts = [
                    archive.last_version
                    for _, archive in self._chunk_archives(spec)
                ]
                if counts:
                    return max(counts)
                return None if _chunk_files(self.path) else 0
            if self.kind == "external":
                from .events import IOStats, NodeEvent, read_events

                stream = os.path.join(self.path, "archive.jsonl")
                root = next(iter(read_events(stream, IOStats(), codec)))
                if isinstance(root, NodeEvent) and root.timestamp is not None:
                    return root.timestamp.max_version()
                return None
            # file: parse the archive root's timestamp attribute
            from ..core.archive import Archive
            from ..keys.keyparser import parse_key_spec

            keys_path = self.keys_file or keys_location(self.path)
            with open(keys_path, "r", encoding="utf-8") as handle:
                spec = parse_key_spec(handle.read())
            with open(self.path, "rb") as handle:
                text = get_codec(codec).decode_document(handle.read())
            return Archive.from_xml_string(text, spec).last_version
        except (OSError, ValueError, EOFError, StopIteration):
            return None

    def _load_sidecar(self) -> None:
        if self.kind == "file":
            return  # the whole-file backend records its checksum in the manifest
        location = os.path.join(self.path, CHECKSUMS_NAME)
        try:
            self.sidecar = ChecksumSidecar.load(location)
        except IntegrityError as error:
            finding = self.report.add(
                "checksums-corrupt",
                self._rel(location),
                str(error),
                repair="rebuild from the payloads on disk",
            )
            self.sidecar = ChecksumSidecar(location)
            if self.repair:
                self._rebuild_sidecar(finding)
            return
        if not self.sidecar.present and self._payload_files():
            finding = self.report.add(
                "checksums-missing",
                self._rel(location),
                "payloads exist with no checksum sidecar (pre-integrity "
                "archive)",
                repair="build the sidecar from the payloads on disk",
            )
            if self.repair:
                self._rebuild_sidecar(finding)

    def _rebuild_sidecar(self, finding: Finding) -> None:
        assert self.sidecar is not None
        rebuilt = 0
        for full in self._payload_files():
            if self._decodes(full):
                digest, size = hash_file(full)
                self.sidecar.entries[os.path.basename(full)] = {
                    "sha256": digest,
                    "bytes": size,
                }
                rebuilt += 1
        location = manifest_location(self.path)
        if os.path.exists(location):
            with open(location, "rb") as handle:
                self.sidecar.record(MANIFEST_NAME, handle.read())
        self._sidecar_dirty = True
        finding.repaired = True
        finding.repair = f"rebuilt covering {rebuilt} payload(s)"

    def _scrub_key_spec(self) -> None:
        if self.manifest is None or not self.manifest.key_spec_hash:
            return
        keys_path = self.keys_file or keys_location(self.path)
        if not os.path.exists(keys_path):
            return
        from ..keys.keyparser import parse_key_spec

        try:
            with open(keys_path, "r", encoding="utf-8") as handle:
                fingerprint = key_spec_fingerprint(parse_key_spec(handle.read()))
        except ValueError as error:
            self.report.add(
                "key-spec-mismatch",
                self._rel(keys_path),
                f"keys file does not parse: {error}",
            )
            return
        if fingerprint != self.manifest.key_spec_hash:
            self.report.add(
                "key-spec-mismatch",
                self._rel(keys_path),
                "keys file fingerprint differs from the manifest's "
                "(wrong or edited keys file)",
            )

    def _scrub_payloads(self) -> None:
        """Hash every payload against its recorded checksum."""
        on_disk = {os.path.basename(full): full for full in self._payload_files()}
        entries: dict[str, dict] = {}
        if self.kind == "file":
            if self.manifest is not None and self.manifest.extra.get("payload"):
                entries = {
                    os.path.basename(self.path): self.manifest.extra["payload"]
                }
        elif self.sidecar is not None:
            entries = {
                name: entry
                for name, entry in self.sidecar.entries.items()
                if name != MANIFEST_NAME
                and not (self._mapped and _is_sidecar(name))
            }
            for name in sorted(self.sidecar.quarantined):
                self.report.add(
                    "quarantined",
                    name,
                    "payload was moved aside by an earlier fsck --repair",
                )
            self._scrub_manifest_entry()
        for name in sorted(set(entries) | set(on_disk)):
            full = on_disk.get(name)
            expected = entries.get(name)
            if expected is None:
                if self.sidecar is not None and self.sidecar.present:
                    self.report.add(
                        "unchecksummed",
                        name,
                        "payload has no recorded checksum",
                        repair="record its checksum (after verifying it decodes)",
                    )
                    if self.repair:
                        finding = self.report.findings[-1]
                        if self._decodes(full):
                            digest, size = hash_file(full)
                            self.sidecar.entries[name] = {
                                "sha256": digest,
                                "bytes": size,
                            }
                            self._sidecar_dirty = True
                            finding.repaired = True
                            finding.repair = "checksum recorded"
                        else:
                            self._quarantine(full, finding)
                continue
            if full is None:
                finding = self.report.add(
                    "missing-payload",
                    name,
                    "recorded in the checksum sidecar but missing on disk "
                    "(deleted or lost)",
                    repair="forget the entry (the data itself is unrecoverable)",
                )
                if self.repair and self.sidecar is not None:
                    self.sidecar.forget(name)
                    self._sidecar_dirty = True
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
            if name.endswith(".presence"):
                continue  # derivable: rebuilt by the chunked cross-check
            if self._decodes(full):
                self._record_checksum(name, full)
                finding.repaired = True
                finding.repair = "payload decodes; checksum re-recorded"
            else:
                self._quarantine(full, finding)

    def _scrub_manifest_entry(self) -> None:
        """The sidecar's record of the manifest itself."""
        assert self.sidecar is not None
        expected = self.sidecar.entry(MANIFEST_NAME)
        if expected is None:
            return
        location = manifest_location(self.path)
        if not os.path.exists(location):
            # A bare missing manifest was already reported by the load.
            if not any(
                finding.code == "manifest-missing"
                for finding in self.report.findings
            ):
                finding = self.report.add(
                    "missing-payload",
                    MANIFEST_NAME,
                    "recorded in the checksum sidecar but missing on disk",
                    repair="rebuild the manifest",
                )
                if self.repair:
                    self._rebuild_manifest(finding)
            return
        digest, _size = hash_file(location)
        if digest != expected.get("sha256"):
            finding = self.report.add(
                "checksum-mismatch",
                MANIFEST_NAME,
                "manifest bytes differ from the sidecar's record",
                repair="re-record if it parses, rebuild otherwise",
            )
            if not self.repair:
                return
            if self.manifest is not None:
                with open(location, "rb") as handle:
                    self.sidecar.record(MANIFEST_NAME, handle.read())
                self._sidecar_dirty = True
                finding.repaired = True
                finding.repair = "manifest parses; checksum re-recorded"
            else:
                self._rebuild_manifest(finding)

    def _record_checksum(self, name: str, full: str) -> None:
        digest, size = hash_file(full)
        if self.kind == "file":
            if self.manifest is not None:
                self.manifest.extra["payload"] = {"sha256": digest, "bytes": size}
                text = self.manifest.to_json()
                atomic_write_text(manifest_location(self.path), text)
        elif self.sidecar is not None:
            self.sidecar.entries[name] = {"sha256": digest, "bytes": size}
            self.sidecar.quarantined.discard(name)
            self._sidecar_dirty = True

    # -- backend-specific cross-checks -------------------------------------

    def _chunk_archives(self, spec):
        """``(index, decoded tree)`` of every chunk file that decodes;
        the others are the hash pass's to report."""
        from ..core.archive import Archive

        for index, name in sorted(_chunk_files(self.path).items()):
            try:
                with open(os.path.join(self.path, name), "rb") as handle:
                    text = self._payload_codec().decode_document(handle.read())
                yield index, Archive.from_xml_string(text, spec)
            except (CodecError, ValueError, OSError, EOFError):
                continue

    def _scrub_chunked(self) -> None:
        """Cross-check recorded chunk presence against chunk contents:
        the manifest's map, or the sidecars of a store from before it."""
        from .chunked import _chunk_presence_of

        spec = self._load_spec()
        if spec is None or self.manifest is None:
            return
        mapped = self.manifest.extra.get("presence")
        if mapped is not None:
            self._scrub_leftovers()
        presence = dict(mapped or {})  # what a repair records
        stale = []
        for index, archive in self._chunk_archives(spec):
            derived = presence[str(index)] = _chunk_presence_of(archive).to_text()
            if mapped is not None:
                where, recorded = MANIFEST_NAME, mapped.get(str(index))
            else:
                where = f"chunk-{index:04d}.presence"
                recorded = self._sidecar_presence(where)
            if recorded != derived:
                stale.append(
                    self.report.add(
                        "presence-mismatch",
                        where,
                        f"chunk {index} is recorded present at {recorded!r}, "
                        f"its contents say {derived!r}",
                        repair="rewrite the presence map from the chunks' contents",
                    )
                )
        if stale and self.repair:
            self._rewrite_presence(spec, presence, stale)

    def _sidecar_presence(self, name: str) -> Optional[str]:
        """What a ``.presence`` sidecar records, in canonical text."""
        from ..core.versionset import VersionSet

        try:
            with open(os.path.join(self.path, name), "r", encoding="utf-8") as handle:
                return VersionSet.parse(handle.read()).to_text()
        except FileNotFoundError:
            return None
        except ValueError:
            return "unparsable"

    def _scrub_leftovers(self) -> None:
        """Sidecars beside a manifest that carries the map: a commit
        that moved the map retired them, so nothing reads them."""
        assert self.sidecar is not None
        names = {name for name in os.listdir(self.path) if _is_sidecar(name)}
        names.update(name for name in self.sidecar.entries if _is_sidecar(name))
        for name in sorted(names):
            finding = self.report.add(
                "leftover-sidecar",
                name,
                "the manifest carries the presence map and the version "
                "count; nothing reads this file",
                repair="delete it",
            )
            if not self.repair:
                continue
            full = os.path.join(self.path, name)
            if os.path.exists(full):
                os.remove(full)
            if self.sidecar.covers(name):
                self.sidecar.forget(name)
                self._sidecar_dirty = True
            finding.repaired = True
            finding.repair = "deleted"

    def _rewrite_presence(self, spec, presence: dict, findings: list) -> None:
        """Publish ``presence`` as the manifest's map, in one commit
        that also retires the sidecars of a store from before the map
        (the handle unlinks them once it has landed)."""
        from .backend import read_manifest
        from .chunked import ChunkedArchiver
        from .txn import ArchiveTxn

        assert self.manifest is not None
        self._flush_sidecar()  # the commit starts from the table on disk
        backend = ChunkedArchiver(
            self.path, spec, int(self.manifest.extra["chunk_count"]), verify="never"
        )
        with ArchiveTxn(backend, self.manifest.version_count) as txn:
            txn.extra["presence"] = presence
            for name in list(txn.checksums.entries):
                if _is_sidecar(name):
                    txn.checksums.forget(name)
        self.manifest = read_manifest(self.path)
        self.sidecar = ChecksumSidecar.load(os.path.join(self.path, CHECKSUMS_NAME))
        self._sidecar_dirty = False
        for finding in findings:
            finding.repaired = True
            finding.repair = "presence map rewritten from the chunks' contents"
        # The hash pass left damaged sidecars to this one; they are gone.
        for earlier in self.report.findings:
            if earlier.path.endswith(".presence") and not earlier.repaired:
                earlier.repaired = True
                earlier.repair = "retired with the presence map's rewrite"

    def _load_spec(self):
        from ..keys.keyparser import parse_key_spec

        keys_path = self.keys_file or keys_location(self.path)
        try:
            with open(keys_path, "r", encoding="utf-8") as handle:
                return parse_key_spec(handle.read())
        except (OSError, ValueError):
            return None

    def _scrub_external(self) -> None:
        """Deep-walk the event stream so structural damage is caught."""
        if not self.deep:
            return
        stream = os.path.join(self.path, "archive.jsonl")
        if not os.path.exists(stream):
            return
        from .events import IOStats, read_events

        try:
            for _ in read_events(stream, IOStats(), self.codec):
                pass
        except IntegrityError as error:
            self.report.add(
                "undecodable", self._rel(stream), str(error),
                repair="quarantine the stream",
            )

    def _flush_sidecar(self) -> None:
        if self.sidecar is not None and self._sidecar_dirty and self.repair:
            atomic_write_text(self.sidecar.path, self.sidecar.to_json())
            self.sidecar.present = True


#: Callable other modules may monkeypatch in tests.
FsckRunner = Callable[..., FsckReport]
