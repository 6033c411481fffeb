"""Stores written by earlier releases, read as today's manifest.

``retrieve(v)`` returns version *v* forever, and forever includes the
stores earlier releases wrote.  Those kept part of what today's
manifest carries in files beside it: the checksum table in
``checksums.json`` (a whole-file store: as ``extra["payload"]``), a
chunked store's presence map in ``chunk-NNNN.presence`` files and its
version count in ``versions.txt``.

:func:`current_manifest` is the one place that knows this; the engine
and ``fsck`` know today's layout alone.  Each presence file is verified
against the table when the store is opened — a damaged one raises
there, a missing one leaves its chunk out of the map, to be read
rather than pruned.  ``versions.txt`` is retired unread: every writer
that wrote it staged the same count in the manifest of the same
commit.  The old files go (:func:`retire`) once a manifest of today's
layout is on disk: after a store's first commit, on a write-capable
open that finds them beside one, and after every manifest
``fsck --repair`` writes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from ..core.versionset import VersionSet
from .integrity import (
    ChecksumMismatch,
    ChecksumSidecar,
    IntegrityError,
    ManifestInconsistent,
    _self_digest,
)

if TYPE_CHECKING:
    from .backend import Manifest

#: Where a directory store kept its checksum table before the manifest
#: carried it.
CHECKSUMS_NAME = "checksums.json"
#: Where a chunked store kept its version count before the manifest
#: carried it alone.
VERSIONS_NAME = "versions.txt"

#: Called with the name of a damaged file of an older layout and the
#: typed error its check raised, instead of raising it.
OnDamage = Optional[Callable[[str, IntegrityError], None]]


def current_manifest(
    path: str, manifest: "Manifest", on_damage: OnDamage = None
) -> "tuple[Manifest, list[str]]":
    """``manifest``, read at ``path``, as today's writer would publish
    it, and the names of the older layout's files it replaces, whether
    they lie there or not.  A manifest of today's layout comes back
    equal to itself.

    A damaged file of the older layout raises its typed
    :class:`~repro.storage.integrity.IntegrityError`; given
    ``on_damage``, the error goes there instead and the file is read as
    absent (``fsck`` reports it so, and checks ``versions.txt`` too,
    which nothing else reads).
    """
    current = dataclasses.replace(manifest, extra=dict(manifest.extra))
    retired: list[str] = []
    if manifest.kind != "file":
        retired.append(CHECKSUMS_NAME)
    sidecars: dict[int, str] = {}
    if manifest.kind == "chunked":
        chunks = range(int(manifest.extra.get("chunk_count", 0)))
        sidecars = {index: f"chunk-{index:04d}.presence" for index in chunks}
        retired += [*sidecars.values(), VERSIONS_NAME]
    table = _table(path, current, on_damage)
    if sidecars and "presence" not in current.extra:
        presence = current.extra["presence"] = {}
        for index, name in sidecars.items():
            text = _old_file(path, name, on_damage, lambda full: _presence(full, table))
            if text is not None:
                presence[str(index)] = text
    if on_damage is not None and VERSIONS_NAME in retired:
        _old_file(path, VERSIONS_NAME, on_damage, lambda full: _verified(full, table))
    if table is not None:  # today's covers payloads alone
        gone = set(retired)
        current.checksums = {
            name: entry for name, entry in table.entries.items() if name not in gone
        }
        current.quarantined = sorted(table.quarantined - gone)
    return current, retired


def retire(path: str, names: Iterable[str]) -> None:
    """Remove the files of an older layout beside the store at
    ``path``, whose manifest on disk is today's and replaced them."""
    for name in names:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(path, name))


# -- what the older layouts kept ----------------------------------------------


def _old_file(path: str, name: str, on_damage: OnDamage, load: Callable):
    """``load`` of one old file's full path: what it says, or ``None``
    when it is missing.  A damaged one raises its typed error, or, given
    ``on_damage``, goes there and is read as missing."""
    try:
        return load(os.path.join(path, name))
    except FileNotFoundError:
        return None
    except IntegrityError as error:
        if on_damage is None:
            raise
        on_damage(name, error)
        return None


def _table(
    path: str, current: "Manifest", on_damage: OnDamage
) -> Optional[ChecksumSidecar]:
    """The store's checksum table, wherever its layout kept it (``None``
    for a store without one: a pre-integrity store, or one whose old
    table is damaged and went to ``on_damage``)."""
    payload = current.extra.pop("payload", None)
    if current.checksums is not None:
        return ChecksumSidecar(current.checksums, current.quarantined)
    if payload:
        return ChecksumSidecar({os.path.basename(path): payload})
    if current.kind == "file":
        return None
    from .backend import MANIFEST_NAME  # local: backend opens through here

    table = _old_file(path, CHECKSUMS_NAME, on_damage, load_checksums)
    if table is not None:
        table.forget(MANIFEST_NAME)  # it recorded the manifest too
    return table


def load_checksums(path: str) -> ChecksumSidecar:
    """Read and self-verify a ``checksums.json``."""
    try:
        with open(path, "rb") as handle:
            record = json.loads(handle.read().decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ManifestInconsistent(f"Checksum sidecar {path!r} is unreadable: {error}")
    # Every sidecar ever written carries both fields, so absence is
    # damage: a flipped bit in a key name must not switch the check off.
    recorded = record.pop("sha256", None) if isinstance(record, dict) else None
    if recorded is None or "entries" not in record:
        raise ManifestInconsistent(
            f"Checksum sidecar {path!r} is malformed or carries no "
            f"self-checksum (corrupt sidecar)"
        )
    if _self_digest(record) != recorded:
        raise ChecksumMismatch(
            f"Checksum sidecar {path!r} fails its own checksum (corrupt sidecar)"
        )
    return ChecksumSidecar(record["entries"], record.get("quarantined", ()))


def _verified(full: str, table: Optional[ChecksumSidecar]) -> bytes:
    """One old file's bytes, checked against the table."""
    with open(full, "rb") as handle:
        data = handle.read()
    if table is not None:
        table.verify(os.path.basename(full), data)
    return data


def _presence(full: str, table: Optional[ChecksumSidecar]) -> str:
    """What one chunk's presence file records, in canonical text."""
    data = _verified(full, table)
    try:
        return VersionSet.parse(data.decode("utf-8")).to_text()
    except (ValueError, UnicodeDecodeError) as error:
        raise ManifestInconsistent(f"Presence file {full!r} does not parse: {error}")
