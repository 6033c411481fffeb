"""repro — a reproduction of Buneman, Khanna, Tajima & Tan,
"Archiving Scientific Data" (SIGMOD 2002 / ACM TODS 29(1), 2004).

A key-based XML archiver: all versions of a hierarchical, keyed
database merged into one XML document with interval timestamps,
supporting constant-pass version retrieval and element-level temporal
history — plus every substrate the paper's evaluation depends on
(XML model/parser, key system, Myers line diff, delta repositories,
SCCS weave, gzip/XMill-style compression, external-memory archiving,
retrieval indexes, and the synthetic OMIM/Swiss-Prot/XMark workloads).

Quickstart::

    import repro
    from repro import Archive, parse_key_spec, parse_document

    spec = parse_key_spec("(/, (db, {}))\\n(/db, (rec, {id}))\\n(/db/rec, (val, {}))")
    archive = Archive(spec)
    archive.add_version(parse_document("<db><rec><id>1</id><val>x</val></rec></db>"))
    archive.add_version(parse_document("<db><rec><id>1</id><val>y</val></rec></db>"))

    db = repro.open(archive)          # works on paths and backends too
    db.history("/db/rec[id=1]/val").changes
    # [(VersionSet('1'), 'x'), (VersionSet('2'), 'y')]
    db.at(2).select("/db/rec[id='1']/val/text()").all()   # ['y']
    db.between(1, 2).changes().all()  # [changed /db/rec[id=1]/val: 'x' -> 'y']
"""

from .core import (
    Archive,
    ArchiveError,
    ArchiveOptions,
    ElementHistory,
    Fingerprinter,
    VersionSet,
    documents_equivalent,
    normalize_document,
)
from .keys import Key, KeySpec, annotate_keys, key, parse_key_spec, satisfies
from .query import ArchiveDB, QueryResult, QueryStats, open_db
from .storage import StorageBackend, create_archive, open_archive
from .xmltree import Element, Text, parse_document, to_pretty_string, to_string

#: ``repro.open(path)`` — the facade entry point: an :class:`ArchiveDB`
#: over any archive path, open backend or in-memory archive.
open = open_db

__version__ = "1.0.0"

__all__ = [
    "Archive",
    "ArchiveDB",
    "ArchiveError",
    "ArchiveOptions",
    "Element",
    "ElementHistory",
    "Fingerprinter",
    "Key",
    "KeySpec",
    "QueryResult",
    "QueryStats",
    "StorageBackend",
    "Text",
    "VersionSet",
    "create_archive",
    "open",
    "open_archive",
    "open_db",
    "annotate_keys",
    "documents_equivalent",
    "key",
    "normalize_document",
    "parse_document",
    "parse_key_spec",
    "satisfies",
    "to_pretty_string",
    "to_string",
]
