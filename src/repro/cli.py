"""``xarch`` — a command-line front end to the archiver.

A downstream curator's workflow over plain files::

    xarch init  archive.xml --keys keys.txt        # empty archive
    xarch init  store/ --keys keys.txt --backend chunked   # key-hash chunks
    xarch init  archive.xml --keys keys.txt --codec xmill  # compressed at rest
    xarch add   archive.xml version1.xml           # merge a version
    xarch ingest archive.xml snapshots/ --keys keys.txt   # batch a directory
    xarch get   archive.xml 3 -o v3.xml            # retrieve version 3
    xarch query archive.xml "//emp[fn='John']" --at 3   # planned XPath
    xarch query archive.xml /db --between 2 5      # change stream
    xarch log   archive.xml '/db/dept[name=finance]/emp[fn=John, ln=Doe]'
    xarch diff  archive.xml 2 5                    # semantic change report
    xarch stats archive.xml                        # size/shape/codec counters
    xarch recode archive.xml --codec gzip          # re-encode in place
    xarch fsck  archive.xml --repair               # scrub / repair integrity
    xarch mine  v1.xml v2.xml -o keys.txt          # infer a key spec

Every subcommand dispatches through
:func:`repro.storage.open_archive`, so the same commands work
identically on all storage backends — the whole-file archive (the
``<T>``-tagged XML of the paper's Fig. 5), the key-hash chunked store
(Sec. 5) and the external event-stream archive (Sec. 6).  The backend
is chosen at ``init``/first-``ingest`` time and auto-detected from the
archive's manifest afterwards.  The keys file uses the textual syntax
of the paper's Appendix B and is stored alongside the archive by
``init`` so later commands need no ``--keys`` flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .compress.xmill import XMillFormatError
from .core.archive import ArchiveError, ArchiveOptions
from .core.tstree import ProbeCount
from .keys.keyparser import parse_key_spec
from .keys.mining import mine_keys
from .keys.spec import KeySpec
from .storage.backend import (
    BACKEND_KINDS,
    StorageBackend,
    create_archive,
    keys_location,
    open_archive,
)
from .storage.codec import CODEC_NAMES, CodecError, get_codec
from .storage.integrity import IntegrityError
from .storage.wal import WalError
from .xmltree.parser import parse_file
from .xmltree.serializer import to_pretty_string

#: Exit code for detected corruption (vs 1 for ordinary usage errors).
EXIT_CORRUPT = 2


def _read_keys_text(archive_path: str, keys_file: str | None) -> str:
    path = keys_file or keys_location(archive_path)
    if not os.path.exists(path):
        raise SystemExit(
            f"xarch: key specification {path!r} not found "
            f"(run 'xarch init' or pass --keys)"
        )
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_spec(archive_path: str, keys_file: str | None) -> KeySpec:
    return parse_key_spec(_read_keys_text(archive_path, keys_file))


def _open(args: argparse.Namespace) -> StorageBackend:
    spec = _load_spec(args.archive, getattr(args, "keys", None))
    options = ArchiveOptions(compaction=getattr(args, "compaction", False))
    return open_archive(args.archive, spec, options=options)


def cmd_init(args: argparse.Namespace) -> int:
    with open(args.keys, "r", encoding="utf-8") as handle:
        keys_text = handle.read()
    try:
        backend = create_archive(
            args.archive,
            keys_text,
            kind=args.backend,
            chunk_count=args.chunks,
            force=args.force,
            codec=args.codec,
        )
    except ArchiveError as error:
        raise SystemExit(f"xarch: {error}")
    backend.close()
    print(
        f"initialized empty {args.backend} archive {args.archive}"
        + (f" (codec {args.codec})" if args.codec else "")
    )
    return 0


def cmd_add(args: argparse.Namespace) -> int:
    backend = _open(args)
    base = backend.last_version
    per_version: dict[int, object] = {}
    backend.ingest_batch(
        (parse_file(path) for path in args.versions),
        on_version=lambda number, stats: per_version.__setitem__(number, stats),
    )
    for offset, version_path in enumerate(args.versions, start=1):
        number = base + offset
        stats = per_version.get(number)
        if stats is not None:
            print(
                f"merged {version_path} as version {number} "
                f"(matched {stats.nodes_matched}, "
                f"{stats.nodes_kept} of them in {stats.records_kept} kept "
                f"records, inserted {stats.nodes_inserted}, "
                f"content changes {stats.frontier_content_changes})"
            )
        else:
            print(f"merged {version_path} as version {number}")
    backend.close()
    return 0


def _collect_version_files(sources: list[str]) -> list[str]:
    """Expand the ``ingest`` operands: directories contribute their
    ``.xml`` files in sorted (snapshot) order, files pass through."""
    files: list[str] = []
    for source in sources:
        if os.path.isdir(source):
            entries = sorted(
                entry for entry in os.listdir(source) if entry.endswith(".xml")
            )
            if not entries:
                raise SystemExit(f"xarch: no .xml version files in {source!r}")
            files.extend(os.path.join(source, entry) for entry in entries)
        else:
            files.append(source)
    if not files:
        raise SystemExit("xarch: nothing to ingest")
    return files


def cmd_ingest(args: argparse.Namespace) -> int:
    """Batch-merge a directory (or list) of version files end-to-end."""
    files = _collect_version_files(args.sources)
    if getattr(args, "remote", None):
        from .client import connect

        with connect(args.remote, archive=args.archive) as db:
            report = db.ingest(parse_file(path) for path in files)
        merge = report["merge"]
        print(
            f"ingested {report['ingested']} versions into {args.archive} "
            f"on {args.remote} (versions {report['base_version'] + 1}.."
            f"{report['last_version']}, generation {report['generation']}): "
            f"{merge['nodes_inserted']} inserted, "
            f"{merge['records_kept']} records kept"
        )
        return 0
    if os.path.exists(args.archive):
        backend = _open(args)
        if args.codec is not None and args.codec != backend.codec.name:
            # Refuse rather than silently ingest into the existing
            # encoding: the user asked for bytes at rest they would
            # not get.
            raise SystemExit(
                f"xarch: {args.archive!r} already stores codec "
                f"{backend.codec.name!r}; run 'xarch recode {args.archive} "
                f"--codec {args.codec}' to change it"
            )
    else:
        # End-to-end bootstrap: create the archive like ``init`` would.
        if not args.keys:
            raise SystemExit(
                f"xarch: {args.archive!r} does not exist; pass --keys to create it"
            )
        with open(args.keys, "r", encoding="utf-8") as handle:
            keys_text = handle.read()
        backend = create_archive(
            args.archive,
            keys_text,
            kind=args.backend,
            chunk_count=args.chunks,
            options=ArchiveOptions(compaction=args.compaction),
            codec=args.codec,
        )
    base = backend.last_version
    per_version: dict[int, object] = {}
    total = backend.ingest_batch(
        (parse_file(path) for path in files),
        on_version=lambda number, stats: per_version.__setitem__(number, stats),
    )
    for offset, version_path in enumerate(files, start=1):
        number = base + offset
        stats = per_version.get(number)
        if stats is not None:
            print(
                f"merged {version_path} as version {number} "
                f"(visited {stats.nodes_visited()}, "
                f"kept {stats.records_kept} records / {stats.nodes_kept} nodes)"
            )
        else:
            print(f"merged {version_path} as version {number}")
    print(
        f"ingested {total.versions} versions: {total.nodes_visited()} node visits, "
        f"{total.nodes_inserted} inserted, "
        f"{total.records_kept} records kept ({total.nodes_kept} nodes)"
    )
    backend.close()
    return 0


def cmd_get(args: argparse.Namespace) -> int:
    backend = _open(args)
    probes = ProbeCount() if args.probes and backend.supports_probes else None
    document = backend.retrieve(args.version, probes=probes)
    if args.probes:
        if probes is None:
            print(
                f"the {backend.kind} backend does not track retrieval probes",
                file=sys.stderr,
            )
        else:
            naive = backend.scan_probe_count(args.version)
            print(
                f"probed {probes.total()} nodes "
                f"({probes.tree_probes} tree, {probes.fallback_scans} "
                f"wide-list scan, {probes.short_scans} short-list scan); "
                f"a full scan checks {naive}",
                file=sys.stderr,
            )
    if document is None:
        print(f"version {args.version} is an empty database", file=sys.stderr)
        return 1
    text = to_pretty_string(document, indent="  " if args.indent else "")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote version {args.version} to {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """Planned temporal XPath through the :class:`ArchiveDB` facade."""
    from .xmltree.serializer import to_string

    if getattr(args, "remote", None):
        return _cmd_query_remote(args)
    backend = _open(args)
    db = backend.db()
    if args.explain:
        print("\n".join(db.explain(args.xpath)))
        return 0
    if args.between is not None:
        from_version, to_version = args.between
        prefix = None if args.xpath in ("/", "") else args.xpath
        count = 0
        for change in db.between(from_version, to_version).changes(prefix):
            print(change)
            count += 1
        if count == 0:
            print(
                f"no changes between versions {from_version} and {to_version}"
                + (f" under {prefix}" if prefix else ""),
                file=sys.stderr,
            )
        if args.stats:
            print(
                f"{count} change(s) between versions {from_version} and "
                f"{to_version} (timestamp-tree-guided diff walk)",
                file=sys.stderr,
            )
        return 0
    version = args.at if args.at is not None else backend.last_version
    result = db.at(version).select(args.xpath)
    count = 0
    for item in result:
        print(item if isinstance(item, str) else to_string(item))
        count += 1
    if args.stats:
        stats = result.stats
        how = (
            f"snapshot fallback ({stats.fallback_reason})"
            if stats.fallback
            else "planned over the archive tree"
        )
        print(
            f"{count} result(s) at version {version}: {how}; "
            f"visited {stats.nodes_visited()} nodes "
            f"({stats.archive_nodes_visited} archive, {stats.tree_probes} "
            f"tree probes, {stats.nodes_materialized} materialized, "
            f"{stats.events_skipped} stream events drained), "
            f"{stats.index_lookups} index lookups, "
            f"{stats.chunks_pruned} chunks pruned, "
            f"{stats.chunks_routed_past} routed past",
            file=sys.stderr,
        )
    return 0


def _cmd_query_remote(args: argparse.Namespace) -> int:
    """The ``query --remote URL`` path: same output, answered by xarchd.

    ``args.archive`` is the archive's *name on the server*, not a local
    path; the generation the server pinned for the answer reports with
    ``--stats``.
    """
    from .client import connect
    from .xmltree.serializer import to_string

    if args.explain:
        raise SystemExit(
            "xarch: --explain needs the local planner; drop --remote"
        )
    with connect(args.remote, archive=args.archive) as db:
        if args.between is not None:
            from_version, to_version = args.between
            prefix = None if args.xpath in ("/", "") else args.xpath
            count = 0
            for change in db.between(from_version, to_version).changes(prefix):
                print(change)
                count += 1
            if count == 0:
                print(
                    f"no changes between versions {from_version} and "
                    f"{to_version}" + (f" under {prefix}" if prefix else ""),
                    file=sys.stderr,
                )
            if args.stats:
                print(
                    f"{count} change(s) between versions {from_version} and "
                    f"{to_version} (served at generation "
                    f"{db.last_generation})",
                    file=sys.stderr,
                )
            return 0
        version = args.at if args.at is not None else "latest"
        result = db.at(version).select(args.xpath)
        count = 0
        for item in result:
            print(item if isinstance(item, str) else to_string(item))
            count += 1
        if args.stats:
            stats = result.stats
            how = (
                f"snapshot fallback ({stats.fallback_reason})"
                if stats.fallback
                else "planned over the archive tree"
            )
            print(
                f"{count} result(s) at version {version} "
                f"(server generation {result.generation}): {how}; "
                f"visited {stats.nodes_visited()} nodes on the server",
                file=sys.stderr,
            )
    return 0


def cmd_log(args: argparse.Namespace) -> int:
    history = _open(args).db().history(args.path)
    print(f"{args.path}")
    print(f"  exists at versions: {history.existence.to_text()}")
    if history.changes:
        for timestamps, content in history.changes:
            preview = content if len(content) <= 60 else content[:57] + "..."
            print(f"  versions {timestamps.to_text()}: {preview}")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    print(_open(args).db().between(args.from_version, args.to_version).report())
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    backend = _open(args)
    stats = backend.stats()
    print(f"backend:            {backend.kind}")
    print(f"codec:              {backend.codec.name}")
    print(f"generation:         {stats.generation}")
    print(f"versions:           {stats.versions}")
    print(f"archive nodes:      {stats.nodes}")
    print(f"stored timestamps:  {stats.stored_timestamps}")
    print(f"serialized bytes:   {stats.serialized_bytes}")
    print(f"raw bytes:          {stats.raw_bytes}")
    print(f"disk bytes:         {stats.disk_bytes}")
    print(f"compression ratio:  {stats.compression_ratio:.2f}x")
    return 0


def cmd_recode(args: argparse.Namespace) -> int:
    """Rewrite an archive in place under another at-rest codec."""
    backend = _open(args)
    try:
        report = backend.recode(args.codec)
    except ArchiveError as error:
        raise SystemExit(f"xarch: {error}")
    finally:
        backend.close()
    print(report)
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    """Scrub (and optionally repair) an archive's on-disk state."""
    from .storage.fsck import fsck_archive

    report = fsck_archive(
        args.archive,
        keys_file=args.keys,
        repair=args.repair,
        deep=args.deep,
    )
    if args.json:
        print(report.to_json())
    else:
        print(report)
    if report.clean or (args.repair and not report.unrepaired):
        return 0
    return 1


def cmd_mine(args: argparse.Namespace) -> int:
    versions = [parse_file(path) for path in args.versions]
    report = mine_keys(versions)
    text = str(report.spec) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(report.spec)} keys to {args.output}")
    else:
        print(text, end="")
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    return 0


def _codec_arg(name: str) -> str:
    """Validate a ``--codec`` operand through the codec registry.

    Every surface that takes a codec name — ``init``, ``ingest``,
    ``recode``, the library's ``get_codec`` — rejects an unknown name
    with the same registry message; argparse type errors already exit
    with the corruption/usage status 2, matching ``EXIT_CORRUPT``.
    """
    try:
        get_codec(name)
    except CodecError as error:
        raise argparse.ArgumentTypeError(str(error)) from error
    return name


def _add_backend_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=BACKEND_KINDS,
        default="file",
        help="storage backend for a newly created archive "
        "(existing archives auto-detect from their manifest)",
    )
    parser.add_argument(
        "--chunks",
        type=int,
        default=8,
        help="chunk count for the chunked backend",
    )
    parser.add_argument(
        "--codec",
        type=_codec_arg,
        metavar="{" + ",".join(CODEC_NAMES) + "}",
        default=None,
        help="at-rest compression codec for a newly created archive "
        "(default raw; existing archives keep their codec — use "
        "'xarch recode' to change it)",
    )


def _add_remote_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--remote",
        metavar="URL",
        help="run against an xarchd server (http://host:port); the "
        "archive operand is then the archive's name on the server, "
        "not a local path",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xarch",
        description="Key-based XML archiver (Buneman et al., SIGMOD 2002)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="create an empty archive")
    p_init.add_argument("archive")
    p_init.add_argument("--keys", required=True, help="key specification file")
    p_init.add_argument("--force", action="store_true")
    _add_backend_options(p_init)
    p_init.set_defaults(func=cmd_init)

    p_add = sub.add_parser("add", help="merge version file(s) into the archive")
    p_add.add_argument("archive")
    p_add.add_argument("versions", nargs="+")
    p_add.add_argument("--keys")
    p_add.set_defaults(func=cmd_add)

    p_ingest = sub.add_parser(
        "ingest",
        help="batch-merge a directory (or list) of version files",
    )
    p_ingest.add_argument("archive")
    p_ingest.add_argument(
        "sources",
        nargs="+",
        help="version .xml files, or directories of them (sorted order)",
    )
    p_ingest.add_argument("--keys", help="key spec (required to create the archive)")
    p_ingest.add_argument(
        "--compaction",
        action="store_true",
        help="store frontier content as SCCS weaves (further compaction)",
    )
    _add_backend_options(p_ingest)
    _add_remote_option(p_ingest)
    p_ingest.set_defaults(func=cmd_ingest)

    p_get = sub.add_parser("get", help="retrieve a past version")
    p_get.add_argument("archive")
    p_get.add_argument("version", type=int)
    p_get.add_argument("-o", "--output")
    p_get.add_argument("--indent", action="store_true")
    p_get.add_argument(
        "--probes",
        action="store_true",
        help=(
            "report how many child timestamps the read checked (timestamp-"
            "tree probes, and scans of short or still-encoded lists) vs the "
            "full-scan baseline"
        ),
    )
    p_get.add_argument("--keys")
    p_get.set_defaults(func=cmd_get)

    p_query = sub.add_parser(
        "query",
        help="temporal XPath over the archive (planned, index-aware)",
    )
    p_query.add_argument("archive")
    p_query.add_argument(
        "xpath",
        help="XPath expression; with --between, a key-path prefix "
        "filtering the change stream ('/' for all changes)",
    )
    scope = p_query.add_mutually_exclusive_group()
    scope.add_argument(
        "--at",
        type=int,
        metavar="V",
        help="version to query (default: the latest)",
    )
    scope.add_argument(
        "--between",
        nargs=2,
        type=int,
        metavar=("FROM", "TO"),
        help="stream element-level changes between two versions",
    )
    p_query.add_argument(
        "--explain",
        action="store_true",
        help="print the compiled plan instead of running it",
    )
    p_query.add_argument(
        "--stats",
        action="store_true",
        help="report planner/pushdown work accounting on stderr",
    )
    p_query.add_argument("--keys")
    _add_remote_option(p_query)
    p_query.set_defaults(func=cmd_query)

    p_log = sub.add_parser("log", help="temporal history of a keyed element")
    p_log.add_argument("archive")
    p_log.add_argument("path")
    p_log.add_argument("--keys")
    p_log.set_defaults(func=cmd_log)

    p_diff = sub.add_parser("diff", help="semantic changes between versions")
    p_diff.add_argument("archive")
    p_diff.add_argument("from_version", type=int)
    p_diff.add_argument("to_version", type=int)
    p_diff.add_argument("--keys")
    p_diff.set_defaults(func=cmd_diff)

    p_stats = sub.add_parser("stats", help="archive size and shape")
    p_stats.add_argument("archive")
    p_stats.add_argument("--keys")
    p_stats.set_defaults(func=cmd_stats)

    p_recode = sub.add_parser(
        "recode",
        help="rewrite the archive in place under another at-rest codec",
    )
    p_recode.add_argument("archive")
    p_recode.add_argument(
        "--codec",
        type=_codec_arg,
        metavar="{" + ",".join(CODEC_NAMES) + "}",
        required=True,
        help="target codec (atomic, identity-verified rewrite)",
    )
    p_recode.add_argument("--keys")
    p_recode.set_defaults(func=cmd_recode)

    p_fsck = sub.add_parser(
        "fsck",
        help="scrub manifest, checksums, WAL state and sidecars; "
        "--repair rebuilds what is derivable and quarantines the rest",
    )
    p_fsck.add_argument("archive")
    p_fsck.add_argument(
        "--repair",
        action="store_true",
        help="rebuild derivable state (presence map, checksums, "
        "manifest); quarantine — never delete — undecodable payloads",
    )
    p_fsck.add_argument(
        "--deep",
        action="store_true",
        help="also decode and parse every payload (catches corruption "
        "that preserves the recorded checksum)",
    )
    p_fsck.add_argument(
        "--json",
        action="store_true",
        help="machine-readable findings report",
    )
    p_fsck.add_argument("--keys")
    p_fsck.set_defaults(func=cmd_fsck)

    p_mine = sub.add_parser("mine", help="infer a key spec from versions")
    p_mine.add_argument("versions", nargs="+")
    p_mine.add_argument("-o", "--output")
    p_mine.set_defaults(func=cmd_mine)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        IntegrityError,
        WalError,
        CodecError,
        XMillFormatError,
        json.JSONDecodeError,
    ) as error:
        # Detected corruption: one-line diagnostic, distinct exit code,
        # and a pointer at the scrubber.  Ordered before the generic
        # handler — every one of these is also a ValueError.
        archive = getattr(args, "archive", None)
        hint = f"; run 'xarch fsck {archive}'" if archive else ""
        print(
            f"xarch: corruption detected: {error}{hint}",
            file=sys.stderr,
        )
        return EXIT_CORRUPT
    except (ValueError, OSError) as error:
        print(f"xarch: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
