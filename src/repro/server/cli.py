"""``xarchd`` — the archive server's command line.

::

    xarchd serve STORE_DIR --port 8400
    python -m repro.server serve STORE_DIR --port 8400

``STORE_DIR`` is a directory whose entries are archives (any backend;
the manifest decides).  Create them with ``xarch init``/``xarch
ingest`` first — the server serves what exists, it does not create.
"""

from __future__ import annotations

import argparse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xarchd",
        description="Archive server: snapshot-isolated reads, single writer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_serve = sub.add_parser("serve", help="serve a directory of archives")
    p_serve.add_argument("root", help="directory whose entries are archives")
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port", type=int, default=8400, help="bind port (default 8400)"
    )
    p_serve.add_argument(
        "--verbose",
        action="store_true",
        help="log one line per request to stderr",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    from .http import serve

    serve(args.root, host=args.host, port=args.port, quiet=not args.verbose)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
