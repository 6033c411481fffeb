"""The ``xarchd`` wire layer: HTTP/1.1 over ``socketserver``, sized NDJSON.

Routes (all answers are ``application/x-ndjson`` unless noted)::

    GET  /healthz                                     liveness (plain JSON)
    GET  /archives                                    listing (plain JSON)
    GET  /archives/{name}/stats
    GET  /archives/{name}/versions
    GET  /archives/{name}/history?path=KEYPATH
    GET  /archives/{name}/at/{v}/select?xpath=EXPR    v: integer or 'latest'
    GET  /archives/{name}/between/{a}/{b}/changes[?prefix=KEYPATH]
    POST /archives/{name}/ingest                      NDJSON {"xml": ...} lines

An NDJSON answer is zero or more ``{"item": ...}`` lines followed by
exactly one ``{"done": {...}}`` line carrying the result count, the
pinned generation, the query's work accounting, and a ``cache`` record
(whether the snapshot reused an open pin, plus pin-cache and
decoded-chunk-cache hit/miss/eviction counters).  Three response
headers describe the answer before its body: ``X-Archive-Generation``
(the pinned generation every item was answered from), ``X-Result-Kind``
(``elements`` / ``strings`` / ``changes`` — the
:class:`~repro.query.result.QueryResult` kind, so clients type items
without sniffing) and ``Server-Timing: pin;dur=…, read;dur=…`` (the
milliseconds :meth:`ArchiveService.read` spent pinning the snapshot and
answering from it — whatever else a client waited was the wire).

Failures never tear a stream: the service layer materializes the whole
answer under its snapshot pin *before* the status line is sent, so
every error — unknown archive, bad version, detected corruption —
arrives as a proper status code with the structured
:mod:`repro.server.errors` body.  And since the answer is whole, every
response — NDJSON, JSON, error — leaves through :meth:`XarchdHandler.
_respond` as one ``sendall``: status line, ``Server``, ``Date``, the
route's headers, ``Content-Length`` and the body.  Nothing is chunked.

The handler reads a request head itself: request line and header lines
into a mapping keyed by lower-cased name, within the stdlib server's
limits and with its answers — a line over 64 KiB is 414 (request line)
or 431 (header), more than 100 headers 431, a request line that is not
``METHOD TARGET HTTP/x.y`` or a header line without a colon 400 (so is
an HTTP/0.9 two-word line), ``HTTP/2.0`` and up 505, a method without a
``do_`` handler 501; these are answered in plain text and close the
connection.  A connection is kept alive unless the request was
HTTP/1.0, said ``Connection: close``, was refused as above, or
announced a body (``Content-Length`` or ``Transfer-Encoding``) that
nobody read: what follows such a request on the wire is its body, not
the next request line.  Every closing response says ``Connection:
close``.
"""

from __future__ import annotations

import json
import socketserver
import sys
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from ..storage.cache import chunk_cache
from ..xmltree.parser import parse_document
from ..xmltree.serializer import to_string
from .errors import ApiError, error_body
from .service import ArchiveService, Snapshot

#: Cap on ingest request bodies (64 MiB): a runaway upload should fail
#: fast, not exhaust the server.
MAX_INGEST_BYTES = 64 * 1024 * 1024
#: Request-head limits (the stdlib server's): bytes per line, header lines.
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100

NDJSON = "application/x-ndjson"


class XarchdServer(socketserver.ThreadingTCPServer):
    """One thread per connection; the service carries the shared state
    (writer locks), so handler threads stay stateless."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: ArchiveService, *, quiet: bool = True):
        super().__init__(address, XarchdHandler)
        self.service = service
        self.quiet = quiet
        self._date = (0, "")

    def http_date(self) -> str:
        """The ``Date`` header value, formatted once per second."""
        now = int(time.time())
        if self._date[0] != now:
            self._date = (now, formatdate(now, usegmt=True))
        return self._date[1]


class _HeadError(Exception):
    """A request head the server refuses: answered in plain text under
    ``status`` (these sit below the API's error taxonomy), then the
    connection closes."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status


class XarchdHandler(socketserver.StreamRequestHandler):
    # One segment per response: ``_respond`` hands head and body to a
    # single ``sendall`` on the unbuffered socket, Nagle off.  Written
    # piecemeal, a second small segment waits behind Nagle for the
    # client's delayed ACK — ~40 ms on every request that follows
    # another on a keep-alive connection.
    disable_nagle_algorithm = True

    # -- one connection ----------------------------------------------------

    @property
    def service(self) -> ArchiveService:
        return self.server.service  # type: ignore[attr-defined]

    def handle(self) -> None:
        self.close_connection = False
        try:
            while not self.close_connection:
                self._handle_one()
        except ConnectionError:
            pass  # the client went away; nothing left to answer

    def _handle_one(self) -> None:
        #: Whether the request announced a body nobody has read yet: what
        #: follows it on the wire is then not a request line.
        self._unread_body = False
        try:
            head = self._read_head()
        except _HeadError as error:
            self.close_connection = True
            self._respond(
                error.status,
                [("Content-Type", "text/plain; charset=utf-8")],
                f"{error.status} {error}\n".encode("utf-8"),
            )
            return
        if head is None:
            self.close_connection = True  # EOF between requests
            return
        method, target, self.headers = head
        url = urlsplit(target)
        parts = [part for part in url.path.split("/") if part]
        try:
            getattr(self, "do_" + method)(url, parts)
        except ConnectionError:
            raise  # the client went away mid-answer; ``handle`` closes
        except Exception as error:
            named = len(parts) >= 2 and parts[0] == "archives"
            payload = error_body(error, archive=parts[1] if named else None)
            self._send_json(payload["error"]["status"], payload)
        if not self.server.quiet:  # type: ignore[attr-defined]
            sys.stderr.write(f"{self.client_address[0]} {method} {target}\n")

    def _read_head(self) -> Optional[tuple[str, str, dict]]:
        """Request line and header lines: ``(method, target, headers)``
        with header names lower-cased, ``None`` at end of stream."""
        line = self.rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise _HeadError(414, "Request-URI Too Long")
        words = line.decode("latin-1").split()
        if not words:
            return None
        try:
            method, target, protocol = words
            if not protocol.startswith("HTTP/"):
                raise ValueError(protocol)
            major, minor = protocol[5:].split(".")
            version = (int(major), int(minor))
        except ValueError:
            raise _HeadError(400, f"Bad request syntax ({line[:80]!r})")
        if version >= (2, 0):
            raise _HeadError(505, f"Invalid HTTP version ({protocol[5:]})")
        headers: dict = {}
        for _ in range(MAX_HEADERS + 1):
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                raise _HeadError(431, "Line too long")
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon:
                raise _HeadError(400, f"Bad header line ({line[:80]!r})")
            headers.setdefault(name.strip().lower(), value.strip())
        else:
            raise _HeadError(431, "Too many headers")
        if not hasattr(self, "do_" + method):
            raise _HeadError(501, f"Unsupported method ({method!r})")
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            raise _HeadError(400, "Bad Content-Length")
        self._unread_body = length > 0 or "transfer-encoding" in headers
        if version < (1, 1) or headers.get("connection", "").lower() == "close":
            self.close_connection = True
        if headers.get("expect", "").lower() == "100-continue":
            self.request.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        return method, target, headers

    def _respond(self, status: int, headers: list, body: bytes) -> None:
        """Every answer leaves here: status line, headers and the sized
        body in one ``sendall``."""
        if self._unread_body:
            self.close_connection = True
        head = [
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Server: xarchd/1.0\r\n"
            f"Date: {self.server.http_date()}\r\n"  # type: ignore[attr-defined]
        ]
        head += [f"{name}: {value}\r\n" for name, value in headers]
        head.append(f"Content-Length: {len(body)}\r\n")
        if self.close_connection:
            head.append("Connection: close\r\n")
        head.append("\r\n")
        self.request.sendall("".join(head).encode("latin-1") + body)

    def _send_json(
        self, status: int, payload: dict, extra_headers: tuple = ()
    ) -> None:
        self._respond(
            status,
            [("Content-Type", "application/json"), *extra_headers],
            (json.dumps(payload) + "\n").encode("utf-8"),
        )

    def _stream_ndjson(
        self, snapshot: Snapshot, kind: str, items: list, done: dict
    ) -> None:
        """Sized NDJSON: one line per item, then the done line."""
        lines = [
            json.dumps({"item": item}, ensure_ascii=False) for item in items
        ]
        done_record = dict(done)
        done_record.setdefault("count", len(items))
        done_record.setdefault("generation", snapshot.generation)
        done_record.setdefault("last_version", snapshot.last_version)
        cache = chunk_cache()
        done_record.setdefault(
            "cache",
            {
                # Whether this request's snapshot reused an open pin,
                # plus the server-lifetime pin/chunk cache counters.
                "snapshot_reused": snapshot.cached,
                "pin_hits": self.service.pins.hits,
                "pin_misses": self.service.pins.misses,
                "pin_evictions": self.service.pins.evictions,
                "chunk_hits": cache.hits,
                "chunk_misses": cache.misses,
                "chunk_evictions": cache.evictions,
            },
        )
        lines.append(json.dumps({"done": done_record}))
        lines.append("")
        pin_seconds, read_seconds = snapshot.timing
        self._respond(
            200,
            [
                ("Content-Type", NDJSON),
                ("X-Archive-Generation", snapshot.generation),
                ("X-Result-Kind", kind),
                (
                    "Server-Timing",
                    f"pin;dur={pin_seconds * 1e3:.3f}, "
                    f"read;dur={read_seconds * 1e3:.3f}",
                ),
            ],
            "\n".join(lines).encode("utf-8"),
        )

    def _query_param(self, query: dict, key: str) -> Optional[str]:
        values = query.get(key)
        return values[0] if values else None

    # -- routing -----------------------------------------------------------

    def do_GET(self, url, parts: list) -> None:  # noqa: N802 (stdlib naming)
        query = parse_qs(url.query)
        if parts == ["healthz"]:
            self._send_json(
                200,
                {"status": "ok", "archives": len(self.service.list_archives())},
            )
            return
        if parts == ["archives"]:
            self._send_json(200, {"archives": self.service.list_archives()})
            return
        if len(parts) >= 2 and parts[0] == "archives":
            archive = parts[1]
            rest = parts[2:]
            if rest == ["stats"]:
                self._get_stats(archive)
                return
            if rest == ["versions"]:
                self._get_versions(archive)
                return
            if rest == ["history"]:
                self._get_history(archive, self._query_param(query, "path"))
                return
            if len(rest) == 3 and rest[0] == "at" and rest[2] == "select":
                self._get_select(
                    archive, rest[1], self._query_param(query, "xpath")
                )
                return
            if len(rest) == 4 and rest[0] == "between" and rest[3] == "changes":
                self._get_changes(
                    archive, rest[1], rest[2], self._query_param(query, "prefix")
                )
                return
            if rest == ["ingest"]:
                raise ApiError("method-not-allowed", "ingest requires POST")
        raise ApiError("not-found", f"No route for GET {url.path!r}")

    def do_POST(self, url, parts: list) -> None:  # noqa: N802
        if len(parts) == 3 and parts[0] == "archives" and parts[2] == "ingest":
            self._post_ingest(parts[1])
            return
        raise ApiError("not-found", f"No route for POST {url.path!r}")

    # -- endpoints ---------------------------------------------------------

    def _get_select(
        self, archive: str, version_token: str, xpath: Optional[str]
    ) -> None:
        if not xpath:
            raise ApiError("bad-request", "select requires ?xpath=EXPR")

        def run(snapshot: Snapshot):
            version = snapshot.resolve_version(version_token)
            result = snapshot.db.at(version).select(xpath)
            items = [
                item if isinstance(item, str) else to_string(item)
                for item in result
            ]
            return version, result.kind, items, result.stats.as_record()

        snapshot, (version, kind, items, stats) = self.service.read(
            archive, run
        )
        self._stream_ndjson(
            snapshot, kind, items, {"version": version, "stats": stats}
        )

    def _get_changes(
        self,
        archive: str,
        from_token: str,
        to_token: str,
        prefix: Optional[str],
    ) -> None:
        def run(snapshot: Snapshot):
            from_version = snapshot.resolve_version(from_token)
            to_version = snapshot.resolve_version(to_token)
            changes = snapshot.db.between(from_version, to_version).changes(
                prefix
            )
            items = [
                {
                    "kind": change.kind,
                    "path": change.path,
                    "old_content": change.old_content,
                    "new_content": change.new_content,
                }
                for change in changes
            ]
            return from_version, to_version, items

        snapshot, (from_version, to_version, items) = self.service.read(
            archive, run
        )
        self._stream_ndjson(
            snapshot,
            "changes",
            items,
            {"from_version": from_version, "to_version": to_version},
        )

    def _get_history(self, archive: str, path: Optional[str]) -> None:
        if not path:
            raise ApiError("bad-request", "history requires ?path=KEYPATH")

        def run(snapshot: Snapshot):
            history = snapshot.db.history(path)
            return {
                "path": history.path,
                "existence": history.existence.to_text(),
                "changes": (
                    [
                        [timestamps.to_text(), content]
                        for timestamps, content in history.changes
                    ]
                    if history.changes is not None
                    else None
                ),
            }

        snapshot, item = self.service.read(archive, run)
        self._stream_ndjson(snapshot, "elements", [item], {})

    def _get_versions(self, archive: str) -> None:
        def run(snapshot: Snapshot):
            return {
                "versions": snapshot.db.versions().to_text(),
                "last_version": snapshot.last_version,
            }

        snapshot, item = self.service.read(archive, run)
        self._stream_ndjson(snapshot, "elements", [item], {})

    def _get_stats(self, archive: str) -> None:
        def run(snapshot: Snapshot):
            stats = snapshot.backend.stats()
            record = dict(vars(stats))
            record["compression_ratio"] = stats.compression_ratio
            record["backend"] = snapshot.backend.kind
            record["codec"] = snapshot.backend.codec.name
            return record

        snapshot, item = self.service.read(archive, run)
        self._stream_ndjson(snapshot, "elements", [item], {})

    def _post_ingest(self, archive: str) -> None:
        length = int(self.headers.get("content-length") or 0)
        if length <= 0:
            raise ApiError(
                "bad-request", "ingest requires a Content-Length body"
            )
        if length > MAX_INGEST_BYTES:
            raise ApiError(
                "bad-request",
                f"Ingest body of {length} bytes exceeds the "
                f"{MAX_INGEST_BYTES}-byte cap",
            )
        body = self.rfile.read(length)
        self._unread_body = False
        documents = []
        for line_number, raw in enumerate(body.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ApiError(
                    "bad-payload",
                    f"Ingest line {line_number} is not JSON: {error}",
                )
            if not isinstance(record, dict) or "xml" not in record:
                raise ApiError(
                    "bad-payload",
                    f'Ingest line {line_number} must be {{"xml": "..."}}',
                )
            # XMLSyntaxError propagates and classifies as bad-payload.
            documents.append(parse_document(record["xml"]))
        report = self.service.ingest(archive, documents)
        self._send_json(
            200, report, (("X-Archive-Generation", report["generation"]),)
        )


def make_server(
    root: str,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 1,
    quiet: bool = True,
) -> XarchdServer:
    """A ready-to-run server (``port=0`` binds an ephemeral port —
    the tests' and benchmarks' entry point)."""
    service = ArchiveService(root, workers=workers)
    return XarchdServer((host, port), service, quiet=quiet)


def serve(
    root: str,
    *,
    host: str = "127.0.0.1",
    port: int = 8400,
    workers: int = 1,
    quiet: bool = False,
) -> None:
    """Run the server until interrupted (the ``xarchd serve`` command)."""
    server = make_server(
        root, host=host, port=port, workers=workers, quiet=quiet
    )
    address = server.server_address
    print(f"xarchd: serving {root} on http://{address[0]}:{address[1]}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


def run_in_thread(server: XarchdServer) -> threading.Thread:
    """Start ``server`` on a daemon thread (tests and benchmarks)."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread
