"""``repro.client`` — an :class:`ArchiveDB`-shaped facade over ``xarchd``.

::

    from repro.client import connect

    db = connect("http://localhost:8400/archives/swissprot")
    db.at(3).select("/db/dept[name='finance']/emp").all()   # Elements
    db.at("latest").select("//tel/text()").all()            # strings
    db.between(2, 5).changes().all()                        # Change records
    db.history("/db/dept[name=finance]")                    # ElementHistory
    db.ingest([document])                                   # one writer commit
    db.close()

The surface mirrors :class:`repro.query.db.ArchiveDB` — ``at(v).select``,
``between(a,b).changes``, ``history``, ``versions`` — so code written
against a local open works unchanged against a server.  Items come back
typed: ``select`` yields parsed :class:`~repro.xmltree.model.Element`
objects (or plain strings for ``text()`` queries), ``changes`` yields
:class:`~repro.core.tempquery.Change` records, and every
:class:`~repro.query.result.QueryResult` carries the server-side
:class:`~repro.query.result.QueryStats` once exhausted, plus a
``generation`` attribute naming the snapshot the server pinned for it.

Transport is one keep-alive socket per :class:`RemoteDB` (``TCP_NODELAY``,
no ``http.client``): a request's head and body leave in one ``sendall``;
the status line and headers are read into a mapping keyed by lower-cased
name, and the body is read off the socket as NDJSON lines against its
``Content-Length`` (a response with no length must say ``Connection:
close`` and is read to end of stream; one with neither, or with a
``Transfer-Encoding``, is a :class:`RemoteError`).  Issuing a new call
silently drains any half-consumed previous stream.  A ``GET`` whose
kept-alive connection turns out to have been closed by the server is
re-sent once on a fresh one; a timeout is raised as it is, and a
``POST`` is never sent twice.  The connection is **not** thread-safe —
give each thread its own ``connect()`` (they multiplex fine on the
server side).
"""

from __future__ import annotations

import json
import socket
import sys
from typing import Iterable, Iterator, Optional, Union
from urllib.parse import quote, urlsplit

from .core.archive import ArchiveError, ElementHistory
from .core.tempquery import Change
from .core.versionset import VersionSet
from .query.result import CHANGES, ELEMENTS, STRINGS, QueryResult, QueryStats
from .xmltree.model import Element
from .xmltree.parser import parse_document
from .xmltree.serializer import to_string

#: Longest status or header line read from a server.
_MAX_LINE_BYTES = 65536


class RemoteError(ArchiveError):
    """A structured error answered by the server.

    ``code`` is the machine-readable taxonomy entry
    (:data:`repro.server.errors.ERROR_CODES`), ``status`` the HTTP
    status it arrived under.
    """

    def __init__(self, detail: str, *, code: str, status: int) -> None:
        super().__init__(detail)
        self.code = code
        self.status = status


def connect(
    url: str, *, archive: Optional[str] = None, timeout: float = 30.0
) -> "RemoteDB":
    """Open a remote facade over one served archive.

    ``url`` is either the archive resource itself
    (``http://host:port/archives/NAME``) or a server base
    (``http://host:port``) with the name passed as ``archive=``.
    """
    split = urlsplit(url)
    if split.scheme not in ("http", ""):
        raise ArchiveError(f"Unsupported URL scheme {split.scheme!r}")
    host = split.netloc or split.path.split("/", 1)[0]
    path_parts = [part for part in split.path.split("/") if part]
    if split.netloc == "" and path_parts:
        path_parts = path_parts[1:]  # bare host:port without scheme
    if archive is None:
        if len(path_parts) == 2 and path_parts[0] == "archives":
            archive = path_parts[1]
        else:
            raise ArchiveError(
                f"{url!r} does not name an archive; use "
                f"http://host:port/archives/NAME or pass archive="
            )
    elif path_parts and path_parts != ["archives", archive]:
        raise ArchiveError(
            f"{url!r} carries a path and archive={archive!r} was also given"
        )
    return RemoteDB(host, archive, timeout=timeout)


class _Response:
    """One response head, and its body while it is being read off the
    connection: ``Content-Length`` bytes of it, or — under ``Connection:
    close`` and no length — whatever comes before end of stream."""

    def __init__(self, wire: "_Wire", status_line: bytes) -> None:
        self._wire = wire
        #: Header names are lower-cased.
        self.headers: dict = {}
        try:
            self.status = int(status_line.split(None, 2)[1])
            while True:
                line = wire.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                self.headers[name.strip().lower()] = value.strip()
            self.closes = self.headers.get("connection", "").lower() == "close"
            self.sized = "content-length" in self.headers
            if "transfer-encoding" in self.headers:
                raise ValueError("Transfer-Encoding is not spoken here")
            if not self.sized and not self.closes:
                raise ValueError("neither Content-Length nor Connection: close")
            #: Body bytes not read yet.
            self.remaining = (
                int(self.headers["content-length"]) if self.sized else sys.maxsize
            )
        except (ValueError, IndexError) as error:
            raise RemoteError(
                f"Unreadable response from {wire.host}: {error}",
                code="internal-error",
                status=500,
            )

    def lines(self) -> Iterator[bytes]:
        """The rest of the body, a line at a time."""
        while self.remaining:
            try:
                line = self._wire.readline(self.remaining)
            except OSError:
                self._wire.close()
                raise
            if not line:  # end of stream; closing zeroes ``remaining``
                self._wire.close()
                if self.sized:
                    raise ConnectionResetError("Response body ended early")
                return
            self.remaining -= len(line)
            yield line

    def read(self) -> bytes:
        """The rest of the body."""
        return b"".join(self.lines())


class _Wire:
    """One keep-alive connection: each request leaves in one
    ``sendall``; its response must be read (or is drained) before the
    next one."""

    def __init__(self, host: str, timeout: float) -> None:
        self.host = host
        location = urlsplit("//" + host)
        self._address = (location.hostname, location.port or 80)
        self._timeout = timeout
        self._socket: Optional[socket.socket] = None
        self._file = None
        self._response: Optional[_Response] = None

    def close(self) -> None:
        if self._response is not None:
            self._response.remaining = 0  # nothing more to read from it
            self._response = None
        if self._socket is not None:
            self._file.close()
            self._socket.close()
            self._socket = self._file = None

    def readline(self, limit: int = _MAX_LINE_BYTES) -> bytes:
        return self._file.readline(limit)

    def _send(self, payload: bytes) -> bytes:
        """One request out; the status line that answers it."""
        if self._socket is None:
            self._socket = socket.create_connection(self._address, self._timeout)
            self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._file = self._socket.makefile("rb")
        self._socket.sendall(payload)
        line = self.readline()
        if not line:
            raise ConnectionResetError(f"{self.host} closed the connection")
        return line

    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        content_type: Optional[str] = None,
    ) -> _Response:
        previous = self._response
        if previous is not None:
            # Keep-alive hygiene: the previous response must be fully
            # read before the connection can carry another request.
            try:
                for _ in previous.lines():
                    pass
            except OSError:
                pass  # reading it closed the connection
            if previous.closes:
                self.close()
            self._response = None
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
        if body is not None:
            head += (
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        payload = head.encode("latin-1") + b"\r\n" + (body or b"")
        kept_alive = self._socket is not None
        try:
            try:
                line = self._send(payload)
            except ConnectionError:
                # One transparent reconnect, only for a kept-alive
                # connection found closed (the server may drop an idle
                # one between calls).  A timeout is not that, and a
                # resent ingest could double-apply: the caller decides.
                if not kept_alive or method != "GET":
                    raise
                self.close()
                line = self._send(payload)
            self._response = _Response(self, line)
        except (OSError, RemoteError):
            self.close()
            raise
        return self._response


def _server_timing(value: str) -> dict:
    """``{"pin": ms, "read": ms}`` out of a ``Server-Timing`` header."""
    timing = {}
    for entry in value.split(","):
        name, _, duration = entry.partition(";dur=")
        try:
            timing[name.strip()] = float(duration)
        except ValueError:
            continue
    return timing


class RemoteDB:
    """One archive on one server, spoken to over keep-alive HTTP."""

    def __init__(self, host: str, archive: str, *, timeout: float = 30.0) -> None:
        self.archive = archive
        self.host = host
        self._wire = _Wire(host, timeout)
        #: Generation of the snapshot behind the most recent response.
        self.last_generation: Optional[int] = None
        #: The server's own account of the most recent answer, from its
        #: ``Server-Timing`` header: ``{"pin": ms, "read": ms}``.
        self.last_timing: dict = {}

    # -- transport ---------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        content_type: Optional[str] = None,
    ) -> _Response:
        response = self._wire.request(method, path, body, content_type)
        if response.status >= 400:
            raw = response.read()
            try:
                record = json.loads(raw)["error"]
            except (ValueError, KeyError):
                raise RemoteError(
                    f"HTTP {response.status}: {raw[:200]!r}",
                    code="internal-error",
                    status=response.status,
                )
            raise RemoteError(
                record.get("detail", "server error"),
                code=record.get("code", "internal-error"),
                status=response.status,
            )
        generation = response.headers.get("x-archive-generation")
        if generation is not None:
            self.last_generation = int(generation)
        self.last_timing = _server_timing(
            response.headers.get("server-timing", "")
        )
        return response

    def _archive_path(self, suffix: str) -> str:
        return f"/archives/{quote(self.archive, safe='')}{suffix}"

    def _stream(
        self, response: _Response, stats: QueryStats, sink: dict
    ) -> Iterator:
        """Yield item payloads; fold the done record into ``stats``/``sink``."""
        for raw in response.lines():
            record = json.loads(raw)
            if "item" in record:
                yield record["item"]
            elif "done" in record:
                done = record["done"]
                sink.update(done)
                for key, value in (done.get("stats") or {}).items():
                    if hasattr(stats, key):
                        setattr(stats, key, value)
                return
            elif "error" in record:
                error = record["error"]
                raise RemoteError(
                    error.get("detail", "server error"),
                    code=error.get("code", "internal-error"),
                    status=error.get("status", 500),
                )
        raise RemoteError(
            "Stream ended without a done record",
            code="internal-error",
            status=500,
        )

    def _ndjson_result(self, path: str) -> tuple[QueryResult, dict]:
        response = self._request("GET", path)
        kind = response.headers.get("x-result-kind") or ELEMENTS
        generation = self.last_generation
        stats = QueryStats()
        sink: dict = {}
        items = self._stream(response, stats, sink)
        if kind == ELEMENTS:
            typed: Iterator = (
                parse_document(item) if isinstance(item, str) else item
                for item in items
            )
        elif kind == STRINGS:
            typed = items
        elif kind == CHANGES:
            typed = (
                Change(
                    kind=item["kind"],
                    path=item["path"],
                    old_content=item.get("old_content"),
                    new_content=item.get("new_content"),
                )
                for item in items
            )
        else:
            raise RemoteError(
                f"Unknown result kind {kind!r}",
                code="internal-error",
                status=500,
            )
        result = QueryResult(typed, kind, stats)
        result.generation = generation  # the snapshot this answer pinned
        result.done = sink  # the done record, filled once exhausted
        return result, sink

    def _single_record(self, path: str) -> dict:
        result, _ = self._ndjson_result(path)
        records = result.all()
        if len(records) != 1:
            raise RemoteError(
                f"Expected one record from {path}, got {len(records)}",
                code="internal-error",
                status=500,
            )
        record = records[0]
        if isinstance(record, Element):  # kind header says elements, but
            raise RemoteError(  # metadata endpoints carry dicts
                f"Unexpected element payload from {path}",
                code="internal-error",
                status=500,
            )
        return record

    # -- the ArchiveDB surface ---------------------------------------------

    def at(self, version: Union[int, str]) -> "RemoteVersionScope":
        """Scope queries to one version (an integer, or ``'latest'`` —
        resolved against the server-side snapshot pin)."""
        return RemoteVersionScope(self, version)

    def between(self, from_version: int, to_version: int) -> "RemoteRangeScope":
        return RemoteRangeScope(self, from_version, to_version)

    def history(self, path: str) -> ElementHistory:
        record = self._single_record(
            self._archive_path(f"/history?path={quote(path, safe='')}")
        )
        changes = record.get("changes")
        return ElementHistory(
            path=record["path"],
            existence=VersionSet.parse(record["existence"]),
            changes=(
                [
                    (VersionSet.parse(timestamps), content)
                    for timestamps, content in changes
                ]
                if changes is not None
                else None
            ),
        )

    def first_appearance(self, path: str) -> int:
        existence = self.history(path).existence
        if not existence:
            raise ArchiveError(f"Element at {path!r} has an empty existence")
        return existence.min_version()

    def versions(self) -> VersionSet:
        record = self._single_record(self._archive_path("/versions"))
        return VersionSet.parse(record["versions"])

    @property
    def last_version(self) -> int:
        record = self._single_record(self._archive_path("/versions"))
        return int(record["last_version"])

    def stats(self) -> dict:
        """The server-side :class:`ArchiveStats` as a plain record
        (plus ``backend``, ``codec`` and ``generation``)."""
        return self._single_record(self._archive_path("/stats"))

    def ingest(
        self, documents: Iterable[Union[Element, str]]
    ) -> dict:
        """Merge version documents (Elements or XML text) remotely.

        One request is one WAL commit on the server: the whole batch
        publishes as a single new generation, serialized against any
        other writer by the server's per-archive lock.
        """
        lines = []
        for document in documents:
            xml = document if isinstance(document, str) else to_string(document)
            lines.append(json.dumps({"xml": xml}, ensure_ascii=False))
        body = ("\n".join(lines) + "\n").encode("utf-8")
        response = self._request(
            "POST",
            self._archive_path("/ingest"),
            body=body,
            content_type="application/x-ndjson",
        )
        return json.loads(response.read())

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._wire.close()

    def __enter__(self) -> "RemoteDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"RemoteDB({self.host!r}, archive={self.archive!r})"


class RemoteVersionScope:
    """``db.at(v)`` against a server (mirrors ``VersionScope``)."""

    def __init__(self, db: RemoteDB, version: Union[int, str]) -> None:
        self.db = db
        self.version = version

    def select(self, expression: str) -> QueryResult:
        result, _ = self.db._ndjson_result(
            self.db._archive_path(
                f"/at/{self.version}/select?xpath={quote(expression, safe='')}"
            )
        )
        return result

    def __repr__(self) -> str:
        return f"RemoteVersionScope(version={self.version!r}, db={self.db!r})"


class RemoteRangeScope:
    """``db.between(a, b)`` against a server (mirrors ``RangeScope``)."""

    def __init__(self, db: RemoteDB, from_version: int, to_version: int) -> None:
        self.db = db
        self.from_version = from_version
        self.to_version = to_version

    def changes(self, path_prefix: Optional[str] = None) -> QueryResult:
        suffix = f"/between/{self.from_version}/{self.to_version}/changes"
        if path_prefix is not None:
            suffix += f"?prefix={quote(path_prefix, safe='')}"
        result, _ = self.db._ndjson_result(self.db._archive_path(suffix))
        return result

    def __repr__(self) -> str:
        return (
            f"RemoteRangeScope({self.from_version}..{self.to_version}, "
            f"db={self.db!r})"
        )
