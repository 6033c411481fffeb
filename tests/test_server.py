"""Contract tests for ``xarchd`` + ``repro.client``.

Every endpoint is exercised across the full backend matrix (file /
chunked / external), the error taxonomy is checked code-by-code
against :data:`repro.server.errors.ERROR_CODES`, and the concurrency
drill at the end runs readers against a live writer: each response
must be byte-identical to a solo evaluation at the version it pinned —
generations only ever append, so a snapshot answer never depends on
which generation served it.
"""

import dataclasses
import http.client
import json
import os
import shutil
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.client import RemoteError, connect
from repro.cli import main as xarch_main
from repro.core.tempquery import Change
from repro.keys.annotate import KeyViolationError
from repro.query.db import open_db
from repro.query.result import QueryStats
from repro.server.errors import ERROR_CODES, classify_exception
from repro.server.http import MAX_INGEST_BYTES, make_server, run_in_thread
from repro.server.service import PIN_CACHE_SIZE, ArchiveService
from repro.storage import create_archive, open_archive
from repro.storage.backend import manifest_location, read_manifest
from repro.storage.cache import reset_chunk_cache
from repro.storage.codec import get_codec
from repro.storage.faults import CrashPoint, FaultInjector, inject
from repro.storage.fsck import fsck_archive
from repro.storage.integrity import IntegrityError
from repro.xmltree import to_string
from repro.xmltree.model import Element
from repro.xmltree.parser import parse_document

KEYS = "(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))"
KINDS = ("file", "chunked", "external")


def version_doc(stamp: int, records: int = 3) -> Element:
    """Version ``stamp``: ``records`` keyed records, values carry the stamp."""
    body = "".join(
        f"<rec><id>{i}</id><val>v{stamp}-{i}</val></rec>" for i in range(records)
    )
    return parse_document(f"<db>{body}</db>")


def archive_name(kind: str) -> str:
    return "demo.xml" if kind == "file" else f"demo-{kind}"


def seed_archive(root: str, kind: str, versions: int = 2) -> str:
    name = archive_name(kind)
    backend = create_archive(
        os.path.join(root, name), KEYS, kind=kind, chunk_count=4
    )
    backend.ingest_batch(version_doc(v) for v in range(1, versions + 1))
    backend.close()
    return name


@pytest.fixture
def served(tmp_path):
    """A running server over ``tmp_path`` plus its base URL."""
    server = make_server(str(tmp_path), port=0)
    run_in_thread(server)
    host, port = server.server_address
    yield str(tmp_path), f"http://{host}:{port}"
    server.shutdown()
    server.server_close()


def fetch_json(url: str) -> dict:
    with urllib.request.urlopen(url) as response:
        return json.loads(response.read())


# -- endpoint contracts, full backend matrix --------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_endpoints_answer_the_archivedb_surface(served, kind):
    root, base = served
    name = seed_archive(root, kind)
    with connect(f"{base}/archives/{name}") as db:
        assert db.versions().to_text() == "1-2"
        assert db.last_version == 2

        result = db.at(2).select("/db/rec[id='1']/val/text()")
        assert result.all() == ["v2-1"]
        assert result.kind == "strings"
        assert result.generation >= 1

        elements = db.at(1).select("/db/rec[id='0']").all()
        assert len(elements) == 1 and isinstance(elements[0], Element)
        assert elements[0].tag == "rec"

        latest = db.at("latest").select("//val/text()").all()
        assert latest == [f"v2-{i}" for i in range(3)]

        changes = db.between(1, 2).changes().all()
        assert changes and all(isinstance(c, Change) for c in changes)
        assert {c.kind for c in changes} == {"changed"}

        prefixed = db.between(1, 2).changes("/db/rec[id=1]").all()
        assert [c.path for c in prefixed] == ["/db/rec[id=1]/val"]

        history = db.history("/db/rec[id=1]/val")
        assert history.existence.to_text() == "1-2"
        assert [content for _, content in history.changes] == ["v1-1", "v2-1"]

        stats = db.stats()
        assert stats["backend"] == kind
        assert stats["versions"] == 2
        assert stats["generation"] == db.last_generation


@pytest.mark.parametrize("kind", KINDS)
def test_remote_answers_match_a_local_open(served, kind):
    root, base = served
    name = seed_archive(root, kind)
    expressions = ["//val/text()", "/db/rec[id='2']", "/db/rec/val"]
    with connect(f"{base}/archives/{name}") as db:
        local = open_db(os.path.join(root, name))
        try:
            for expression in expressions:
                for version in (1, 2):
                    remote_items = [
                        item if isinstance(item, str) else item.tag
                        for item in db.at(version).select(expression)
                    ]
                    local_items = [
                        item if isinstance(item, str) else item.tag
                        for item in local.at(version).select(expression)
                    ]
                    assert remote_items == local_items
            assert [str(c) for c in db.between(1, 2).changes()] == [
                str(c) for c in local.between(1, 2).changes()
            ]
        finally:
            local.close()


@pytest.mark.parametrize("kind", KINDS)
def test_ingest_publishes_exactly_one_generation(served, kind):
    root, base = served
    name = seed_archive(root, kind)
    with connect(f"{base}/archives/{name}") as db:
        before = db.stats()["generation"]
        report = db.ingest([version_doc(3), version_doc(4)])
        assert report["ingested"] == 2
        assert report["base_version"] == 2
        assert report["last_version"] == 4
        # file/chunked publish the whole batch as one WAL commit; the
        # external backend streams version-at-a-time, one commit each.
        commits = 2 if kind == "external" else 1
        assert report["generation"] == before + commits
        assert db.at(3).select("//val/text()").all() == [
            f"v3-{i}" for i in range(3)
        ]


def test_ingest_reports_the_record_memo(served, tmp_path, capsys):
    """``POST /ingest`` reports one set of skip counters, and ``xarch
    ingest --remote`` prints the records the batch kept."""
    root, base = served
    name = seed_archive(root, "chunked")
    with connect(f"{base}/archives/{name}") as db:
        report = db.ingest([version_doc(3), version_doc(3)])
    assert set(report["merge"]) == {
        "nodes_matched",
        "nodes_inserted",
        "frontier_content_changes",
        "records_kept",
        "nodes_kept",
    }
    assert report["merge"]["records_kept"] == 3  # version 4 repeats version 3
    snapshot = tmp_path / "snapshots" / "v5.xml"
    snapshot.parent.mkdir()
    snapshot.write_text("<db><rec><id>0</id><val>v5-0</val></rec></db>")
    argv = ["ingest", name, str(snapshot), str(snapshot), "--remote", base]
    assert xarch_main(argv) == 0
    assert capsys.readouterr().out.rstrip().endswith(
        "0 inserted, 1 records kept"
    )


def test_wire_format_streams_items_then_done(served):
    root, base = served
    name = seed_archive(root, "file")
    url = f"{base}/archives/{name}/at/2/select?xpath=//val/text()"
    with urllib.request.urlopen(url) as response:
        assert response.headers["Content-Type"] == "application/x-ndjson"
        assert response.headers["X-Result-Kind"] == "strings"
        generation = int(response.headers["X-Archive-Generation"])
        lines = [json.loads(line) for line in response.read().splitlines()]
    assert [line["item"] for line in lines[:-1]] == [
        f"v2-{i}" for i in range(3)
    ]
    done = lines[-1]["done"]
    assert done["count"] == 3
    assert done["version"] == 2
    assert done["generation"] == generation
    assert done["last_version"] == 2
    assert done["stats"]["archive_nodes_visited"] > 0


def test_an_item_line_is_what_json_dumps_writes(served):
    """Item lines are spelt out around one encoder call: each must be
    the bytes ``json.dumps({"item": item}, ensure_ascii=False)`` writes,
    for strings, serialized elements and records alike."""
    root, base = served
    path = os.path.join(root, "odd")
    backend = create_archive(path, KEYS, kind="chunked", chunk_count=4)
    for stamp in (1, 2):
        backend.add_version(
            parse_document(
                "<db><rec><id>0</id><val>q\"uote \\ back\tslash"
                f"\n&lt;é😀  {stamp}</val></rec>"
                f"<rec><id>1</id><val>{stamp}</val></rec></db>"
            )
        )
    backend.close()
    routes = [
        "at/2/select?xpath=//val/text()",
        "at/2/select?xpath=/db/rec",
        "between/1/2/changes",
        "history?path=/db/rec[id=0]/val",
        "stats",
    ]
    for route in routes:
        with urllib.request.urlopen(f"{base}/archives/odd/{route}") as response:
            lines = response.read().decode("utf-8").split("\n")
        items = [line for line in lines if line.startswith('{"item"')]
        assert items, route
        for line in items:
            item = json.loads(line)["item"]
            assert line == json.dumps({"item": item}, ensure_ascii=False)
    with urllib.request.urlopen(
        f"{base}/archives/odd/at/1/select?xpath=//val/text()"
    ) as response:
        first = json.loads(response.read().splitlines()[0])["item"]
    assert first == 'q"uote \\ back\tslash\n<é😀  1'


def test_back_to_back_requests_on_one_connection_do_not_stall(served):
    """A response written in several small segments makes the request
    that follows it on a keep-alive connection wait out the client's
    delayed ACK (~40 ms, even for ``/healthz``)."""
    root, base = served
    name = seed_archive(root, "chunked")
    host, port = base.removeprefix("http://").split(":")
    connection = http.client.HTTPConnection(host, int(port))
    paths = ["/healthz", f"/archives/{name}/at/2/select?xpath=//val/text()"]
    try:
        for path in paths:
            seconds = []
            for _ in range(11):  # the first request opens the connection
                start = time.perf_counter()
                connection.request("GET", path)
                response = connection.getresponse()
                body = response.read()
                seconds.append(time.perf_counter() - start)
                assert response.status == 200 and body
            assert statistics.median(seconds[1:]) < 0.020, (path, seconds)
    finally:
        connection.close()


# -- the wire: one sized write per response ----------------------------------


def read_response(stream):
    """``(status, headers, body)`` of the next response on a raw socket
    stream (header names lower-cased), ``None`` at end of stream."""
    status_line = stream.readline()
    if not status_line:
        return None
    headers = {}
    for line in iter(stream.readline, b"\r\n"):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, body


def exchange(base: str, payload: bytes) -> list:
    """Send ``payload`` on a fresh connection, half-close, and collect
    every response up to the server's end of stream."""
    host, port = base.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        stream = sock.makefile("rb")
        return list(iter(lambda: read_response(stream), None))


def get(path: str, *headers: str, protocol: str = "HTTP/1.1") -> bytes:
    lines = [f"GET {path} {protocol}", "Host: test", *headers, "", ""]
    return "\r\n".join(lines).encode("latin-1")


def test_every_answer_is_one_sized_body(served):
    root, base = served
    name = "accents.xml"
    backend = create_archive(os.path.join(root, name), KEYS)
    for stamp in (1, 2):
        backend.add_version(
            parse_document(
                f"<db><rec><id>1</id><val>caf\u00e9 \u65e5\u672c v{stamp}</val></rec></db>"
            )
        )
    backend.close()
    prefix = f"/archives/{name}"
    paths = [
        f"{prefix}/at/2/select?xpath=//val/text()",
        f"{prefix}/at/1/select?xpath=/db/rec",
        f"{prefix}/history?path=/db/rec[id=1]/val",
        f"{prefix}/between/1/2/changes",
        f"{prefix}/versions",
        f"{prefix}/stats",
        f"{prefix}/at/9/select?xpath=//val",  # 404, structured
        "/nope",
        "/healthz",
    ]
    responses = exchange(base, b"".join(get(path) for path in paths))
    assert [status for status, _, _ in responses] == [200] * 6 + [404, 404, 200]
    for status, headers, body in responses:
        # read_response took Content-Length *bytes*; a length counted in
        # characters would leave the next status line unreadable.
        assert "transfer-encoding" not in headers
        assert body.endswith(b"\n")
        assert headers["server"].startswith("xarchd/") and "date" in headers
    for status, headers, body in responses[:6]:
        assert headers["content-type"] == "application/x-ndjson"
        assert int(headers["x-archive-generation"]) >= 1
        timing = dict(
            entry.strip().split(";dur=")
            for entry in headers["server-timing"].split(",")
        )
        assert set(timing) == {"pin", "read"}
        assert all(float(value) >= 0.0 for value in timing.values())
        # The line format, to the byte: compact-separator-free
        # ``json.dumps`` lines, non-ASCII text sent as itself.
        records = [json.loads(line) for line in body.splitlines()]
        rebuilt = [
            json.dumps(record, ensure_ascii="done" in record) + "\n"
            for record in records
        ]
        assert "".join(rebuilt).encode("utf-8") == body
        assert all(list(record) == ["item"] for record in records[:-1])
        assert list(records[-1]) == ["done"]
    # The select's done record, field for field and in wire order.
    strings, elements = responses[0], responses[1]
    assert strings[1]["x-result-kind"] == "strings"
    assert strings[2].startswith(
        '{"item": "caf\u00e9 \u65e5\u672c v2"}\n{"done": {"version": 2, "stats": {'.encode("utf-8")
    )
    done = json.loads(strings[2].splitlines()[-1])["done"]
    assert list(done) == [
        "version", "stats", "count", "generation", "last_version", "cache",
    ]
    assert list(done["stats"]) == [
        field.name for field in dataclasses.fields(QueryStats)
    ]
    assert list(done["cache"]) == [
        "snapshot_reused", "pin_hits", "pin_misses", "pin_evictions",
        "chunk_hits", "chunk_misses", "chunk_evictions",
    ]
    assert elements[1]["x-result-kind"] == "elements"
    assert json.loads(elements[2].splitlines()[0])["item"] == (
        "<rec><id>1</id><val>caf\u00e9 \u65e5\u672c v1</val></rec>"
    )


# -- the request head, over a raw socket -------------------------------------


def test_a_refused_request_head_is_answered_then_closed(served):
    _, base = served
    refused = [
        # Exactly one byte over the line limit, so the server has read
        # all that was sent before it answers and closes.
        (b"GET /" + b"a" * 65532, 414),
        (b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 65529, 431),
        (get("/healthz", *[f"X-{n}: {n}" for n in range(100)]), 431),
        (b"GET /healthz\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.x\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", 400),
        (get("/healthz", "Content-Length: many"), 400),
        (get("/healthz", protocol="HTTP/2.0"), 505),
        (b"BREW /healthz HTTP/1.1\r\n\r\n", 501),
    ]
    for payload, status in refused:
        # A second request rides behind the bad one: it is not answered.
        responses = exchange(base, payload + get("/healthz"))
        assert [response[0] for response in responses] == [status], payload[:40]
        assert responses[0][1]["connection"] == "close"
    # The limits admit what they should: 99 headers beside Host make
    # 100, and a long line that is not over-long is a line.
    full = get("/healthz", *[f"X-{n}: {n}" for n in range(99)])
    long_line = get("/healthz", "X-Long: " + "a" * 65000)
    responses = exchange(base, full + long_line)
    assert [response[0] for response in responses] == [200, 200]


def test_what_keeps_a_connection_open_and_what_closes_it(served):
    root, base = served
    name = seed_archive(root, "file")
    host, port = base.removeprefix("http://").split(":")
    # Pipelined requests on one segment are each answered, in order.
    path = f"/archives/{name}/at/2/select?xpath=//val/text()"
    responses = exchange(base, get(path) + get("/healthz") + get(path))
    assert [response[0] for response in responses] == [200, 200, 200]
    assert responses[0][2].splitlines()[:3] == responses[2][2].splitlines()[:3]
    assert all("connection" not in response[1] for response in responses)
    # HTTP/1.0 and ``Connection: close`` (a header name in any case)
    # make the server hang up: no half-close from this side.
    for request_bytes in (
        get("/healthz", protocol="HTTP/1.0"),
        get("/healthz", "Connection: close"),
        get("/healthz", "cOnNeCtIoN: Close"),
    ):
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(request_bytes)
            stream = sock.makefile("rb")
            status, headers, body = read_response(stream)
            assert status == 200 and json.loads(body)["status"] == "ok"
            assert headers["connection"] == "close"
            assert read_response(stream) is None
    # So does a request body nobody read.  A 400 sent before the body
    # was consumed used to leave the connection open, and the server
    # then parsed the body as the next request.
    for length_header in (
        f"Content-Length: {MAX_INGEST_BYTES + 1}",
        "Transfer-Encoding: chunked",
    ):
        head = (
            f"POST /archives/{name}/ingest HTTP/1.1\r\nHost: test\r\n"
            f"{length_header}\r\n\r\n"
        ).encode("latin-1")
        responses = exchange(base, head + get("/healthz"))  # request-shaped body
        assert [response[0] for response in responses] == [400], length_header
        assert json.loads(responses[0][2])["error"]["code"] == "bad-request"
        assert responses[0][1]["connection"] == "close"


# -- the pin's manifest memo -------------------------------------------------


def pinned_generation(db) -> int:
    db.versions()
    return db.last_generation


def test_every_publish_is_seen_by_the_very_next_request(served, tmp_path):
    root, base = served
    for kind in KINDS:
        name = seed_archive(root, kind)
        path = os.path.join(root, name)
        with connect(f"{base}/archives/{name}") as db:
            generation = pinned_generation(db)
            assert pinned_generation(db) == generation  # from the memo
            # Through the server's own writer ...
            assert db.ingest([version_doc(3)])["generation"] == generation + 1
            assert pinned_generation(db) == generation + 1
            # ... through another handle (as another process would) ...
            backend = open_archive(path)
            backend.add_version(version_doc(4))
            backend.close()
            assert pinned_generation(db) == generation + 2
            # ... through the command line ...
            snapshot = tmp_path / "v5.xml"
            snapshot.write_text("<db><rec><id>0</id><val>v5-0</val></rec></db>")
            assert xarch_main(["add", path, str(snapshot)]) == 0
            assert pinned_generation(db) == generation + 3
            # ... and when the clock did not move between two manifests
            # (a coarse filesystem timestamp): the rename still gave the
            # new one its own inode.
            location = manifest_location(path)
            before = os.stat(location)
            backend = open_archive(path)
            backend.add_version(version_doc(6, records=1))
            backend.close()
            os.utime(location, ns=(before.st_atime_ns, before.st_mtime_ns))
            assert os.stat(location).st_mtime_ns == before.st_mtime_ns
            assert pinned_generation(db) == generation + 4, kind
            assert db.last_version == 6
            assert db.at("latest").select("//val/text()").all() == ["v6-0"]


def test_an_archive_removed_after_being_served_is_not_found(served):
    root, base = served
    names = [seed_archive(root, kind) for kind in KINDS]
    dbs = [connect(f"{base}/archives/{name}") for name in names]
    try:
        assert [db.last_version for db in dbs] == [2, 2, 2]
        for entry in os.listdir(root):
            path = os.path.join(root, entry)
            shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)
        for db in dbs * 2:
            expect_error(lambda: db.last_version, "archive-not-found")
    finally:
        for db in dbs:
            db.close()


def test_a_garbage_manifest_answers_500_and_recovers_when_restored(served):
    root, base = served
    name = seed_archive(root, "chunked")
    location = manifest_location(os.path.join(root, name))
    with open(location, "rb") as handle:
        good = handle.read()
    with connect(f"{base}/archives/{name}") as db:
        generation = pinned_generation(db)
        with open(location, "wb") as handle:
            handle.write(b"not a manifest")
        error = expect_error(lambda: db.versions(), "corruption-detected")
        assert error.status == 500
        with open(location, "wb") as handle:
            handle.write(good)
        assert pinned_generation(db) == generation
        assert db.at(2).select("//val/text()").all() == [
            f"v2-{i}" for i in range(3)
        ]


def latest_values(db):
    return db.at(db.last_version).select("//val/text()").all()


def stale_pin(tmp_path, answer):
    """A service whose manifest memo outlives its generation (here
    forged; on disk it takes a reused inode within one timestamp tick):
    a chunked archive is pinned and read once through the service, which
    warms the decoded-chunk cache, then a version is published behind
    the service's back.  Returns the service, the archive's name, the
    pinned snapshot and ``answer`` of a solo open of that generation."""
    name = seed_archive(str(tmp_path), "chunked")
    path = os.path.join(str(tmp_path), name)
    solo = open_archive(path, recover=False)
    expected = answer(solo.db())
    solo.close()
    reset_chunk_cache()  # the service's read is the one that warms it
    service = ArchiveService(str(tmp_path))
    stale, first = service.read(name, lambda pinned: answer(pinned.db))
    assert first == expected
    backend = open_archive(path)
    backend.add_version(version_doc(3))
    backend.close()
    status = os.stat(manifest_location(path))
    entry = service._published[name]
    service._published[name] = entry[:2] + (
        (status.st_ino, status.st_mtime_ns, status.st_size),
    ) + entry[3:]
    return service, name, stale, expected


def test_reconcile_forgets_the_manifest_that_named_the_stale_pin(tmp_path):
    """A memo entry that outlives its generation can only name an older
    pin, whose first miss on a re-published chunk fails its checksum —
    and that reconcile must drop the entry, or every later request
    misses the pin cache and opens the archive again."""
    service, name, stale, _ = stale_pin(tmp_path, latest_values)

    def latest(pinned):
        return latest_values(pinned.db)

    # With the decoded chunks gone, the stale pin's first load is a
    # miss: the re-published chunk fails its checksum, and the
    # reconcile re-reads the manifest and answers anew.
    reset_chunk_cache()
    snapshot, items = service.read(name, latest)
    assert snapshot.generation == stale.generation + 1
    assert items == [f"v3-{i}" for i in range(3)]
    assert service._published[name][3].generation == stale.generation + 1
    for _ in range(2):
        snapshot, items = service.read(name, latest)
        assert snapshot.cached and snapshot.generation == stale.generation + 1
        assert items == [f"v3-{i}" for i in range(3)]
    service.pins.clear()


def test_a_warm_stale_pin_answers_as_its_own_generation(tmp_path):
    """A stale pin whose chunks are all cached reads nothing from disk:
    it answers from the trees its own generation verified, byte for
    byte what a solo open of that generation answers — never the
    republished chunks, never a mix of the two."""

    def answers(db):
        return (
            db.last_version,
            latest_values(db),
            db.at(1).select("/db/rec[id='1']/val/text()").all(),
            [to_string(element) for element in db.at(2).select("/db/rec").all()],
            to_string(db.backend.retrieve(2)),
            str(db.history("/db/rec[id=1]/val")),
        )

    service, name, stale, expected = stale_pin(tmp_path, answers)
    misses = stale.backend.cache_misses
    snapshot, got = service.read(name, lambda pinned: answers(pinned.db))
    assert snapshot.cached and snapshot.generation == stale.generation
    assert got == expected
    assert snapshot.backend.cache_misses == misses  # every load a hit
    service.pins.clear()


# -- the client's transport --------------------------------------------------


class ScriptedServer:
    """A listening socket that answers the requests it reads, counted
    across connections, by script: each entry is ``(payload, then)`` —
    bytes to send (or ``None``), then ``"keep"`` the connection,
    ``"close"`` it, or ``"stall"`` until the test ends."""

    def __init__(self, script):
        self.script = script
        self.requests = []
        self.connections = 0
        self.finished = threading.Event()
        self.listener = socket.create_server(("127.0.0.1", 0))
        port = self.listener.getsockname()[1]
        self.url = f"http://127.0.0.1:{port}/archives/demo"
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                connection, _ = self.listener.accept()
            except OSError:
                return  # closed
            self.connections += 1
            threading.Thread(
                target=self._serve, args=(connection,), daemon=True
            ).start()

    def _serve(self, connection):
        with connection:
            stream = connection.makefile("rb")
            while True:
                head = b"".join(iter(stream.readline, b"\r\n"))
                if not head:
                    return
                payload, then = self.script[len(self.requests)]
                self.requests.append(head.split(b"\r\n", 1)[0].decode())
                if payload is not None:
                    connection.sendall(payload)
                if then == "stall":
                    self.finished.wait(30)
                if then != "keep":
                    return

    def close(self):
        self.finished.set()
        self.listener.close()


def ndjson_answer(
    item, *, length=True, close=False, kind="elements", done=None
) -> bytes:
    done = {"count": 1} if done is None else done
    body = (
        json.dumps({"item": item}) + "\n" + json.dumps({"done": done}) + "\n"
    ).encode()
    head = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
    head += f"X-Result-Kind: {kind}\r\nX-Archive-Generation: 7\r\n"
    if length:
        head += f"Content-Length: {len(body)}\r\n"
    if close:
        head += "Connection: close\r\n"
    return head.encode() + b"\r\n" + body


VERSIONS = {"versions": "1-2", "last_version": 2}


@pytest.fixture
def scripted():
    servers = []

    def start(script):
        servers.append(ScriptedServer(script))
        return servers[-1]

    yield start
    for server in servers:
        server.close()


def test_client_does_not_resend_a_get_that_timed_out(scripted):
    server = scripted([(ndjson_answer(VERSIONS), "keep"), (None, "stall")])
    with connect(server.url, timeout=0.3) as db:
        assert db.last_version == 2
        with pytest.raises(TimeoutError):
            db.versions()
    # Sent once, on the connection it had: not again on a fresh one.
    assert server.requests == ["GET /archives/demo/versions HTTP/1.1"] * 2
    assert server.connections == 1


def test_client_reconnects_once_when_its_kept_connection_was_closed(scripted):
    answer = ndjson_answer(VERSIONS)
    server = scripted(
        [
            (answer, "close"),  # dropped while idle
            (answer, "keep"),  # the reconnect
            (None, "close"),  # found closed only after the send
            (answer, "keep"),  # the reconnect
            (None, "close"),  # a POST is never sent twice
        ]
    )
    with connect(server.url, timeout=5) as db:
        assert db.last_version == 2
        assert db.last_version == 2 and server.connections == 2
        assert db.last_version == 2 and server.connections == 3
        with pytest.raises(ConnectionError):
            db.ingest([version_doc(3)])
    assert server.connections == 3
    assert [line.split()[0] for line in server.requests] == ["GET"] * 4 + ["POST"]
    # And a fresh connection that dies is an error, not a retry loop.
    server = scripted([(None, "close")])
    with connect(server.url, timeout=5) as db:
        with pytest.raises(ConnectionError):
            db.versions()
    assert server.connections == 1


def test_client_wants_a_length_or_a_close(scripted):
    server = scripted(
        [
            (ndjson_answer(VERSIONS, length=False), "keep"),
            (ndjson_answer(VERSIONS, length=False, close=True), "close"),
            (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n", "close"),
            (b"garbage\r\n\r\n", "close"),
        ]
    )
    with connect(server.url, timeout=5) as db:
        with pytest.raises(RemoteError, match="neither Content-Length"):
            db.versions()
        assert db.last_version == 2  # a body that runs to end of stream
        with pytest.raises(RemoteError, match="Transfer-Encoding"):
            db.versions()
        with pytest.raises(RemoteError, match="Unreadable response"):
            db.versions()
    assert server.connections == 4


def test_client_skips_stats_fields_it_does_not_know(scripted):
    """An older server's done record still names the process pool's
    ``parallel_chunks`` and ``workers_used``: the answer decodes, and
    the counters the client knows arrive intact."""
    stats = {
        "archive_nodes_visited": 5, "index_lookups": 2, "chunks_pruned": 1,
        "parallel_chunks": 3, "workers_used": 2,
    }
    done = {"version": 2, "stats": stats, "count": 1}
    server = scripted([(ndjson_answer("v2-0", kind="strings", done=done), "keep")])
    with connect(server.url, timeout=5) as db:
        result = db.at(2).select("//val/text()")
        assert result.all() == ["v2-0"]
    assert result.stats == QueryStats(
        archive_nodes_visited=5, index_lookups=2, chunks_pruned=1
    )
    assert result.done["stats"]["workers_used"] == 2


def test_client_drains_a_half_read_stream_and_fills_the_result(served):
    root, base = served
    name = seed_archive(root, "chunked")
    with connect(f"{base}/archives/{name}") as db:
        abandoned = db.at(2).select("//val/text()")
        assert next(iter(abandoned)) == "v2-0"
        # The next call finds the rest of that body in its way.
        result = db.at(1).select("//val/text()")
        assert result.all() == [f"v1-{i}" for i in range(3)]
        assert result.done["count"] == 3 and result.done["version"] == 1
        assert result.done["cache"]["pin_hits"] >= 1
        assert result.stats.nodes_materialized > 0
        assert dataclasses.asdict(result.stats) == result.done["stats"]
        assert result.generation == db.last_generation == result.done["generation"]
        assert set(db.last_timing) == {"pin", "read"}
        assert 0.0 <= db.last_timing["pin"] < db.last_timing["read"] < 10_000.0
        # What the abandoned result had not read is gone with the drain.
        with pytest.raises(RemoteError, match="without a done record"):
            abandoned.all()
        assert db.history("/db/rec[id=1]/val").existence.to_text() == "1-2"


def test_healthz_and_listing(served):
    root, base = served
    for kind in KINDS:
        seed_archive(root, kind)
    health = fetch_json(f"{base}/healthz")
    assert health == {"status": "ok", "archives": 3}
    listing = fetch_json(f"{base}/archives")["archives"]
    assert [record["name"] for record in listing] == sorted(
        archive_name(kind) for kind in KINDS
    )
    by_name = {record["name"]: record for record in listing}
    for kind in KINDS:
        record = by_name[archive_name(kind)]
        assert record["kind"] == kind
        assert record["versions"] == 2
        assert record["generation"] >= 1
    # Sidecars of the file archive never appear as archives themselves.
    assert not any(name.endswith((".keys", ".manifest.json")) for name in by_name)


def test_one_damaged_manifest_leaves_healthz_and_the_listing_up(served):
    """An archive whose manifest does not read is listed by name and
    error code; the server and the other archives stay up."""
    root, base = served
    name = seed_archive(root, "chunked")
    shutil.copytree(os.path.join(root, name), os.path.join(root, "damaged"))
    with open(manifest_location(os.path.join(root, "damaged")), "wb") as handle:
        handle.write(b"not a manifest")
    assert fetch_json(f"{base}/healthz") == {"status": "ok", "archives": 2}
    listing = fetch_json(f"{base}/archives")["archives"]
    assert listing[0] == {"name": "damaged", "error": "corruption-detected"}
    assert listing[1]["name"] == name and listing[1]["versions"] == 2
    with connect(f"{base}/archives/damaged") as db:
        expect_error(lambda: db.versions(), "corruption-detected")
    with connect(f"{base}/archives/{name}") as db:
        assert db.last_version == 2


# -- the error taxonomy ------------------------------------------------------


def expect_error(callable_, code):
    with pytest.raises(RemoteError) as caught:
        callable_()
    assert caught.value.code == code
    assert caught.value.status == ERROR_CODES[code][0]
    return caught.value


def test_error_taxonomy_on_the_wire(served):
    root, base = served
    name = seed_archive(root, "file")
    with connect(f"{base}/archives/{name}") as db:
        expect_error(lambda: db.at(99).select("//val").all(), "version-not-archived")
        expect_error(lambda: db.at("v2").select("//val").all(), "bad-request")
        expect_error(lambda: db.at(1).select("///").all(), "bad-request")
        expect_error(lambda: db.history("/nope/nope"), "bad-request")
        expect_error(lambda: db.ingest(["<unclosed>"]), "bad-payload")
        expect_error(lambda: db.ingest([]), "bad-request")
    with connect(f"{base}/archives/missing") as db:
        expect_error(lambda: db.stats(), "archive-not-found")
    with connect(base, archive="..") as db:
        expect_error(lambda: db.stats(), "bad-request")

    def status_of(url, method="GET"):
        request = urllib.request.Request(url, method=method)
        try:
            urllib.request.urlopen(request)
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())["error"]
        raise AssertionError("expected an error response")

    status, body = status_of(f"{base}/nope")
    assert (status, body["code"]) == (404, "not-found")
    status, body = status_of(f"{base}/archives/{name}/ingest")
    assert (status, body["code"]) == (405, "method-not-allowed")


def test_corruption_answers_500_with_fsck_hint(served):
    root, base = served
    name = seed_archive(root, "chunked")
    # Flip payload bytes in one chunk: reads must classify as detected
    # corruption (after the reconcile retries decide it is not a racing
    # publish), never as a success or a generic 500.
    store = os.path.join(root, name)
    chunk = next(
        os.path.join(store, entry)
        for entry in sorted(os.listdir(store))
        if entry.startswith("chunk-") and entry.endswith(".xml")
        and os.path.getsize(os.path.join(store, entry))
    )
    with open(chunk, "r+b") as handle:
        handle.seek(0)
        handle.write(b"X")
    url = f"{base}/archives/{name}/at/1/select?xpath=//val/text()"
    try:
        urllib.request.urlopen(url)
        raise AssertionError("expected a 500")
    except urllib.error.HTTPError as error:
        assert error.code == 500
        body = json.loads(error.read())["error"]
        assert body["code"] == "corruption-detected"
        assert "fsck" in body["hint"]


def test_classify_exception_covers_the_cli_taxonomy():
    from repro.storage.codec import CodecError
    from repro.storage.wal import WalError
    from repro.xmltree.parser import XMLSyntaxError

    assert classify_exception(IntegrityError("x")) == ("corruption-detected", 500)
    assert classify_exception(WalError("x")) == ("wal-corrupt", 500)
    assert classify_exception(CodecError("x")) == ("codec-corrupt", 500)
    assert classify_exception(XMLSyntaxError("x", 0, 1)) == ("bad-payload", 400)
    assert classify_exception(ValueError("x")) == ("bad-request", 400)
    assert classify_exception(RuntimeError("x")) == ("internal-error", 500)


# -- generation publication --------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_generation_advances_once_per_commit(tmp_path, kind):
    path = os.path.join(tmp_path, archive_name(kind))
    backend = create_archive(path, KEYS, kind=kind, chunk_count=4)
    start = backend.generation
    backend.add_version(version_doc(1))
    backend.add_version(version_doc(2))
    assert backend.generation == start + 2
    assert backend.stats().generation == backend.generation
    backend.close()
    # The counter is durable: the manifest carries it and a fresh open
    # (and the CLI's stats) reads it back.
    manifest = read_manifest(path)
    assert manifest is not None and manifest.generation == start + 2
    reopened = open_archive(path)
    assert reopened.generation == start + 2
    reopened.close()


def test_stats_cli_prints_the_generation(tmp_path, capsys):
    path = os.path.join(tmp_path, "demo.xml")
    backend = create_archive(path, KEYS)
    backend.add_version(version_doc(1))
    generation = backend.generation
    backend.close()
    assert xarch_main(["stats", path]) == 0
    out = capsys.readouterr().out
    assert f"generation:         {generation}" in out


def test_snapshot_open_skips_recovery_sweeps(tmp_path):
    path = os.path.join(tmp_path, "demo-chunked")
    backend = create_archive(path, KEYS, kind="chunked", chunk_count=4)
    backend.add_version(version_doc(1))
    backend.close()
    # A stray staged file stands in for a writer's in-flight commit: the
    # default open sweeps it, the snapshot open must leave it alone.
    stray = os.path.join(path, "chunk-0000.xml.tmp")
    with open(stray, "wb") as handle:
        handle.write(b"staged by a live writer")
    snapshot = open_archive(path, recover=False)
    assert snapshot.retrieve(1) is not None
    snapshot.close()
    assert os.path.exists(stray)
    writer = open_archive(path)  # recover=True is the default
    writer.close()
    assert not os.path.exists(stray)


# -- the held writer -----------------------------------------------------------


def store_files(root: str) -> dict:
    """Every file under ``root`` (payloads, manifests, keys) by relative path."""
    files = {}
    for directory, _, names in os.walk(root):
        for entry in names:
            full = os.path.join(directory, entry)
            with open(full, "rb") as handle:
                files[os.path.relpath(full, root)] = handle.read()
    return files


def fresh_per_version(root: str, kind: str, documents) -> dict:
    """The files of a store seeded as ``seed_archive`` seeds it, then
    given each of ``documents`` through a handle opened for it alone."""
    path = os.path.join(root, seed_archive(root, kind))
    for document in documents:
        backend = open_archive(path)
        backend.add_version(document)
        backend.close()
    return store_files(root)


def held_writer(service: ArchiveService, name: str):
    """The write handle the service holds for ``name`` (``None``: none)."""
    held = service.pins._writers.get(name)
    return None if held is None else held[0]


class DeadFrom(FaultInjector):
    """A process that dies before the ``index``-th counted operation and
    does nothing after it: every later operation crashes too, so not
    even the failed handle's reload settles what the death left."""

    def __init__(self, index):
        super().__init__()
        self.crash_at = index

    def before_op(self, kind, path):
        if self.op_count >= self.crash_at:
            self.crash_at = self.op_count
        super().before_op(kind, path)


def test_the_second_post_decodes_no_chunk(tmp_path, monkeypatch):
    name = seed_archive(str(tmp_path), "chunked")
    service = ArchiveService(str(tmp_path))
    service.ingest(name, [version_doc(3)])
    codec = get_codec(read_manifest(os.path.join(str(tmp_path), name)).codec)
    decodes = []
    decode = codec.decode_archive
    monkeypatch.setattr(
        codec,
        "decode_archive",
        lambda data, *args: decodes.append(len(data)) or decode(data, *args),
    )
    report = service.ingest(name, [version_doc(4)])
    assert report["last_version"] == 4
    assert decodes == []
    service.pins.clear()
    assert held_writer(service, name) is None


@pytest.mark.parametrize("kind", KINDS)
def test_a_held_writer_lands_after_other_writers(tmp_path, kind):
    """The held writer notices every commit it did not make and writes
    the bytes a handle opened per version writes."""
    root = str(tmp_path / "held")
    os.makedirs(root)
    name = seed_archive(root, kind)
    path = os.path.join(root, name)
    service = ArchiveService(root)
    text = "<db><rec><id>0</id><val>v5-0</val></rec></db>"
    snapshot = tmp_path / "v5.xml"
    snapshot.write_text(text)
    assert service.ingest(name, [version_doc(3)])["last_version"] == 3
    backend = open_archive(path)
    backend.add_version(version_doc(4))
    backend.close()
    assert xarch_main(["add", path, str(snapshot)]) == 0
    held = held_writer(service, name)
    assert held is not None
    report = service.ingest(name, [version_doc(6)])
    assert (report["base_version"], report["last_version"]) == (5, 6)
    assert held_writer(service, name) is not held  # reopened
    # No one else wrote: the next POST keeps the handle.
    held = held_writer(service, name)
    assert service.ingest(name, [version_doc(7)])["last_version"] == 7
    assert held_writer(service, name) is held
    service.pins.clear()
    fresh = str(tmp_path / "fresh")
    os.makedirs(fresh)
    documents = [version_doc(3), version_doc(4), parse_document(text)]
    documents += [version_doc(6), version_doc(7)]
    assert store_files(root) == fresh_per_version(fresh, kind, documents)


@pytest.mark.parametrize("kind", KINDS)
def test_a_rejected_post_closes_the_held_writer(tmp_path, kind):
    root = str(tmp_path / "held")
    os.makedirs(root)
    name = seed_archive(root, kind)
    service = ArchiveService(root)
    service.ingest(name, [version_doc(3)])
    assert held_writer(service, name) is not None
    duplicate = parse_document(
        "<db><rec><id>0</id><val>a</val></rec><rec><id>0</id><val>b</val></rec></db>"
    )
    with pytest.raises(KeyViolationError):
        service.ingest(name, [duplicate])
    assert held_writer(service, name) is None
    assert service.ingest(name, [version_doc(4)])["last_version"] == 4
    service.pins.clear()
    fresh = str(tmp_path / "fresh")
    os.makedirs(fresh)
    expected = fresh_per_version(fresh, kind, [version_doc(3), version_doc(4)])
    assert store_files(root) == expected


def outcome(write):
    """What ``write()`` returned, or the type and text of what it raised."""
    try:
        return write()
    except Exception as error:
        return type(error).__name__, str(error)


@pytest.mark.parametrize("damage", [b"\x00", b"X"])
def test_a_repair_between_two_posts_is_noticed(tmp_path, damage):
    """``fsck --repair`` rewrites the manifest (here it quarantines a
    chunk that no longer decodes, or records the checksum of one that
    still does): the next POST must meet the repaired store as a fresh
    open does."""
    root = str(tmp_path / "held")
    os.makedirs(root)
    name = seed_archive(root, "chunked")
    path = os.path.join(root, name)
    service = ArchiveService(root)
    service.ingest(name, [version_doc(3)])
    generation = read_manifest(path).generation
    with open(os.path.join(path, "chunk-0000.xml"), "r+b") as handle:
        handle.seek(10)
        handle.write(damage)
    assert not fsck_archive(path, repair=True).clean
    assert read_manifest(path).generation > generation
    twin = str(tmp_path / "twin")
    shutil.copytree(root, twin)
    fresh = open_archive(os.path.join(twin, name))

    def fresh_write():
        fresh.add_version(version_doc(4))
        return fresh.last_version

    got = outcome(lambda: service.ingest(name, [version_doc(4)])["last_version"])
    assert got == outcome(fresh_write)
    assert store_files(root) == store_files(twin)


def test_the_read_after_a_repair_misses_the_pin_without_a_retry(
    tmp_path, monkeypatch
):
    """A repair that re-records a chunk's checksum publishes the next
    generation, so the next read misses the pin cache and opens the
    repaired store: it is not handed the pre-repair pin, whose first
    load would fail its checksum, sleep and re-pin."""
    name = seed_archive(str(tmp_path), "chunked")
    path = os.path.join(str(tmp_path), name)
    service = ArchiveService(str(tmp_path))

    def latest(pinned):
        return latest_values(pinned.db)

    snapshot, expected = service.read(name, latest)
    generation = snapshot.generation
    chunk = os.path.join(path, "chunk-0000.xml")
    with open(chunk, "rb") as handle:
        payload = handle.read()
    at = payload.index(b"<root>\n") + len(b"<root>")
    with open(chunk, "r+b") as handle:  # the same content, other bytes
        handle.seek(at)
        handle.write(b" ")
    assert not fsck_archive(path, repair=True).clean
    assert read_manifest(path).generation == generation + 1
    reset_chunk_cache()
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    pins = service.pins
    before = (pins.hits, pins.misses, pins.evictions)
    snapshot, items = service.read(name, latest)
    assert items == expected
    assert snapshot.generation == generation + 1 and not snapshot.cached
    assert (pins.hits, pins.misses, pins.evictions) == (
        before[0], before[1] + 1, before[2]
    )
    assert sleeps == []
    pins.clear()


def crash_drill(tmp_path, kind, crash):
    """Seed a store and POST version 3 through a service, so it holds
    its writer; run ``crash(service, name, path)``, which writes version
    4, under a crash at each operation the dry run counts; then POST
    version 5.  That POST must land on the
    settled state, as the version after the last one that landed, in
    the bytes a handle opened per version writes, and scrub clean."""
    pre = str(tmp_path / "pre")
    os.makedirs(pre)
    name = seed_archive(pre, kind)
    references = {}
    for landed in (3, 4):
        fresh = str(tmp_path / f"fresh{landed}")
        os.makedirs(fresh)
        documents = [version_doc(v) for v in range(3, landed + 1)]
        documents.append(version_doc(5))
        references[landed] = fresh_per_version(fresh, kind, documents)
    work = str(tmp_path / "work")
    shutil.copytree(pre, work)
    counter = FaultInjector()
    service = ArchiveService(work)
    service.ingest(name, [version_doc(3)])
    with inject(counter):
        crash(service, name, os.path.join(work, name))
    assert counter.op_count > 0
    for index in range(counter.op_count):
        shutil.rmtree(work)
        shutil.copytree(pre, work)
        service = ArchiveService(work)
        service.ingest(name, [version_doc(3)])
        path = os.path.join(work, name)
        with pytest.raises(CrashPoint):
            with inject(DeadFrom(index)):
                crash(service, name, path)
        report = service.ingest(name, [version_doc(5)])
        landed = report["base_version"]
        assert landed in (3, 4) and report["last_version"] == landed + 1
        service.pins.clear()
        assert store_files(work) == references[landed], f"crash at op {index}"
        assert fsck_archive(path, deep=True).clean, f"crash at op {index}"


@pytest.mark.parametrize("kind", KINDS)
def test_a_crash_in_a_post_then_the_next_post(tmp_path, kind):
    def post(service, name, path):
        service.ingest(name, [version_doc(4)])
        assert held_writer(service, name) is not None

    crash_drill(tmp_path, kind, post)


@pytest.mark.parametrize("kind", KINDS)
def test_a_crash_in_another_handle_between_two_posts(tmp_path, kind):
    def other(service, name, path):
        backend = open_archive(path)
        backend.add_version(version_doc(4))
        backend.close()

    crash_drill(tmp_path, kind, other)


def test_held_writers_are_bounded_by_the_pin_cache(tmp_path):
    names = []
    for index in range(PIN_CACHE_SIZE + 1):  # one archive more than it holds
        kind = KINDS[index % len(KINDS)]
        names.append(f"demo-{index}.xml" if kind == "file" else f"demo-{index}")
        create_archive(os.path.join(tmp_path, names[-1]), KEYS, kind=kind).close()
    service = ArchiveService(str(tmp_path))
    for name in names:
        service.ingest(name, [version_doc(1)])
    assert list(service.pins._writers) == names[1:]  # least recently written out
    service.ingest(names[1], [version_doc(2)])
    assert list(service.pins._writers) == [*names[2:], names[1]]
    service.pins.evict(names[1])
    assert list(service.pins._writers) == names[2:]


# -- the concurrency drill ---------------------------------------------------


def test_concurrent_readers_pin_consistent_generations(served):
    """Readers streaming during an active ingest must answer exactly as
    a solo open would at the version they resolved — no torn reads, no
    partial generations — and each reader's observed generation never
    goes backwards."""
    root, base = served
    name = seed_archive(root, "chunked", versions=3)
    ingest_error = []
    observed = []  # (reader, generation, resolved_version, items)
    observed_lock = threading.Lock()
    done = threading.Event()

    def writer():
        try:
            with connect(f"{base}/archives/{name}") as db:
                for stamp in range(4, 10):
                    db.ingest([version_doc(stamp)])
        except BaseException as error:  # pragma: no cover - drill guard
            ingest_error.append(error)
        finally:
            done.set()

    reader_errors = []

    def reader(index: int):
        try:
            with connect(f"{base}/archives/{name}") as db:
                while not done.is_set():
                    for token in (1, 2, 3, "latest"):
                        result = db.at(token).select("//val/text()")
                        items = result.all()
                        resolved = result.done["version"]
                        with observed_lock:
                            observed.append(
                                (index, result.generation, resolved, tuple(items))
                            )
        except BaseException as error:  # pragma: no cover - drill guard
            reader_errors.append(error)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(index,)) for index in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not ingest_error, ingest_error
    assert not reader_errors, reader_errors
    assert not any(thread.is_alive() for thread in threads)
    assert len(observed) >= 16

    # Byte-identity: every response equals the solo answer at the
    # version it resolved, whichever generation happened to serve it.
    local = open_db(os.path.join(root, name))
    try:
        solo = {}
        for _, _, resolved, items in observed:
            if resolved not in solo:
                solo[resolved] = tuple(
                    local.at(resolved).select("//val/text()").all()
                )
            assert items == solo[resolved]
    finally:
        local.close()

    # Monotonicity: requests are sequential per reader, so the pinned
    # generation a reader observes never decreases.
    per_reader: dict = {}
    for index, generation, _, _ in observed:
        previous = per_reader.get(index)
        assert previous is None or generation >= previous
        per_reader[index] = generation
    # And the writer's six ingests were actually racing the readers.
    generations = {generation for _, generation, _, _ in observed}
    assert max(generations) > min(generations)
