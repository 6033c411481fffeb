"""Contract tests for ``xarchd`` + ``repro.client``.

Every endpoint is exercised across the full backend matrix (file /
chunked / external), the error taxonomy is checked code-by-code
against :data:`repro.server.errors.ERROR_CODES`, and the concurrency
drill at the end runs readers against a live writer: each response
must be byte-identical to a solo evaluation at the version it pinned —
generations only ever append, so a snapshot answer never depends on
which generation served it.
"""

import http.client
import json
import os
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.client import RemoteError, connect
from repro.cli import main as xarch_main
from repro.core.tempquery import Change
from repro.query.db import open_db
from repro.server.errors import ERROR_CODES, classify_exception
from repro.server.http import make_server, run_in_thread
from repro.storage import create_archive, open_archive
from repro.storage.backend import read_manifest
from repro.storage.integrity import IntegrityError
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
