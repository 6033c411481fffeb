"""PERF-SERVER — ``xarchd`` read latency under an active writer.

The server's concurrency claim (snapshot-isolated readers, single
writer) is only worth having if reads stay cheap while a writer
publishes: every request re-pins a recovery-free snapshot, so the cost
under contention is the pin (one manifest read, its checksum table
included) plus the query itself, never a lock wait.

The drill here: K reader threads hammer one chunked archive over HTTP
while one writer ingests version after version through the same
server.  Recorded per read: wall-clock latency and *generation
staleness* — the distance between the writer's last published
generation at request start and the generation the answer actually
pinned.  Staleness 0 means the pin caught the newest commit; the drill
asserts staleness never exceeds one generation (a reader can race the
commit it overlaps, never fall further behind) and that every answer
is internally consistent (record count matches its pinned version).

``p50/p99`` land in ``extra_info`` (kept by ``summarize_bench.py``,
committed as ``BENCH_server.json``); the rendered table is printed
(timings belong to the box, not to the repository).
"""

import os
import threading
import time

import pytest


from repro.client import connect
from repro.data.omim import OMIM_KEY_TEXT
from repro.experiments.figures import omim_versions
from repro.server.http import make_server, run_in_thread
from repro.storage import create_archive

READERS = 4
SEED_VERSIONS = 3
WRITER_VERSIONS = 5
RECORDS = 80
CORES = len(os.sched_getaffinity(0))

#: Filled by the drill, rendered by the summary test.
RESULTS: dict = {}


def percentile(samples: list, fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * fraction))]


@pytest.fixture(scope="module")
def served_store(tmp_path_factory):
    """An in-process server over one chunked OMIM archive."""
    root = str(tmp_path_factory.mktemp("server-bench"))
    versions = omim_versions(
        SEED_VERSIONS + WRITER_VERSIONS, initial_records=RECORDS
    )
    backend = create_archive(
        os.path.join(root, "omim-store"),
        OMIM_KEY_TEXT,
        kind="chunked",
        chunk_count=4,
    )
    backend.ingest_batch(versions[:SEED_VERSIONS])
    backend.close()
    server = make_server(root, port=0)
    run_in_thread(server)
    host, port = server.server_address
    yield {
        "url": f"http://{host}:{port}/archives/omim-store",
        "pending": versions[SEED_VERSIONS:],
    }
    server.shutdown()
    server.server_close()


def test_reads_under_write_load(benchmark, served_store):
    """K readers + 1 writer against one archive; p50/p99 + staleness."""
    url, pending = served_store["url"], served_store["pending"]

    def drill():
        #: Last generation the writer saw published (readers compare
        #: their pinned generation against the value at request start).
        published = {"generation": None, "count": 0}
        done = threading.Event()
        errors = []
        samples = []  # (latency_s, staleness, count, resolved_version)
        samples_lock = threading.Lock()

        def writer():
            try:
                with connect(url) as db:
                    published["generation"] = db.stats()["generation"]
                    for document in pending:
                        report = db.ingest([document])
                        published["generation"] = report["generation"]
                        published["count"] += 1
            except BaseException as error:  # pragma: no cover
                errors.append(error)
            finally:
                done.set()

        def reader():
            try:
                with connect(url) as db:
                    while not done.is_set():
                        known = published["generation"]
                        start = time.perf_counter()
                        result = db.at("latest").select("/ROOT/Record/Num/text()")
                        count = len(result.all())
                        elapsed = time.perf_counter() - start
                        staleness = (
                            max(0, known - result.generation)
                            if known is not None
                            else 0
                        )
                        with samples_lock:
                            samples.append(
                                (elapsed, staleness, count,
                                 result.done["version"])
                            )
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(READERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        return published, errors, samples

    published, errors, samples = benchmark.pedantic(
        drill, rounds=1, iterations=1
    )
    assert not errors, errors
    assert published["count"] == WRITER_VERSIONS
    assert len(samples) >= READERS  # every reader got answers through

    latencies = [latency for latency, _, _, _ in samples]
    staleness = [stale for _, stale, _, _ in samples]
    # A pin can race the one commit it overlaps, never trail further.
    assert max(staleness) <= 1
    # Internal consistency: the record count grows with the resolved
    # version (one Record is added per OMIM version), so a torn read —
    # counting records of one version under the header of another —
    # cannot hide.
    expected = {
        version: RECORDS + (version - 1)
        for _, _, _, version in samples
    }
    for _, _, count, version in samples:
        assert count == expected[version], (count, version)

    RESULTS.update(
        reads=len(samples),
        ingests=published["count"],
        p50_ms=percentile(latencies, 0.50) * 1e3,
        p99_ms=percentile(latencies, 0.99) * 1e3,
        max_ms=max(latencies) * 1e3,
        stale_reads=sum(1 for value in staleness if value),
        max_staleness=max(staleness),
    )
    benchmark.extra_info.update(RESULTS, readers=READERS, cpu_cores=CORES)


def test_server_summary():
    assert RESULTS, "drill did not run"
    stale_pct = 100.0 * RESULTS["stale_reads"] / RESULTS["reads"]
    lines = [
        "PERF-SERVER: xarchd under concurrent load "
        f"({READERS} readers + 1 writer, {CORES} core(s) available)",
        "",
        f"reads answered:     {RESULTS['reads']}",
        f"writer ingests:     {RESULTS['ingests']}",
        f"read latency p50:   {RESULTS['p50_ms']:.1f} ms",
        f"read latency p99:   {RESULTS['p99_ms']:.1f} ms",
        f"read latency max:   {RESULTS['max_ms']:.1f} ms",
        f"stale reads:        {RESULTS['stale_reads']} ({stale_pct:.1f}%), "
        f"max staleness {RESULTS['max_staleness']} generation(s)",
        "",
        "(every answer matched its pinned version's record count; a pin",
        " trails the newest publish by at most the commit it overlaps)",
    ]
    print("\n" + "\n".join(lines))
