"""PERF-PARALLEL — multi-core scaling of the chunk data path.

The chunked backend's hot loops (batch ingest, recode, per-chunk query
evaluation) fan out to a process pool (``repro.storage.parallel``); the
claims measured here:

* **Determinism is free.**  Whatever the worker count, the produced
  archive bytes and query answers are identical to a serial run —
  every scaling round re-verifies this before its timing counts.
* **Codec work scales.**  ``recode`` is pure CPU (decode + re-encode
  per chunk); with four workers on four real cores it must beat serial
  by ≥2×.  The assertion is gated on the cores actually available —
  on a single-core runner the honest expectation is "no slower than
  serial plus pool overhead", and the measured numbers land in
  ``extra_info`` (with the core count) either way.

Timings for 1/2/4/8 workers land in each benchmark's ``extra_info``
(kept by ``summarize_bench.py``), so the committed
``BENCH_parallel.json`` records the full scaling table; the rendered
table is printed (timings belong to the box, not to the repository).
"""

import glob
import hashlib
import os
import shutil

import pytest


from repro.data.omim import OMIM_KEY_TEXT
from repro.experiments.figures import omim_versions
from repro.query.db import open_db
from repro.storage import create_archive, open_archive
from repro.xmltree.serializer import to_string

WORKERS = [1, 2, 4, 8]
CORES = len(os.sched_getaffinity(0))

#: Minimum wall-clock per (operation, workers), filled by the scaling
#: benchmarks and rendered/asserted by the summary test at the end.
RUNS: dict = {}
#: Serial reference outputs (digests / renderings), keyed by operation.
REFERENCE: dict = {}


def digest_store(path) -> dict:
    digests = {}
    for full in sorted(glob.glob(os.path.join(path, "*"))):
        name = os.path.basename(full)
        if name == "wal.json" or not os.path.isfile(full):
            continue
        with open(full, "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def dense_store(tmp_path_factory):
    """A dense OMIM archive (~1.5k records, 12 versions) at rest under
    ``xmill`` — the CPU-heavy codec the recode/query benches decode."""
    base = tmp_path_factory.mktemp("parallel-dense")
    path = os.path.join(base, "store")
    backend = create_archive(
        path, OMIM_KEY_TEXT, kind="chunked", chunk_count=8, codec="xmill"
    )
    backend.ingest_batch(omim_versions(12, initial_records=1500))
    last = backend.last_version
    backend.close()
    return {"path": path, "last": last, "bytes": _store_bytes(path)}


def _store_bytes(path: str) -> int:
    return sum(
        os.path.getsize(full)
        for full in glob.glob(os.path.join(path, "chunk-*.xml"))
    )


@pytest.fixture(scope="module")
def ingest_versions():
    """A lighter sequence for the (much slower) ingest scaling rounds."""
    return omim_versions(8, initial_records=250)


@pytest.mark.parametrize("workers", WORKERS)
def test_parallel_ingest_scaling(
    benchmark, workers, ingest_versions, tmp_path_factory
):
    """Batch ingest under 1/2/4/8 workers; output must match serial."""
    counter = iter(range(1_000_000))

    def setup():
        base = tmp_path_factory.mktemp(f"pingest-{workers}-{next(counter)}")
        return (os.path.join(base, "store"),), {}

    def ingest(path):
        backend = create_archive(
            path,
            OMIM_KEY_TEXT,
            kind="chunked",
            chunk_count=8,
            codec="gzip",
            workers=workers,
        )
        backend.ingest_batch(v.copy() for v in ingest_versions)
        backend.close()
        return digest_store(path)

    digests = benchmark.pedantic(ingest, setup=setup, rounds=1, iterations=1)
    REFERENCE.setdefault("ingest", digests)
    assert digests == REFERENCE["ingest"], "parallel ingest diverged from serial"
    RUNS[("ingest", workers)] = benchmark.stats.stats.min
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["cpu_cores"] = CORES


@pytest.mark.parametrize("workers", WORKERS)
def test_parallel_recode_scaling(
    benchmark, workers, dense_store, tmp_path_factory
):
    """Recode (xmill → gzip, pure codec CPU) under 1/2/4/8 workers."""
    counter = iter(range(1_000_000))

    def setup():
        base = tmp_path_factory.mktemp(f"precode-{workers}-{next(counter)}")
        path = os.path.join(base, "store")
        shutil.copytree(dense_store["path"], path)
        return (path,), {}

    def recode(path):
        backend = open_archive(path, workers=workers)
        backend.recode("gzip")
        backend.close()
        return digest_store(path)

    digests = benchmark.pedantic(recode, setup=setup, rounds=2, iterations=1)
    REFERENCE.setdefault("recode", digests)
    assert digests == REFERENCE["recode"], "parallel recode diverged from serial"
    RUNS[("recode", workers)] = benchmark.stats.stats.min
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["cpu_cores"] = CORES
    benchmark.extra_info["archive_bytes"] = dense_store["bytes"]


@pytest.mark.parametrize("workers", WORKERS)
def test_parallel_query_scaling(benchmark, workers, dense_store):
    """Full record scan fanned across chunk workers; answers must
    match serial exactly, in order."""
    path, last = dense_store["path"], dense_store["last"]

    def query():
        with open_db(path, workers=workers) as db:
            result = db.at(last).select("/ROOT/Record")
            rendered = [to_string(element) for element in result]
        return rendered, result.stats

    (rendered, stats) = benchmark.pedantic(query, rounds=1, iterations=1)
    digest = hashlib.sha256("\n".join(rendered).encode("utf-8")).hexdigest()
    REFERENCE.setdefault("query", digest)
    assert digest == REFERENCE["query"], "parallel query diverged from serial"
    if workers > 1:
        assert stats.parallel_chunks > 1
        assert stats.workers_used == workers
    RUNS[("query", workers)] = benchmark.stats.stats.min
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["cpu_cores"] = CORES
    benchmark.extra_info["results"] = len(rendered)


def test_scaling_summary():
    """Render the scaling table; on ≥4 real cores, 4-worker recode
    must beat serial by ≥2×."""
    operations = ("ingest", "recode", "query")
    assert all((op, w) in RUNS for op in operations for w in WORKERS)
    lines = [
        "PERF-PARALLEL: chunk-loop scaling "
        f"(dense OMIM workloads, {CORES} core(s) available)",
        "",
        f"{'workers':>8} " + " ".join(f"{op + ' (s)':>12}" for op in operations),
    ]
    for workers in WORKERS:
        lines.append(
            f"{workers:>8} "
            + " ".join(f"{RUNS[(op, workers)]:>12.3f}" for op in operations)
        )
    lines.append("")
    for op in operations:
        speedup = RUNS[(op, 1)] / RUNS[(op, 4)]
        lines.append(f"4-worker speedup, {op}: {speedup:.2f}x")
    lines.append(
        "(byte-identity with the serial outputs was asserted in every round)"
    )
    print("\n" + "\n".join(lines))
    if CORES >= 4:
        speedup = RUNS[("recode", 1)] / RUNS[("recode", 4)]
        assert speedup >= 2.0, (
            f"4-worker recode only {speedup:.2f}x faster than serial "
            f"on {CORES} cores"
        )
    else:
        # One or two cores cannot demonstrate parallel speedup; the
        # honest bar is bounded overhead: the pool must not make the
        # CPU-bound recode pathologically slower.
        overhead = RUNS[("recode", 4)] / RUNS[("recode", 1)]
        assert overhead < 2.0, (
            f"4-worker recode {overhead:.2f}x slower than serial on "
            f"{CORES} core(s) — pool overhead out of bounds"
        )
