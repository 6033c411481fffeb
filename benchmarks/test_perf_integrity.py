"""TIME-INTEGRITY — what the integrity plane costs.

Three numbers the trajectory tracks (committed as
``benchmarks/results/BENCH_integrity.json``):

* ingest throughput with checksumming on (it cannot be turned off at
  write time — every staged payload is hashed before publish);
* the verify-on-read delta: the same sparse retrieval under
  ``verify="always"`` vs ``verify="never"``, min-of-N on both sides so
  scheduler noise cancels.  The recorded ``verify_delta`` is the
  headline claim — hashing is small against XML parsing, so the
  overhead stays in the low single digits;
* ``fsck`` scrub throughput (bytes of archive state per second).

Correctness rides along: every benchmark round asserts the retrieval
succeeded and the scrub came back clean, so the integrity plane cannot
get faster by checking less.
"""

import os
import time

import pytest

from repro.data import OmimGenerator, omim_key_spec
from repro.storage import ChunkedArchiver, fsck_archive, open_archive

VERSIONS = 10
RECORDS = 16
#: Manual-timing repetitions for the verify delta (min-of-N).
TIMING_RUNS = 9


@pytest.fixture(scope="module")
def sequence():
    return OmimGenerator(seed=31, initial_records=RECORDS).generate_versions(
        VERSIONS
    )


@pytest.fixture(scope="module")
def spec():
    return omim_key_spec()


@pytest.fixture(scope="module")
def store(tmp_path_factory, sequence, spec):
    """One chunked archive, ingested once, read by every benchmark."""
    base = tmp_path_factory.mktemp("integrity-store")
    path = str(base / "store")
    backend = ChunkedArchiver(path, spec, chunk_count=4)
    backend.ingest_batch(v.copy() for v in sequence)
    backend.close()
    return path


def archive_bytes(path):
    return sum(
        os.path.getsize(os.path.join(path, name))
        for name in os.listdir(path)
        if os.path.isfile(os.path.join(path, name))
    )


def test_ingest_throughput_with_checksums(
    benchmark, sequence, spec, tmp_path_factory
):
    """Ingest wall-clock with payload hashing on (the only mode)."""
    counter = iter(range(1_000_000))

    def setup():
        base = tmp_path_factory.mktemp(f"integrity-ingest-{next(counter)}")
        return (ChunkedArchiver(str(base / "store"), spec, chunk_count=4),), {}

    def ingest(backend):
        backend.ingest_batch(v.copy() for v in sequence)
        assert backend.last_version == VERSIONS
        backend.close()

    benchmark.pedantic(ingest, setup=setup, rounds=3, iterations=1)


def test_sparse_retrieval_verify_delta(benchmark, store, spec):
    """The verify-on-read cost: one mid-sequence retrieval, policy
    ``"always"`` (benchmark) against ``"never"`` (manual min-of-N)."""
    target = VERSIONS // 2

    def read(policy):
        backend = open_archive(store, spec, verify=policy)
        try:
            assert backend.retrieve(target) is not None
        finally:
            backend.close()

    def timed(policy):
        start = time.perf_counter()
        read(policy)
        return time.perf_counter() - start

    # Warm up each side, then time the two in alternation so cache
    # state and a burst of load from elsewhere fall on both sides.
    read("never")
    read("always")
    never_s = always_s = float("inf")
    for _ in range(TIMING_RUNS):
        never_s = min(never_s, timed("never"))
        always_s = min(always_s, timed("always"))
    delta = (always_s - never_s) / never_s if never_s else 0.0

    benchmark.extra_info["verify_always_min_s"] = round(always_s, 6)
    benchmark.extra_info["verify_never_min_s"] = round(never_s, 6)
    benchmark.extra_info["verify_delta"] = round(delta, 4)
    # Loose tripwire only — the committed number is the claim; a hard
    # 5% assert would flake on shared CI runners.
    assert delta < 0.50, (
        f"verify-on-read overhead {delta:.1%} is far beyond the "
        f"expected low single digits"
    )
    benchmark.pedantic(read, args=("always",), rounds=3, iterations=1)


def test_fsck_scrub_throughput(benchmark, store):
    """Bytes of archive state scrubbed per second (shallow pass)."""
    scanned = archive_bytes(store)

    def scrub():
        report = fsck_archive(store)
        assert report.clean, str(report)
        return report

    result = benchmark.pedantic(scrub, rounds=3, iterations=1)
    assert result.clean
    stats_min = benchmark.stats.stats.min
    benchmark.extra_info["archive_bytes"] = scanned
    if stats_min:
        benchmark.extra_info["scrub_mb_per_s"] = round(
            scanned / stats_min / 1e6, 2
        )
