"""TIME-INTEGRITY — what the integrity plane costs.

Two numbers the trajectory tracks (committed as
``benchmarks/results/BENCH_integrity.json``):

* ingest throughput with checksumming on (it cannot be turned off at
  write time — every staged payload is hashed before publish);
* ``fsck`` scrub throughput (bytes of archive state per second).

Every read hashes what it decodes, so there is no read-side switch to
time here; ``integrity.verify_ms`` in ``benchmarks/e2e`` measures that
hash per chunk.  Correctness rides along: every benchmark round asserts
the ingest landed and the scrub came back clean, so the integrity plane
cannot get faster by checking less.
"""

import os

import pytest

from repro.data import OmimGenerator, omim_key_spec
from repro.storage import ChunkedArchiver, fsck_archive

VERSIONS = 10
RECORDS = 16


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
    """One chunked archive, ingested once, for the scrub to read."""
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
