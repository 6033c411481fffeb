"""TIME-BACKEND — the unified storage protocol's conformance timings.

One benchmark per backend over the identical workload: batch-ingest an
OMIM-style version sequence through the
:class:`~repro.storage.StorageBackend` surface, then retrieve every
version and run a history probe.  The timings land next to the merge
and retrieval benchmarks in CI, so a regression in any backend's
ingest/read path shows up in the uploaded JSON artifacts.

Correctness rides along: every benchmark round asserts the retrieved
versions match the originals, so a backend cannot get faster by
answering wrong.
"""

import pytest

import repro
from repro.data import OmimGenerator, omim_key_spec
from repro.storage import ChunkedArchiver, ExternalArchiver, FileBackend

VERSIONS = 12
RECORDS = 16
BACKENDS = ["file", "chunked", "external"]


@pytest.fixture(scope="module")
def sequence():
    return OmimGenerator(seed=29, initial_records=RECORDS).generate_versions(VERSIONS)


@pytest.fixture(scope="module")
def spec():
    return omim_key_spec()


def make_backend(kind, base, spec):
    if kind == "file":
        return FileBackend(str(base / "archive.xml"), spec)
    if kind == "chunked":
        return ChunkedArchiver(str(base / "chunked"), spec, chunk_count=4)
    return ExternalArchiver(str(base / "external"), spec)


@pytest.mark.parametrize("kind", BACKENDS)
def test_backend_ingest_throughput(benchmark, kind, sequence, spec, tmp_path_factory):
    """Wall-clock of one ``ingest_batch`` over the version sequence."""
    counter = iter(range(1_000_000))

    def setup():
        base = tmp_path_factory.mktemp(f"{kind}-ingest-{next(counter)}")
        return (make_backend(kind, base, spec),), {}

    def ingest(backend):
        total = backend.ingest_batch(v.copy() for v in sequence)
        assert backend.last_version == VERSIONS
        return total

    benchmark.pedantic(ingest, setup=setup, rounds=3, iterations=1)


@pytest.mark.parametrize("kind", BACKENDS)
def test_backend_retrieve_throughput(benchmark, kind, sequence, spec, tmp_path_factory):
    """Wall-clock of retrieving every version plus one history probe."""
    base = tmp_path_factory.mktemp(f"{kind}-retrieve")
    backend = make_backend(kind, base, spec)
    backend.ingest_batch(v.copy() for v in sequence)
    num = sequence[0].find("Record").find("Num").text_content()
    path = f"/ROOT/Record[Num={num}]"

    def read_everything():
        for number in range(1, VERSIONS + 1):
            document = backend.retrieve(number)
            assert document is not None
        history = repro.open(backend).history(path)
        assert history.existence.max_version() >= 1

    benchmark.pedantic(read_everything, rounds=3, iterations=1)
