"""TIME-INGEST — batched multi-version ingestion under the record memo.

The paper's headline workload archives long sequences of versions with
tiny deltas (OMIM: ~0.2% insertions per version).  A loop over
``add_version`` on a tree that remembers nothing re-walks the full
archive per version, so its merge visits grow with archive size;
``add_versions`` runs the same loop on a tree that keeps records, and
confirms every record a version brings back unchanged instead of
descending into it, so its descents track the delta.  The acceptance
test asserts the memo's counters, the descents it saved, the byte
identity of the two archives and the canonical identity of every
retrieved version between the two paths.
"""

import pytest

from repro.core import (
    Archive,
    ArchiveOptions,
    Fingerprinter,
    MergeStats,
    documents_equivalent,
    normalize_document,
)
from repro.data import OmimGenerator, omim_key_spec

VERSIONS = 50
RECORDS = 30


@pytest.fixture(scope="module")
def sequence():
    return OmimGenerator(seed=42, initial_records=RECORDS).generate_versions(VERSIONS)


def test_batch_ingest_visits_fewer_merge_nodes(sequence):
    """The acceptance criterion: over a 50-version synthetic sequence,
    ``add_versions`` descends into under half the merge nodes that 50×
    ``add_version`` on a tree that keeps nothing visits — while both
    store the same archive and every version retrieves canonically
    identical in both paths."""
    spec = omim_key_spec()

    sequential = Archive(spec)
    sequential_total = MergeStats()
    for version in sequence:
        sequential_total.accumulate(sequential.add_version(version.copy()))

    batched = Archive(spec)
    batched_total = batched.add_versions(version.copy() for version in sequence)

    # The memo fired...
    assert batched_total.records_kept > 0
    assert batched_total.versions == VERSIONS
    # ...its counters are the full merge's (kept nodes are matched)...
    assert batched_total.nodes_visited() == sequential_total.nodes_visited()
    # ...and it saved real merge work: under half the descents.
    descents = batched_total.nodes_visited() - batched_total.nodes_kept
    assert descents * 2 < sequential_total.nodes_visited()

    # Both paths store the same archive, and every version reconstructs.
    assert batched.to_xml_string() == sequential.to_xml_string()
    for number, original in enumerate(sequence, start=1):
        assert normalize_document(
            batched.retrieve(number), spec
        ) == normalize_document(sequential.retrieve(number), spec)
        assert documents_equivalent(batched.retrieve(number), original, spec)


@pytest.mark.parametrize(
    "options",
    [
        ArchiveOptions(fingerprinter=Fingerprinter(bits=64)),
        ArchiveOptions(compaction=True),
    ],
    ids=["fingerprint-sorting", "compaction"],
)
def test_batch_ingest_keeps_records_under_every_option(sequence, options):
    """The memo composes with the Sec. 4.3 sorting fingerprinter, and
    with further compaction, whose weave segments are timestamps a
    confirmed record's entry extends."""
    spec = omim_key_spec()
    batched = Archive(spec, options)
    total = batched.add_versions(version.copy() for version in sequence[:10])
    assert total.records_kept > 0
    sequential = Archive(spec, options)
    for version in sequence[:10]:
        sequential.add_version(version.copy())
    assert batched.to_xml_string() == sequential.to_xml_string()
    assert documents_equivalent(batched.retrieve(10), sequence[9], spec)


def test_batch_ingest_throughput(benchmark, sequence):
    """Wall-clock of the batched pipeline over the 50-version sequence."""
    spec = omim_key_spec()

    def ingest():
        archive = Archive(spec)
        return archive.add_versions(version.copy() for version in sequence)

    total = benchmark.pedantic(ingest, rounds=1, iterations=1)
    assert total.versions == VERSIONS
