"""Property tests of batched ingestion (``Archive.add_versions``).

For random version sequences — including empty versions, deletions,
reinsertions and content flip-flops — ``add_versions(batch)`` must
produce an archive whose ``retrieve(v)`` is canonically equal to the
original document for every ``v``, and whose XML form is *identical* to
the archive built by repeated ``add_version`` — across all four
combinations of ``compaction`` × ``fingerprinter`` options (plus the
collision-forcing narrow fingerprinter).  A batch is that loop on a tree
that keeps records: it confirms exactly the records that arrive as they
were at the version before, and no entry it left behind ever hits.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Archive,
    ArchiveOptions,
    Fingerprinter,
    MergeStats,
    documents_equivalent,
)
from repro.data.company import company_key_spec
from repro.xmltree import Element, Text
from repro.xmltree.canonical import canonical_form

# The four combinations the satellite task names, plus the bits=2
# configuration that deliberately forces sorting-fingerprint collisions
# (record digests stay 128 bits regardless).
CONFIGURATIONS = [
    ArchiveOptions(),
    ArchiveOptions(compaction=True),
    ArchiveOptions(fingerprinter=Fingerprinter(bits=64)),
    ArchiveOptions(fingerprinter=Fingerprinter(bits=64), compaction=True),
    ArchiveOptions(fingerprinter=Fingerprinter(bits=2)),
]

#: What a merge that remembers nothing reports: every counter but the
#: two that say what the memo saved.
MEMOLESS = [
    field.name
    for field in dataclasses.fields(MergeStats)
    if field.name not in ("records_kept", "nodes_kept")
]

_names = st.sampled_from(["ann", "bob", "cat", "dan"])
_salaries = st.sampled_from(["10K", "20K", "30K"])


@st.composite
def _employee(draw):
    return {
        "fn": draw(_names),
        "ln": draw(_names),
        "sal": draw(st.one_of(st.none(), _salaries)),
    }


@st.composite
def _state(draw):
    dept_names = draw(st.sets(st.sampled_from(["dx", "dy", "dz"]), max_size=3))
    state = {}
    for name in sorted(dept_names):
        unique = {}
        for emp in draw(st.lists(_employee(), max_size=3)):
            unique[(emp["fn"], emp["ln"])] = emp
        state[name] = unique
    return state


def _document(state) -> Element:
    db = Element("db")
    for dept_name, employees in state.items():
        dept = db.append(Element("dept"))
        dept.append(Element("name")).append(Text(dept_name))
        for (fn, ln), emp in employees.items():
            emp_el = dept.append(Element("emp"))
            emp_el.append(Element("fn")).append(Text(fn))
            emp_el.append(Element("ln")).append(Text(ln))
            if emp["sal"] is not None:
                emp_el.append(Element("sal")).append(Text(emp["sal"]))
    return db


def _unchanged_records(documents) -> int:
    """Records that arrive exactly as they were at the version before
    (after an empty version, none): what a batch must confirm."""
    total, previous = 0, set()
    for document in documents:
        current = (
            set()
            if document is None
            else {canonical_form(record) for record in document.element_children()}
        )
        total += len(current & previous)
        previous = current
    return total


# ``None`` entries are empty versions — the Sec. 2 corner the batch
# path must thread through the memo unchanged.
_sequences = st.lists(
    st.one_of(st.none(), _state()), min_size=1, max_size=6
)


@pytest.mark.parametrize(
    "options", CONFIGURATIONS, ids=lambda o: repr(o)
)
@given(states=_sequences)
@settings(max_examples=40, deadline=None)
def test_batch_equals_sequential_and_originals(options, states):
    spec = company_key_spec()
    documents = [None if s is None else _document(s) for s in states]

    sequential = Archive(spec, options)
    expected = MergeStats()
    for document in documents:
        expected.accumulate(
            sequential.add_version(None if document is None else document.copy())
        )

    batched = Archive(spec, options)
    total = batched.add_versions(
        None if document is None else document.copy() for document in documents
    )

    assert total.versions == len(documents)
    assert batched.kept is None  # the batch's memo went with it
    assert batched.to_xml_string() == sequential.to_xml_string()
    for name in MEMOLESS:
        assert getattr(total, name) == getattr(expected, name), name
    # Every confirmation is earned — no stale entry hits — and every
    # record that could be confirmed is.
    assert total.records_kept == _unchanged_records(documents)
    for number, document in enumerate(documents, start=1):
        rebuilt = batched.retrieve(number)
        if document is None:
            assert rebuilt is None
        else:
            assert documents_equivalent(rebuilt, document, spec)


@pytest.mark.parametrize(
    "options", CONFIGURATIONS, ids=lambda o: repr(o)
)
@given(prefix=_sequences, suffix=_sequences)
@settings(max_examples=25, deadline=None)
def test_batch_onto_a_reloaded_archive(options, prefix, suffix):
    """A batch appended to an archive that round-tripped through its XML
    form (its memo starts empty) must match the all-sequential build."""
    spec = company_key_spec()
    before = [None if s is None else _document(s) for s in prefix]
    after = [None if s is None else _document(s) for s in suffix]

    sequential = Archive(spec, options)
    for document in before + after:
        sequential.add_version(None if document is None else document.copy())

    base = Archive(spec, options)
    for document in before:
        base.add_version(None if document is None else document.copy())
    reloaded = Archive.from_xml_string(base.to_xml_string(), spec, options)
    reloaded.add_versions(
        None if document is None else document.copy() for document in after
    )

    assert reloaded.to_xml_string() == sequential.to_xml_string()


def test_identical_versions_are_confirmed_whole():
    """Re-archiving an identical document confirms its one record: the
    root is the only node descended, and the counters are a full
    merge's."""
    spec = company_key_spec()
    state = {"dx": {("ann", "bob"): {"fn": "ann", "ln": "bob", "sal": "10K"}}}
    plain = Archive(spec)
    plain.add_version(_document(state))
    expected = plain.add_version(_document(state))

    archive = Archive(spec)
    total = archive.add_versions([_document(state), _document(state)])
    assert total.records_kept == 1
    assert total.nodes_matched == expected.nodes_matched
    assert total.nodes_kept == expected.nodes_matched - 1  # all but <db>
    assert total.nodes_inserted == 1  # version 1's root, entering whole


def test_delete_then_reinsert_merges_in_full_and_splits_timestamp():
    """A record deleted and later reinserted unchanged is not confirmed:
    its entry went with the version that lacked it.  The merge walks
    it, and its timestamp records the gap."""
    spec = company_key_spec()
    full = {
        "dx": {("ann", "bob"): {"fn": "ann", "ln": "bob", "sal": "10K"}},
        "dy": {("cat", "dan"): {"fn": "cat", "ln": "dan", "sal": "20K"}},
    }
    partial = {"dx": full["dx"]}
    archive = Archive(spec)
    total = archive.add_versions(
        [_document(full), _document(partial), _document(full)]
    )
    assert total.records_kept == 2  # dx at versions 2 and 3; never dy
    history = archive.history("/db/dept[name=dy]")
    assert history.existence.to_text() == "1,3"
