"""Property test: planned queries ≡ materialize-then-xpath.

Random version sequences are archived under every configuration axis —
compaction × fingerprinting × storage backend — and random expressions
from the supported XPath fragment (key-equality lookups, partial keys,
residual/unindexed predicates that exercise the scan fallback, key
projections and their fallback on a name that is not plain, descendant
walks, text()) are evaluated both ways.  The answers must be
identical: same cardinality, same order, byte-identical serialized
elements.

Plans are compiled once per shape and kept with the key specification,
so every drawn expression is asked five ways: cold (nothing kept),
again through the same handle (its own stored plan), through a fresh
``repro.open`` wrapper of the same handle, as a *sibling* — the same
shape around other literals, bound from the stored plan — and that
sibling cold.  Each must give the oracle's answer, and the warm ways
the cold way's ``QueryStats``, field for field, and ``plan_description``.
"""

import re
import tempfile
from dataclasses import asdict

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core import Archive, ArchiveOptions, Fingerprinter
from repro.data.company import company_key_spec
from repro.query.plan import stored_plans
from repro.storage import create_archive
from repro.xmltree import Element, Text, to_string
from repro.xmltree.xpath import evaluate

KEYS_TEXT = """
(/, (db, {}))
(/db, (dept, {name}))
(/db/dept, (emp, {fn, ln}))
(/db/dept/emp, (sal, {}))
(/db/dept/emp, (tel, {.}))
"""

#: ``a&b`` is no plain value: a key label cannot stand for its text.
_names = st.sampled_from(["ann", "bob", "cat", "a&b"])
_salaries = st.sampled_from(["10K", "20K"])
_tels = st.sets(st.sampled_from(["111", "222", "333"]), max_size=2)


@st.composite
def _employee(draw):
    return {
        "fn": draw(_names),
        "ln": draw(_names),
        "sal": draw(st.one_of(st.none(), _salaries)),
        "tels": sorted(draw(_tels)),
    }


@st.composite
def _state(draw):
    dept_names = draw(
        st.sets(st.sampled_from(["dx", "dy", "dz"]), min_size=1, max_size=3)
    )
    state = {}
    for name in sorted(dept_names):
        employees = draw(st.lists(_employee(), max_size=3))
        unique = {}
        for emp in employees:
            unique[(emp["fn"], emp["ln"])] = emp
        state[name] = unique
    return state


def _state_to_document(state) -> Element:
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
            for tel in emp["tels"]:
                emp_el.append(Element("tel")).append(Text(tel))
    return db


_version_sequences = st.lists(_state(), min_size=1, max_size=4)

#: Expressions spanning the plan space: index lookups, partial keys,
#: unindexed (residual/scan-fallback) predicates, wildcards, positions,
#: descendants and text() results.
_expressions = st.sampled_from(
    [
        "/db/dept",
        "/db/dept[name='dx']",
        "/db/dept[name='dy']/emp",
        "/db/dept/emp[fn='ann'][ln='bob']",
        "/db/dept/emp[fn='ann']",          # partial key: sibling scan
        "/db/dept/emp[sal='10K']",         # unindexed: scan fallback
        "/db/dept/emp[sal='10K']/tel",
        "/db/dept[2]",
        "/db/*/emp/tel",
        "/db/dept/name/text()",
        # Key projections: the parent's label, or the lookup where the
        # label cannot stand for the text.
        "/db/dept/emp/fn/text()",
        "/db/dept/emp/ln",
        "/db/dept[name='dx']/emp/fn/text()",
        "//tel",
        "//tel[text()='111']",
        "//emp[sal='20K']/fn/text()",
        "/db/dept[name='dz']//tel",
    ]
)

_configurations = st.sampled_from(
    [
        ArchiveOptions(),
        ArchiveOptions(compaction=True),
        ArchiveOptions(fingerprinter=Fingerprinter(bits=64)),
        ArchiveOptions(fingerprinter=Fingerprinter(bits=2)),  # collisions
        ArchiveOptions(fingerprinter=Fingerprinter(bits=64), compaction=True),
    ]
)


def _rendered(items) -> list[str]:
    return [
        item if isinstance(item, str) else to_string(item) for item in items
    ]


#: Literal → another of its kind: a sibling expression of the same shape.
_SIBLING = {
    "dx": "dy", "dy": "dz", "dz": "dx", "ann": "bob", "bob": "cat",
    "10K": "20K", "20K": "10K", "111": "222",
}


def _ask(db, version, expression):
    result = db.at(version).select(expression)
    return _rendered(result.all()), asdict(result.stats), result.plan_description


def _assert_equivalent(source, db, reference_retrieve, last_version, expression):
    sibling = re.sub(r"'(\w+)'", lambda m: f"'{_SIBLING[m.group(1)]}'", expression)
    plans = stored_plans(db.spec)
    for version in range(1, last_version + 1):
        snapshot = reference_retrieve(version)
        for text in (expression, sibling):  # and every chunk either opens is decoded
            expected = evaluate(snapshot, text).items if snapshot is not None else []
            assert _ask(db, version, text)[0] == _rendered(expected), (text, version)
        plans.clear()
        cold = _ask(db, version, expression)
        assert len(plans) == 1
        assert _ask(db, version, expression) == cold, (expression, version)
        assert _ask(repro.open(source), version, expression) == cold
        bound = _ask(db, version, sibling)
        assert len(plans) == 1  # one shape, however many literals
        plans.clear()
        assert _ask(db, version, sibling) == bound, (sibling, version)


@settings(max_examples=40, deadline=None)
@given(states=_version_sequences, options=_configurations, expression=_expressions)
def test_memory_plan_matches_materialize(states, options, expression):
    archive = Archive(company_key_spec(), options)
    for state in states:
        archive.add_version(_state_to_document(state))
    db = repro.open(archive)
    _assert_equivalent(
        archive, db, archive.retrieve, archive.last_version, expression
    )


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(states=_version_sequences, expression=_expressions)
def test_backends_plan_matches_materialize(states, expression):
    documents = [_state_to_document(state) for state in states]
    for kind in ("file", "chunked", "external"):
        with tempfile.TemporaryDirectory() as root:
            path = f"{root}/arch" + (".xml" if kind == "file" else "")
            store = create_archive(path, KEYS_TEXT, kind=kind, chunk_count=3)
            store.ingest_batch(document.copy() for document in documents)
            db = store.db()
            _assert_equivalent(
                store, db, store.retrieve, store.last_version, expression
            )
            store.close()


@settings(max_examples=12, deadline=None)
@given(states=_version_sequences, expression=_expressions)
def test_chunked_fingerprinter_plan_matches_materialize(states, expression):
    """The fingerprinted chunked store re-sorts results into key order."""
    documents = [_state_to_document(state) for state in states]
    options = ArchiveOptions(fingerprinter=Fingerprinter(bits=64))
    with tempfile.TemporaryDirectory() as root:
        store = create_archive(
            f"{root}/arch", KEYS_TEXT, kind="chunked", chunk_count=3,
            options=options,
        )
        store.ingest_batch(document.copy() for document in documents)
        db = store.db()
        _assert_equivalent(
            store, db, store.retrieve, store.last_version, expression
        )
        store.close()
