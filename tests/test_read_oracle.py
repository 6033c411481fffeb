"""The paper's contract, checked by one oracle over random operation
sequences: ``retrieve(v)`` returns version *v* exactly, and every query
answers what a naive evaluator gives over the documents themselves.

The model is nothing but the list of ingested documents (``None`` for
an empty version) and the naive evaluator below: ``xmltree.xpath`` over
one document, which knows nothing of archives, plans, chunks, framed
blocks or caches.  The store is a whole-file archive, a chunked one
of one to three chunks, or the Sec. 6 external event stream.  The
machine appends and ingests batches (versions without records among
them) through a handle that holds its trees between writes and through
fresh ones, reopens, reads one
version once, twice and three times through one handle (the streamed
read, the settling one and the walk), selects keyed and dense, cold
and warm, and asks for histories and change reports; after every step
every answer it read equalled the model's and ``fsck`` finds the store
clean.
"""

from __future__ import annotations

import re
import shutil
import tempfile

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import repro
from repro.core.tempquery import Change, keyed_diff
from repro.core.versionset import VersionSet
from repro.data import OmimGenerator
from repro.data.omim import OMIM_KEY_TEXT, OmimChangeRates, omim_key_spec
from repro.keys import annotate_keys
from repro.storage import create_archive, fsck_archive, open_archive
from repro.storage.cache import reset_chunk_cache
from repro.xmltree import parse_document, to_pretty_string, to_string, xpath

#: Bounded so the machine costs Tier-1 well under 15 s on two cores.
settings.register_profile(
    "read-oracle",
    max_examples=20,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

DENSE = "/ROOT/Record/Num/text()"
#: Dense selects: key projections answered from the record's head, and
#: a field that settles every live record.
DENSES = st.sampled_from([DENSE, "/ROOT/Record/Num", "/ROOT/Record/Title/text()"])
#: Enough churn that a few versions insert, modify and delete records.
RATES = OmimChangeRates(insert_fraction=0.3, modify_fraction=0.3, delete_fraction=0.2)
SPEC = omim_key_spec()
#: Record fields a ``changes`` prefix may narrow to; ``AlternativeTitle``
#: is keyed, so the bare tag covers every one of them.
FIELDS = st.sampled_from(["Title", "Text", "AlternativeTitle"])
#: The record a change path lies in.
RECORD_NUM = re.compile(r"/ROOT/Record\[Num=([^\]]+)\]")
#: What a version is: a document, an empty version (one in five), or a
#: root without records (one in five; a version all the same).
SHAPES = st.sampled_from(["document", "document", "document", "empty", "recordless"])
#: A record step in either spelling: the paper's bare value, or quoted
#: as a ``select`` writes it.
SPELLINGS = st.sampled_from(["[Num={}]", "[Num='{}']"])


# -- the naive evaluator ------------------------------------------------------------


def within(path: str, prefix: str) -> bool:
    """Whether a rendered change path lies at or beneath ``prefix``
    (rendered the same way), whole steps only: the prefix itself, a path
    below it, or — a last prefix step without predicates — the same tag
    with its key."""
    return path == prefix or path.startswith((prefix + "/", prefix + "["))


def in_key_order(document):
    """A copy of ``document`` with keyed siblings in key order, at every
    keyed level: the archive "ignores the order among elements with
    keys" (Sec. 2) and hands them back in that order."""
    document = document.copy()
    annotated = annotate_keys(document, SPEC)

    def visit(node) -> None:
        if annotated.is_frontier(node):
            return
        node.children[:] = sorted(
            node.element_children(),
            key=lambda child: annotated.label(child).sort_token(),
        )
        for child in node.children:
            visit(child)

    visit(document)
    return document


class Model:
    def __init__(self) -> None:
        self.documents: list = []

    def retrieve(self, version: int):
        document = self.documents[version - 1]
        return None if document is None else to_pretty_string(document)

    def select(self, version: int, expression: str) -> list:
        document = self.documents[version - 1]
        if document is None:
            return []
        return [
            item if isinstance(item, str) else to_string(item)
            for item in xpath(document, expression)
        ]

    def nums(self, version: int) -> list[str]:
        return self.select(version, DENSE)

    def changes(self, old: int, new: int, prefix) -> list:
        before, after = self.documents[old - 1], self.documents[new - 1]
        if before is None or after is None:
            changes = (
                []
                if before is after
                else [Change("added" if before is None else "deleted", "/ROOT")]
            )
        else:
            changes = keyed_diff(before, after, SPEC).changes
        return [
            change
            for change in changes
            if prefix is None or within(change.path, prefix)
        ]

    def existence(self, num: str) -> str:
        return VersionSet(
            version
            for version in range(1, len(self.documents) + 1)
            if num in self.nums(version)
        ).to_text()


def answer(query) -> list:
    return [item if isinstance(item, str) else to_string(item) for item in query]


# -- the machine ----------------------------------------------------------------------


class ReadOracle(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="read-oracle-")
        self.path = f"{self.directory}/store"
        self.model = Model()
        self.writer = None  # a handle that holds its trees between appends
        self.reader = None  # a long-lived read handle: warm selects
        self.seen: set[str] = set()  # every Num ever ingested
        reset_chunk_cache()

    @initialize(
        seed=st.integers(0, 2**16),
        kind=st.sampled_from(["file", "chunked", "external"]),
        chunks=st.integers(1, 3),
    )
    def create(self, seed: int, kind: str, chunks: int) -> None:
        create_archive(
            self.path, OMIM_KEY_TEXT, kind=kind, chunk_count=chunks, codec="xbin"
        ).close()
        self.generator = OmimGenerator(seed=seed, initial_records=5, rates=RATES)
        self.last = None
        self.add_version_fresh("document")  # so that every read rule applies

    def teardown(self) -> None:
        try:
            for handle in (self.writer, self.reader):
                if handle is not None:
                    handle.close()
            if self.model.documents:
                assert fsck_archive(self.path, deep=True).clean
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)
            reset_chunk_cache()

    # -- writes --------------------------------------------------------------------

    def next_document(self, shape: str):
        if shape == "empty":
            return None
        if shape == "recordless":
            return parse_document("<ROOT/>")
        self.last = (
            self.generator.initial_version()
            if self.last is None
            else self.generator.next_version(self.last)
        )
        return self.last

    def appended(self, document) -> None:
        self.model.documents.append(
            None if document is None else in_key_order(document)
        )
        if document is not None:
            self.seen.update(self.model.nums(len(self.model.documents)))
        if self.reader is not None:  # it pinned the generation before
            self.reader.close()
            self.reader = None

    @rule(shape=SHAPES)
    def add_version_held(self, shape: str) -> None:
        document = self.next_document(shape)
        if self.writer is None:
            self.writer = open_archive(self.path)
        self.writer.add_version(None if document is None else document.copy())
        self.appended(document)

    @rule(shape=SHAPES)
    def add_version_fresh(self, shape: str) -> None:
        document = self.next_document(shape)
        if self.writer is not None:  # one writer at a time
            self.writer.close()
            self.writer = None
        handle = open_archive(self.path)
        handle.add_version(None if document is None else document.copy())
        handle.close()
        self.appended(document)

    @rule(shapes=st.lists(SHAPES, min_size=1, max_size=4), held=st.booleans())
    def ingest_batch(self, shapes: list, held: bool) -> None:
        documents = [self.next_document(shape) for shape in shapes]
        if held:
            if self.writer is None:
                self.writer = open_archive(self.path)
            handle = self.writer
        else:
            if self.writer is not None:  # one writer at a time
                self.writer.close()
                self.writer = None
            handle = open_archive(self.path)
        handle.ingest_batch(
            None if document is None else document.copy() for document in documents
        )
        if not held:
            handle.close()
        for document in documents:
            self.appended(document)

    @precondition(lambda self: self.writer is not None)
    @rule()
    def reopen(self) -> None:
        self.writer.close()
        self.writer = open_archive(self.path)
        assert self.writer.last_version == len(self.model.documents)

    # -- reads ---------------------------------------------------------------------

    def version(self, data) -> int:
        return data.draw(st.integers(1, len(self.model.documents)), label="version")

    def keyed(self, data) -> str:
        nums = sorted(self.seen) + ["no-such-record"]
        num = data.draw(st.sampled_from(nums), label="num")
        return f"/ROOT/Record[Num='{num}']"

    @precondition(lambda self: self.model.documents)
    @rule(data=st.data(), times=st.integers(1, 3), interleave=st.booleans())
    def retrieve_on_one_handle(self, data, times: int, interleave: bool) -> None:
        """The first read of a decoded tree streams, the second settles
        what it reads, the third walks the settled tree."""
        version = self.version(data)
        reset_chunk_cache()
        handle = open_archive(self.path, recover=False)
        try:
            for read in range(times):
                document = handle.retrieve(version)
                found = None if document is None else to_pretty_string(document)
                assert found == self.model.retrieve(version), (version, read)
                if interleave:
                    selected = answer(repro.open(handle).at(version).select(DENSE))
                    assert selected == self.model.select(version, DENSE)
        finally:
            handle.close()

    @precondition(lambda self: self.model.documents)
    @rule(data=st.data(), dense=st.booleans())
    def select_cold(self, data, dense: bool) -> None:
        version = self.version(data)
        expression = data.draw(DENSES, label="dense") if dense else self.keyed(data)
        reset_chunk_cache()
        handle = open_archive(self.path, recover=False)
        try:
            found = answer(repro.open(handle).at(version).select(expression))
        finally:
            handle.close()
        assert found == self.model.select(version, expression)

    @precondition(lambda self: self.model.documents)
    @rule(data=st.data(), dense=st.booleans())
    def select_warm(self, data, dense: bool) -> None:
        version = self.version(data)
        expression = data.draw(DENSES, label="dense") if dense else self.keyed(data)
        if self.reader is None:
            self.reader = open_archive(self.path, recover=False)
        db = repro.open(self.reader)
        for _ in range(2):
            found = answer(db.at(version).select(expression))
            assert found == self.model.select(version, expression)

    @precondition(lambda self: self.seen)
    @rule(data=st.data(), spelling=SPELLINGS)
    def history(self, data, spelling: str) -> None:
        num = data.draw(st.sampled_from(sorted(self.seen)), label="num")
        handle = open_archive(self.path, recover=False)
        try:
            path = "/ROOT/Record" + spelling.format(num)
            existence = repro.open(handle).history(path).existence
        finally:
            handle.close()
        assert existence.to_text() == self.model.existence(num)

    @precondition(lambda self: self.seen)
    @rule(
        data=st.data(),
        narrow=st.sampled_from([None, "record", "field"]),
        spelling=SPELLINGS,
    )
    def changes(self, data, narrow, spelling: str) -> None:
        """The store's change report between two drawn versions is the
        keyed diff of the two documents, in the same order."""
        old = self.version(data)
        others = [v for v in range(1, len(self.model.documents) + 1) if v != old]
        new = data.draw(st.sampled_from(others or [old]), label="new")
        prefix = asked = None
        if narrow is not None:
            # Half the time a record the two versions differ in.
            changed = sorted(
                {
                    match.group(1)
                    for change in self.model.changes(old, new, None)
                    if (match := RECORD_NUM.match(change.path))
                }
            )
            pool = changed if changed and data.draw(st.booleans()) else self.seen
            num = data.draw(st.sampled_from(sorted(pool)), label="num")
            prefix = f"/ROOT/Record[Num={num}]"  # as change paths render
            asked = "/ROOT/Record" + spelling.format(num)
            if narrow == "field":
                field = "/" + data.draw(FIELDS, label="field")
                prefix += field
                asked += field
        reset_chunk_cache()
        handle = open_archive(self.path, recover=False)
        try:
            found = repro.open(handle).between(old, new).changes(asked).all()
        finally:
            handle.close()
        assert found == self.model.changes(old, new, prefix)

    @invariant()
    def store_is_clean(self) -> None:
        if self.model.documents:  # the store exists from the first one on
            assert fsck_archive(self.path).clean


TestReadOracle = ReadOracle.TestCase
TestReadOracle.settings = settings.get_profile("read-oracle")
