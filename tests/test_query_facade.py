"""The ArchiveDB facade: one queryable surface over every backend."""

import re
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, asdict

import pytest

import repro
from repro.core import Archive, ArchiveError, ArchiveOptions, Fingerprinter
from repro.core.tempquery import Change
from repro.core.tstree import ProbeCount
from repro.data import OmimGenerator
from repro.data.omim import OMIM_KEY_TEXT
from repro.keys import parse_key_spec
from repro.query import ArchiveDB, compile_plan
from repro.query import db as query_db
from repro.query import plan as query_plan
from repro.query.plan import stored_plans
from repro.query.exec import NO_ANCHOR, ElementCursor, label_text, node_count
from repro.query.result import QueryResult, QueryStats
from repro.storage import create_archive, open_archive
from repro.storage.cache import reset_chunk_cache
from repro.xmltree import parse_document, to_string
from repro.xmltree.xpath import XPathError, evaluate

KEYS = """
(/, (db, {}))
(/db, (dept, {name}))
(/db/dept, (emp, {fn, ln}))
(/db/dept/emp, (sal, {}))
(/db/dept/emp, (tel, {.}))
"""

VERSIONS = [
    "<db><dept><name>finance</name></dept></db>",
    """<db><dept><name>finance</name>
         <emp><fn>Jane</fn><ln>Smith</ln></emp></dept></db>""",
    """<db><dept><name>finance</name>
         <emp><fn>John</fn><ln>Doe</ln><sal>90K</sal><tel>123-4567</tel></emp></dept>
        <dept><name>marketing</name>
         <emp><fn>John</fn><ln>Doe</ln></emp></dept></db>""",
    """<db><dept><name>finance</name>
         <emp><fn>John</fn><ln>Doe</ln><sal>95K</sal><tel>123-4567</tel></emp>
         <emp><fn>Jane</fn><ln>Smith</ln><sal>95K</sal>
              <tel>123-6789</tel><tel>112-3456</tel></emp></dept></db>""",
]

EXPRESSIONS = [
    "/db",
    "/db/dept",
    "/db/dept[2]",
    "/db/dept[name='finance']",
    "/db/dept[name='finance']/emp",
    "/db/dept/emp[fn='John'][ln='Doe']/sal",
    "/db/dept/emp[tel='123-4567']",
    "/db/*/emp",
    "/db/dept/name/text()",
    "//tel",
    "//tel/text()",
    "//emp[sal='95K']/fn/text()",
    "/db/dept[name='finance']//tel",
    "/db/dept[name='nowhere']/emp",
]

BACKENDS = ["file", "chunked", "external"]


def _memory_archive() -> Archive:
    archive = Archive(parse_key_spec(KEYS))
    for source in VERSIONS:
        archive.add_version(parse_document(source))
    return archive


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    path = str(tmp_path / ("arch.xml" if request.param == "file" else "arch"))
    store = create_archive(path, KEYS, kind=request.param, chunk_count=4)
    store.ingest_batch(parse_document(source) for source in VERSIONS)
    yield store
    store.close()


def _rendered(items) -> list[str]:
    return [
        item if isinstance(item, str) else to_string(item) for item in items
    ]


class TestSelectEquivalence:
    """`at(v).select(x)` answers exactly like materialize-then-xpath."""

    @pytest.mark.parametrize("expression", EXPRESSIONS)
    def test_every_backend_every_version(self, backend, expression):
        db = backend.db()
        for version in range(1, backend.last_version + 1):
            snapshot = backend.retrieve(version)
            expected = (
                evaluate(snapshot, expression).items
                if snapshot is not None
                else []
            )
            got = db.at(version).select(expression).all()
            assert _rendered(got) == _rendered(expected), (
                backend.kind,
                expression,
                version,
            )

    @pytest.mark.parametrize("expression", EXPRESSIONS)
    def test_in_memory_archive(self, expression):
        archive = _memory_archive()
        db = repro.open(archive)
        for version in range(1, archive.last_version + 1):
            snapshot = archive.retrieve(version)
            expected = evaluate(snapshot, expression).items
            got = db.at(version).select(expression).all()
            assert _rendered(got) == _rendered(expected)

    def test_empty_version_yields_nothing(self, tmp_path):
        store = create_archive(str(tmp_path / "e.xml"), KEYS)
        store.add_version(parse_document(VERSIONS[0]))
        store.add_version(None)
        result = store.db().at(2).select("/db/dept")
        assert result.all() == []


class TestQueryResult:
    def test_streaming_is_lazy(self):
        db = repro.open(_memory_archive())
        result = db.at(4).select("//tel")
        first = result.first()
        assert first is not None and first.tag == "tel"
        # Consuming again replays the cache and continues the stream.
        assert len(result.all()) == 3

    def test_kinds(self):
        db = repro.open(_memory_archive())
        assert db.at(4).select("/db/dept").kind == "elements"
        assert db.at(4).select("/db/dept/name/text()").kind == "strings"
        assert db.between(3, 4).changes().kind == "changes"

    def test_bool_and_count(self):
        db = repro.open(_memory_archive())
        assert db.at(4).select("//tel")
        assert not db.at(1).select("//tel")
        assert db.at(4).select("//tel").count() == 3

    def test_stats_fill_on_consumption(self):
        db = repro.open(_memory_archive())
        result = db.at(4).select("/db/dept[name='finance']/emp")
        result.all()
        assert result.stats.nodes_visited() > 0
        assert result.stats.index_lookups >= 1
        assert not result.stats.fallback


def _omim_store(tmp_path, chunks=3):
    """A chunked ``xbin`` store of five OMIM versions and a sixth that
    keeps one record, so the other chunks are pruned at it."""
    documents = list(OmimGenerator(seed=5, initial_records=16).generate_versions(5))
    lone = documents[4].copy()
    del lone.children[1:]
    documents.append(lone)
    path = str(tmp_path / "omim")
    store = create_archive(path, OMIM_KEY_TEXT, kind="chunked", chunk_count=chunks, codec="xbin")
    store.ingest_batch(document.copy() for document in documents)
    store.close()
    nums = [record.find("Num").text_content() for record in documents[2].children[:3]]
    return path, nums + ["no-such-record"]


class TestChunkedLaziness:
    """``first()`` and ``bool()`` on a select over several chunks pull at
    most one answer from each chunk's run."""

    @pytest.mark.parametrize(
        "expression", ["/ROOT/Record", "/ROOT/Record/Num/text()", "/ROOT/Record/Title"]
    )
    @pytest.mark.parametrize("ask", [QueryResult.first, bool], ids=["first", "bool"])
    def test_one_answer_per_chunk(self, tmp_path, monkeypatch, expression, ask):
        path, _ = _omim_store(tmp_path)
        reader = open_archive(path, recover=False)
        pulled: list[int] = []
        run_plan = query_db.run_plan

        def counted(cursor, plan, stats):
            pulled.append(0)
            mine = len(pulled) - 1
            for item in run_plan(cursor, plan, stats):
                pulled[mine] += 1
                yield item

        monkeypatch.setattr(query_db, "run_plan", counted)
        whole = reader.db().at(3).select(expression)
        assert len(whole.all()) > 3 and sum(pulled) == len(whole.all())
        pulled.clear()
        assert ask(reader.db().at(3).select(expression))
        assert len(pulled) == 3 and max(pulled) == 1
        reader.close()


#: The work counters of every read kind on :func:`_omim_store`, through a
#: fresh handle per read (cold) and through one warmed handle, summed
#: over the reads of :meth:`TestCounterPins.reads`.  They are the figures
#: the reads reported before any change to how answers are built; a
#: faster read must do the same work.
PINNED_COUNTS = {
    "cold-dense": {"archive_nodes_visited": 107, "cache_misses": 16, "chunks_pruned": 2, "nodes_materialized": 182, "tree_probes": 165},
    "cold-history": {"cache_misses": 4},
    "cold-keyed": {"archive_nodes_visited": 60, "cache_misses": 16, "chunks_pruned": 6, "chunks_routed_past": 14, "index_lookups": 16, "nodes_materialized": 279, "tree_probes": 275},
    "cold-retrieve": {"cache_misses": 16, "handle_pruned": 2, "probes": 2002},
    "warm-dense": {"archive_nodes_visited": 107, "cache_hits": 16, "chunks_pruned": 2, "nodes_materialized": 182, "tree_probes": 165},
    "warm-history": {"cache_hits": 4},
    "warm-keyed": {"archive_nodes_visited": 60, "cache_hits": 16, "chunks_pruned": 6, "chunks_routed_past": 14, "index_lookups": 16, "nodes_materialized": 279, "tree_probes": 275},
    "warm-retrieve": {"cache_hits": 16, "handle_pruned": 2, "probes": 2161},
}
_PINNED_FIELDS = (
    "archive_nodes_visited", "nodes_materialized", "tree_probes",
    "index_lookups", "chunks_routed_past", "chunks_pruned",
)


class TestCounterPins:
    @staticmethod
    def reads(nums):
        return {
            "retrieve": list(range(1, 7)),
            "keyed": [(v, f"/ROOT/Record[Num='{n}']") for v in (1, 3, 6) for n in nums],
            "dense": [(v, "/ROOT/Record/Num/text()") for v in range(1, 7)],
            "history": nums,
        }

    @staticmethod
    def read(handle, kind, argument, total):
        before = handle.cache_hits, handle.cache_misses, handle.chunks_pruned
        if kind == "retrieve":
            probes = ProbeCount()
            handle.retrieve(argument, probes=probes)
            total["probes"] += probes.total()
        elif kind == "history":
            try:
                repro.open(handle).history(f"/ROOT/Record[Num={argument}]")
            except ArchiveError:
                pass
        else:
            version, expression = argument
            result = repro.open(handle).at(version).select(expression)
            result.all()
            for name in _PINNED_FIELDS:
                total[name] += getattr(result.stats, name)
        after = handle.cache_hits, handle.cache_misses, handle.chunks_pruned
        for name, old, new in zip(("cache_hits", "cache_misses", "handle_pruned"), before, after):
            total[name] += new - old

    @pytest.mark.parametrize("temperature", ["cold", "warm"])
    def test_every_read_does_the_pinned_work(self, tmp_path, temperature):
        path, nums = _omim_store(tmp_path)
        reset_chunk_cache()
        held = open_archive(path, recover=False)
        reads = self.reads(nums)
        if temperature == "warm":
            for kind, arguments in reads.items():
                for argument in arguments:
                    self.read(held, kind, argument, Counter())
        try:
            for kind, arguments in reads.items():
                total: Counter = Counter()
                for argument in arguments:
                    if temperature == "warm":
                        self.read(held, kind, argument, total)
                        continue
                    reset_chunk_cache()
                    handle = open_archive(path, recover=False)
                    self.read(handle, kind, argument, total)
                    handle.close()
                counts = {name: value for name, value in total.items() if value}
                assert counts == PINNED_COUNTS[f"{temperature}-{kind}"], kind
        finally:
            held.close()
            reset_chunk_cache()


class TestTemporalScopes:
    def test_versions(self, backend):
        assert backend.db().versions().to_text() == "1-4"

    def test_changes_between(self, backend):
        changes = backend.db().between(3, 4).changes().all()
        kinds = {(change.kind, change.path) for change in changes}
        assert (
            "changed",
            "/db/dept[name=finance]/emp[fn=John, ln=Doe]/sal",
        ) in kinds
        assert ("deleted", "/db/dept[name=marketing]") in kinds
        assert all(isinstance(change, Change) for change in changes)

    def test_changes_path_prefix_filter(self, backend):
        finance = "/db/dept[name=finance]"
        changes = backend.db().between(3, 4).changes(finance).all()
        assert changes and all(c.path.startswith(finance) for c in changes)

    def test_changes_prefix_respects_step_boundaries(self):
        spec_text = """
        (/, (db, {}))
        (/db, (rec, {id}))
        (/db/rec, (sal, {}))
        (/db/rec, (salx, {}))
        """
        archive = Archive(parse_key_spec(spec_text))
        archive.add_version(
            parse_document("<db><rec><id>1</id><sal>a</sal><salx>b</salx></rec></db>")
        )
        archive.add_version(
            parse_document("<db><rec><id>1</id><sal>c</sal><salx>d</salx></rec></db>")
        )
        db = repro.open(archive)
        paths = [c.path for c in db.between(1, 2).changes("/db/rec[id=1]/sal")]
        assert paths == ["/db/rec[id=1]/sal"]  # salx must not leak through
        # The select grammar's quoted form works on the change stream too.
        quoted = [c.path for c in db.between(1, 2).changes("/db/rec[id='1']/sal")]
        assert quoted == paths
        # A tag prefix covers its own key predicates, and '/' covers all.
        assert len(db.between(1, 2).changes("/db/rec").all()) == 2
        assert len(db.between(1, 2).changes("/").all()) == 2

    def test_history_and_shortcuts(self, backend):
        db = backend.db()
        path = "/db/dept[name=finance]/emp[fn=John, ln=Doe]"
        assert db.history(path).existence.to_text() == "3-4"
        assert db.first_appearance(path) == 3
        assert db.last_change(path + "/sal") == 4

    def test_bad_versions_raise(self, backend):
        db = backend.db()
        with pytest.raises(ArchiveError):
            db.at(99).select("/db")
        with pytest.raises(ArchiveError):
            db.at(0).select("/db")
        with pytest.raises(ArchiveError):
            db.between(1, 99).changes().all()

    def test_snapshot_matches_retrieve(self, backend):
        assert to_string(backend.db().at(3).snapshot()) == to_string(
            backend.retrieve(3)
        )


class TestMissingPathErrors:
    """Satellite: the same clear error on every backend."""

    PATH = "/db/dept[name=nowhere]/emp[fn=No, ln=One]"

    def test_backends_aligned(self, backend):
        db = backend.db()
        with pytest.raises(ArchiveError, match="never existed"):
            db.history(self.PATH)
        with pytest.raises(ArchiveError, match="never existed"):
            db.first_appearance(self.PATH)
        with pytest.raises(ArchiveError, match="never existed"):
            db.last_change(self.PATH)

    def test_memory_archive_aligned(self):
        db = repro.open(_memory_archive())
        with pytest.raises(ArchiveError, match="never existed"):
            db.first_appearance(self.PATH)


#: Versions whose keys need every part of the one key path grammar: a
#: composite key, a value containing ``,``, one containing ``/`` and one
#: that is not plain (``a&b``, stored as ``a&amp;b``).
SPELLED_VERSIONS = [
    """<db><dept><name>finance</name>
         <emp><fn>John</fn><ln>Doe</ln><sal>90K</sal></emp>
         <emp><fn>John</fn><ln>Doe, Jr</ln><sal>10K</sal></emp></dept>
        <dept><name>a/b</name>
         <emp><fn>a&amp;b</fn><ln>1</ln><sal>1</sal></emp></dept></db>""",
    """<db><dept><name>finance</name>
         <emp><fn>John</fn><ln>Doe</ln><sal>95K</sal></emp>
         <emp><fn>John</fn><ln>Doe, Jr</ln><sal>11K</sal></emp></dept>
        <dept><name>a/b</name>
         <emp><fn>a&amp;b</fn><ln>1</ln><sal>2</sal></emp></dept></db>""",
    """<db><dept><name>finance</name>
         <emp><fn>John</fn><ln>Doe</ln><sal>95K</sal></emp></dept>
        <dept><name>a/b</name>
         <emp><fn>a&amp;b</fn><ln>1</ln><sal>3</sal></emp></dept></db>""",
]

#: The paper's spelling beside the ``select`` one, with the existence
#: both must report.
SPELLINGS = {
    "dept": ("/db/dept[name=finance]", "/db/dept[name='finance']", "1-3"),
    "emp": (
        "/db/dept[name=finance]/emp[fn=John, ln=Doe]",
        "/db/dept[name='finance']/emp[fn='John'][ln='Doe']",
        "1-3",
    ),
    "sal": (
        "/db/dept[name=finance]/emp[fn=John, ln=Doe]/sal",
        '/db/dept[name="finance"]/emp[ln="Doe"][fn="John"]/sal',
        "1-3",
    ),
    "comma": (
        "/db/dept[name=finance]/emp[fn=John, ln='Doe, Jr']/sal",
        "/db/dept[name='finance']/emp[fn='John'][ln='Doe, Jr']/sal",
        "1-2",
    ),
    "slash": ("/db/dept[name=a/b]", "/db/dept[name='a/b']", "1-3"),
    "not-plain": (
        "/db/dept[name=a/b]/emp[fn=a&amp;b, ln=1]/sal",
        "/db/dept[name='a/b']/emp[fn='a&amp;b'][ln='1']/sal",
        "1-3",
    ),
}

#: Key path steps that name no keyed element, by the step named.
REFUSED = {
    "position": (lambda db: db.history("/db/dept[1]"), "dept[1]"),
    "half-key": (
        lambda db: db.history("/db/dept[name=finance]/emp[fn='John']"),
        "emp[fn='John']",
    ),
    "non-key": (
        lambda db: db.between(1, 2).changes("/db/dept[name=finance]/emp[sal='90K']").all(),
        "emp[sal='90K']",
    ),
    "bare-inner-step": (
        lambda db: db.between(1, 2).changes("/db/dept/emp").all(), "'dept'"
    ),
}


class TestOneKeyPath:
    """``history``, its shortcuts and ``changes`` read a key path through
    the one grammar and label rule ``select`` uses: both spellings name
    one element on every backend, and a step naming no keyed element is
    refused by name."""

    @pytest.fixture(params=BACKENDS)
    def db(self, request, tmp_path):
        kind = request.param
        path = str(tmp_path / ("arch.xml" if kind == "file" else "arch"))
        store = create_archive(path, KEYS, kind=kind, chunk_count=4)
        store.ingest_batch(parse_document(source) for source in SPELLED_VERSIONS)
        yield store.db()
        store.close()

    @staticmethod
    def answers(db, path):
        history = db.history(path)
        return (
            history.existence.to_text(),
            history.changes,
            db.first_appearance(path),
            db.last_change(path),
            [
                db.between(old, new).changes(path).all()
                for old, new in [(1, 2), (2, 3), (1, 3), (3, 1)]
            ],
        )

    @pytest.mark.parametrize("case", sorted(SPELLINGS))
    def test_both_spellings_answer_alike(self, db, case):
        paper, select, existence = SPELLINGS[case]
        answers = self.answers(db, paper)
        assert answers == self.answers(db, select)
        assert answers[0] == existence
        assert any(answers[4]), "the element changes between some pair"

    def test_the_record_reached_by_select_has_a_history(self, db):
        path = "/db/dept[name='finance']/emp[fn='John'][ln='Doe, Jr']"
        assert db.at(2).select(path + "/sal/text()").all() == ["11K"]
        assert db.history(path).existence.to_text() == "1-2"
        changed = db.between(1, 2).changes(path).all()
        assert [change.path for change in changed] == [
            "/db/dept[name=finance]/emp[fn=John, ln=Doe, Jr]/sal"
        ]

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_a_step_naming_no_keyed_element_is_refused(self, db, case):
        ask, step = REFUSED[case]
        with pytest.raises(ArchiveError, match=re.escape(step)) as raised:
            ask(db)
        assert "never existed" not in str(raised.value)

    def test_history_and_a_prefix_read_their_path_once(self, db, monkeypatch):
        from repro.core import archive, tempquery
        from repro.storage import archiver

        reads = []

        def counting(path, spec, open_last=False):
            reads.append(path)
            return archive.key_path_labels(path, spec, open_last)

        # Wherever the reading has lived: the facade, the walk, the stream.
        for module in (query_db, tempquery, archiver):
            monkeypatch.setattr(module, "key_path_labels", counting, raising=False)
        path = "/db/dept[name=finance]/emp[fn=John, ln=Doe]"
        assert db.history(path).existence
        assert reads == [path]
        db.between(1, 2).changes("/db/dept[name=finance]").all()
        assert reads == [path, "/db/dept[name=finance]"]

    def test_a_routed_prefix_opens_one_chunk_and_counts_its_walk(self, tmp_path):
        path = str(tmp_path / "arch")
        create_archive(path, KEYS, kind="chunked", chunk_count=4).ingest_batch(
            parse_document(source) for source in VERSIONS
        )
        reset_chunk_cache()
        handle = open_archive(path, recover=False)
        try:
            # The owner of finance holds records at versions 3 and 4: its
            # shell does not flip, so the prefix opens that chunk alone.
            result = handle.db().between(3, 4).changes("/db/dept[name=finance]")
            assert result.all()
            assert (handle.cache_misses, handle.cache_hits) == (1, 0)
            assert result.stats.chunks_routed_past == handle.part_count - 1
            routed = result.stats.archive_nodes_visited
            everything = handle.db().between(3, 4).changes()
            everything.all()
            assert 0 < routed < everything.stats.archive_nodes_visited
            assert everything.stats.chunks_routed_past == 0
        finally:
            handle.close()
            reset_chunk_cache()


class TestPlanner:
    def test_key_equality_becomes_lookup(self):
        plan = compile_plan(
            "/db/dept[name='finance']/emp[fn='John'][ln='Doe']", parse_key_spec(KEYS)
        )
        assert plan.steps[1].lookup == (("name", "finance"),)
        assert plan.steps[2].lookup == (("fn", "John"), ("ln", "Doe"))
        assert plan.uses_index()

    def test_singleton_key_is_lookup(self):
        plan = compile_plan("/db/dept[name='x']/emp[fn='a'][ln='b']/sal", parse_key_spec(KEYS))
        assert plan.steps[3].lookup == ()

    def test_partial_key_scans(self):
        plan = compile_plan("/db/dept/emp[fn='John']", parse_key_spec(KEYS))
        assert plan.steps[2].lookup is None  # ln not pinned

    def test_position_disables_lookup(self):
        plan = compile_plan("/db/dept[name='x'][1]", parse_key_spec(KEYS))
        assert plan.steps[1].lookup is None

    def test_unindexed_predicate_is_residual(self):
        plan = compile_plan("/db/dept/emp[sal='90K']", parse_key_spec(KEYS))
        residuals = plan.steps[2].residuals()
        assert len(residuals) == 1

    # -- one compilation per shape, kept with the key specification ---------

    def test_a_shape_is_compiled_once_and_bound_per_literal(self):
        spec = parse_key_spec(KEYS)
        first = compile_plan("/db/dept[name='finance']/emp[fn='John'][ln='Doe']", spec)
        assert compile_plan(first.expression, spec) is first
        other = "/db/dept[name='marketing']/emp[fn='Jane'][ln='Smith']"
        bound = compile_plan(other, spec)
        assert len(stored_plans(spec)) == 1
        cold = query_plan._compile(other, spec)  # what no store would answer
        assert bound == cold and bound.describe() == cold.describe()
        assert [step.lookup_label for step in bound.steps] == [
            step.lookup_label for step in cold.steps
        ]
        assert bound.steps[2].lookup == (("fn", "Jane"), ("ln", "Smith"))
        assert bound.steps[0] is first.steps[0]  # no literal: the stored step
        assert first.steps[1].lookup == (("name", "finance"),)  # and untouched

    def test_the_papers_spelling_is_a_shape_of_its_own(self):
        spec = parse_key_spec(KEYS)
        first = compile_plan("/db/dept[name=finance]/emp[fn=John, ln=Doe]", spec)
        bound = compile_plan("/db/dept[name=hr]/emp[fn=Jane, ln=Roe]", spec)
        assert len(stored_plans(spec)) == 1
        assert bound == query_plan._compile(bound.expression, spec)
        assert bound.steps[2].lookup == (("fn", "Jane"), ("ln", "Roe"))
        quoted = compile_plan("/db/dept[name='finance']/emp[fn='John'][ln='Doe']", spec)
        assert [step.lookup_label for step in first.steps] == [
            step.lookup_label for step in quoted.steps
        ]

    def test_first_predicate_on_a_key_path_still_supplies_the_lookup(self):
        spec = parse_key_spec(KEYS)
        compile_plan("/db/dept[name='a'][name='b']", spec)
        bound = compile_plan("/db/dept[name='c'][name='d']", spec)
        assert bound.steps[1].lookup == (("name", "c"),)
        assert bound == query_plan._compile(bound.expression, spec)

    @pytest.mark.parametrize("value", ["R&D", "a<b", 'say "hi"', "ops@hq"])
    def test_markup_literal_is_its_own_shape_and_answers(self, tmp_path, value):
        source = f"<db><dept><name>{value.replace('&', '&amp;').replace('<', '&lt;')}"
        source += "</name><emp><fn>A</fn><ln>B</ln></emp></dept><dept><name>x</name></dept></db>"
        quote = "'" if '"' in value else '"'
        expression = f"/db/dept[name={quote}{value}{quote}]/emp"
        for kind in BACKENDS:
            path = str(tmp_path / (kind + (".xml" if kind == "file" else "")))
            store = create_archive(path, KEYS, kind=kind, chunk_count=3)
            store.add_version(parse_document(source))
            db = store.db()
            assert len(db.at(1).select(f"/db/dept[name={quote}x{quote}]/emp").all()) == 0
            result = db.at(1).select(expression)
            expected = evaluate(store.retrieve(1), expression).items
            assert _rendered(result.all()) == _rendered(expected) != []
            assert len(stored_plans(store.spec)) == 2  # not the plain literal's shape
            plan = db.plan(expression)
            assert plan.steps[1].lookup is None and plan.steps[1].residuals()
            store.close()

    def test_quotes_the_parser_reads_differently_are_not_kept(self):
        spec = parse_key_spec(KEYS)
        plan = compile_plan("/db/dept[name='a'='b']", spec)  # one value: a'='b
        assert plan.steps[1].predicates[0].predicate.value == "a'='b"
        assert compile_plan("/db/x='1'/dept", spec).steps[1].name == "x='1'"
        assert stored_plans(spec) == {}

    def test_two_specs_never_share_a_plan(self):
        keyed, lone = parse_key_spec(KEYS), parse_key_spec(
            "(/, (db, {}))\n(/db, (dept, {}))"  # at most one dept: no key path
        )
        expression = "/db/dept[name='finance']"
        assert compile_plan(expression, keyed).steps[1].lookup == (("name", "finance"),)
        assert compile_plan(expression, lone).steps[1].lookup == ()
        assert compile_plan(expression, keyed).steps[1].lookup == (("name", "finance"),)
        assert stored_plans(keyed) is not stored_plans(lone) and len(stored_plans(keyed)) == 1

    def test_store_is_bounded_and_an_evicted_shape_answers_again(self, monkeypatch):
        monkeypatch.setattr(query_plan, "PLAN_STORE_LIMIT", 3)
        archive = _memory_archive()
        db = repro.open(archive)
        oldest = "/db/dept[name='finance']/emp"
        expected = _rendered(evaluate(archive.retrieve(4), oldest).items)
        assert _rendered(db.at(4).select(oldest).all()) == expected
        for tag in ("emp", "name", "emp/sal"):
            db.plan(f"/db/dept/{tag}")
        assert len(stored_plans(archive.spec)) == 3
        assert all("finance" not in str(shape) for shape in stored_plans(archive.spec))
        assert _rendered(db.at(4).select(oldest).all()) == expected
        assert len(stored_plans(archive.spec)) == 3

    def test_failed_compilation_keeps_nothing_and_raises_each_time(self):
        archive = _memory_archive()
        db = repro.open(archive)
        for _ in range(2):
            with pytest.raises(XPathError):
                db.at(1).select("/db/dept[name='finance]")
            with pytest.raises(XPathError):
                db.explain("db/dept")
        assert stored_plans(archive.spec) == {}
        with pytest.raises(ArchiveError):  # the version is checked before the parse
            db.at(99).select("db/dept")

    def test_shared_plans_are_immutable_and_descriptions_private(self):
        db = repro.open(_memory_archive())
        expression = "/db/dept[name='finance']/emp"
        result = db.at(4).select(expression)
        described = list(result.plan_description)
        assert described == db.plan(expression).describe() and described
        result.plan_description.append("scribble")
        db.explain(expression).append("scribble")
        assert db.at(4).select(expression).plan_description == described
        plan = db.plan(expression)
        assert isinstance(plan.steps, tuple) and isinstance(plan.steps[1].predicates, tuple)
        with pytest.raises(FrozenInstanceError):
            plan.want_text = True
        with pytest.raises(FrozenInstanceError):
            plan.steps[1].lookup = None

    def test_cached_plan_answers_as_a_first_compile(self, tmp_path):
        path = str(tmp_path / "arch")
        store = create_archive(path, KEYS, kind="chunked", chunk_count=4)
        store.ingest_batch(parse_document(source) for source in VERSIONS)
        store.close()
        first, second = open_archive(path), open_archive(path)
        assert first.spec is not second.spec
        for expression in ("/db/dept/emp", "/db/dept/emp/fn/text()"):
            expected = second.db().at(3).select(expression)
            for _ in range(2):  # compiled, then the stored plan
                one = first.db().at(3).select(expression)
                assert _rendered(one.all()) == _rendered(expected.all()) != []
                assert one.stats.nodes_visited() == expected.stats.nodes_visited()
        first.close()
        second.close()

    def test_first_builds_less_than_all(self, tmp_path):
        archive = _memory_archive()
        path = str(tmp_path / "arch.xml")
        store = create_archive(path, KEYS)
        store.ingest_batch(parse_document(source) for source in VERSIONS)
        for db in (repro.open(archive), store.db()):
            # ``sal`` is no key field: each emp looks it up.
            whole = db.at(4).select("/db/dept/emp/sal/text()")
            assert whole.all() == ["95K", "95K"]
            one = db.at(4).select("/db/dept/emp/sal/text()")
            assert one.first() == "95K"
            assert 0 < one.stats.nodes_materialized < whole.stats.nodes_materialized
            assert one.stats.index_lookups < whole.stats.index_lookups
            # ``fn`` is on each emp's key label: nothing is looked up.
            whole = db.at(4).select("/db/dept/emp/fn/text()")
            assert whole.all() == ["Jane", "John"]
            one = db.at(4).select("/db/dept/emp/fn/text()")
            assert one.first() == "Jane"
            assert 0 < one.stats.nodes_materialized < whole.stats.nodes_materialized
            assert one.stats.index_lookups == whole.stats.index_lookups == 0
        store.close()

    def test_threads_sharing_one_shape_answer_as_serial(self, monkeypatch):
        archive = _memory_archive()
        asks = [
            (version, f"/db/dept[name='{name}']/emp[fn='{fn}'][ln='{ln}']")
            for version in (3, 4)
            for name in ("finance", "marketing", "nowhere")
            for fn, ln in (("John", "Doe"), ("Jane", "Smith"), ("No", "One"))
        ] * 8

        def ask(pair):
            result = repro.open(archive).at(pair[0]).select(pair[1])
            return _rendered(result.all()), asdict(result.stats), result.plan_description

        serial = [ask(pair) for pair in asks]
        assert any(answer for answer, _, _ in serial)
        plans = stored_plans(archive.spec)
        plans.clear()  # the threads race for the one compilation
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(8) as pool:
                assert list(pool.map(ask, asks, timeout=120)) == serial
                assert len(plans) == 1
                # ... and, with room for one shape, for every insertion.
                monkeypatch.setattr(query_plan, "PLAN_STORE_LIMIT", 1)
                mixed = [(4, f"/db/dept/{tag}[{n}]") for n in (1, 2) for tag in "abcd"]
                mixed = [pair for both in zip(asks, mixed * 18) for pair in both]
                answers = list(pool.map(ask, mixed, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert answers[0::2] == serial and len(plans) == 1

    def test_select_stats_are_those_of_a_probed_retrieve(self):
        """Everything alive under ``/db/dept`` is scanned once and built
        once — what one guided ``retrieve`` probes — whether the run's
        one ``ProbeCount`` is read once or after every cursor."""
        archive = _memory_archive()
        db = repro.open(archive)
        for version in range(1, archive.last_version + 1):
            probes = ProbeCount()
            snapshot = archive.retrieve(version, probes=probes)
            for expression, above in (("/db", 0), ("/db/dept", 1)):
                result = db.at(version).select(expression)
                found = result.all()
                assert result.stats.tree_probes == probes.total()
                assert result.stats.nodes_materialized == node_count(snapshot) - above
                assert result.stats.archive_nodes_visited == above + len(found)

    def test_chunk_merge_never_compares_elements(self, backend, monkeypatch):
        """Streams that tie on ``(anchor, seq)`` come out in chunk order."""
        if backend.kind != "chunked":
            pytest.skip("merging is a chunked-backend concern")

        def tied(cursor, plan, stats):
            for child in cursor.children():
                yield (NO_ANCHOR, child.materialize())

        monkeypatch.setattr(query_db, "run_plan", tied)
        found = backend.db().at(3).select("/db/dept").all()
        assert [element.tag for element in found] == ["db", "db"]

    def test_explain_mentions_lookup_and_fallback(self, backend):
        db = backend.db()
        lines = "\n".join(db.explain("/db/dept[name='x']/emp"))
        assert "key lookup" in lines
        projected = db.explain("/db/dept/emp/fn/text()")
        assert projected[-2] == "  /fn -> key projection (parent's key label)"
        fallback_lines = "\n".join(db.explain("/db"))
        if backend.kind == "chunked":
            assert "snapshot fallback" in fallback_lines

    def test_chunked_key_lookup_opens_only_owning_chunk(self, backend):
        if backend.kind != "chunked":
            pytest.skip("hash routing is a chunked-backend concern")
        result = backend.db().at(3).select("/db/dept[name='marketing']/emp")
        assert len(result.all()) == 1
        # The partition-level lookup routes to the one owning chunk;
        # every other chunk is never considered, let alone parsed.
        assert result.stats.chunks_routed_past == backend.part_count - 1

    def test_chunked_routed_miss_still_answers_exactly(self, backend):
        if backend.kind != "chunked":
            pytest.skip("hash routing is a chunked-backend concern")
        result = backend.db().at(3).select("/db/dept[name='nowhere']/emp")
        assert result.all() == []

    def test_stats_report_pruning(self, backend):
        if backend.kind == "file":
            pytest.skip("pruning counters are for partitioned/stream stores")
        result = backend.db().at(4).select("/db/dept[name='finance']/emp")
        result.all()
        if backend.kind == "chunked":
            assert result.stats.chunks_pruned + result.stats.tree_probes > 0
        if backend.kind == "external":
            assert result.stats.events_skipped > 0


#: Employees whose ``fn`` key label cannot stand for the ``fn`` child,
#: one kind per case; each sits beside a plain one, which it can.
PROJECTION_CASES = {
    "not-plain": "<emp><fn>a&amp;b</fn><ln>1</ln></emp><emp><fn>o\"k</fn><ln>2</ln></emp>",
    "attribute-only": '<emp fn="x"><ln>3</ln></emp>',
    "attribute-and-child": '<emp fn="y"><fn>z</fn><ln>4</ln></emp>',
    "empty": "<emp><fn/><ln>5</ln></emp>",
    "spaced": "<emp><fn>  s p </fn><ln>6</ln></emp>",
}


class TestKeyProjection:
    """A trailing key field answers from its parent's key label, and
    falls back to the lookup and scan wherever the label is not the
    field's text; either way it answers as the snapshot does."""

    @pytest.fixture(params=["memory", *BACKENDS])
    def open_db(self, request, tmp_path):
        stores = []

        def open_db(sources):
            documents = [parse_document(source) for source in sources]
            if request.param == "memory":
                archive = Archive(parse_key_spec(KEYS))
                for document in documents:
                    archive.add_version(document)
                return repro.open(archive), archive.retrieve
            path = str(tmp_path / ("a.xml" if request.param == "file" else "a"))
            store = create_archive(path, KEYS, kind=request.param, chunk_count=2)
            store.ingest_batch(documents)
            stores.append(store)
            return store.db(), store.retrieve

        yield open_db
        for store in stores:
            store.close()

    @pytest.mark.parametrize("case", sorted(PROJECTION_CASES))
    def test_answers_as_the_snapshot(self, open_db, case):
        plain = "<dept><name>d</name><emp><fn>Ann</fn><ln>0</ln></emp>"
        sources = [
            f"<db>{plain}{PROJECTION_CASES[case]}</dept></db>",
            f"<db>{plain}</dept></db>",  # the case's employees die ...
            f"<db>{plain}{PROJECTION_CASES[case]}</dept></db>",  # ... and return
        ]
        db, retrieve = open_db(sources)
        for version in (1, 2, 3):
            snapshot = retrieve(version)
            for expression in ("/db/dept/emp/fn/text()", "/db/dept/emp/fn"):
                result = db.at(version).select(expression)
                got = result.all()
                assert _rendered(got) == _rendered(evaluate(snapshot, expression).items)
                if result.kind == "elements":  # counted as if materialized
                    built = sum(node_count(element) for element in got)
                    assert result.stats.nodes_materialized == built
        assert db.plan("/db/dept/emp/fn").steps[-1].projection

    def test_plain_fields_look_nothing_up(self, open_db):
        db, _ = open_db([VERSIONS[-1]])
        for expression in ("/db/dept/emp/fn/text()", "/db/dept/emp/ln", "/db/dept/name"):
            result = db.at(1).select(expression)
            assert result.all() and result.stats.index_lookups == 0

    def test_only_a_trailing_plain_one_step_key_field_projects(self):
        spec = parse_key_spec(KEYS)
        for expression in (
            "/db/dept/emp/fn/text()",
            "/db/dept/name",
            "/db/dept/emp[fn='a']/ln/text()",  # predicates above are fine
        ):
            plan = compile_plan(expression, spec)
            assert [step.projection for step in plan.steps[:-1]] == [False] * (
                len(plan.steps) - 1
            )
            assert plan.steps[-1].projection, expression
        for expression in (
            "/db/dept/emp/sal",  # keyed, but no key field of emp
            "/db/dept/emp/fn[1]",  # a predicate
            "/db/dept/emp//fn",  # not the child axis
            "/db/dept/*/fn",  # the parent's path is lost
            "/db/dept/emp/tel",  # a content key is not a one-step path
            "/db/dept/emp/fn/x",  # not the last step
        ):
            plan = compile_plan(expression, spec)
            assert not any(step.projection for step in plan.steps), expression

    def test_an_element_cursor_has_no_label(self):
        element = parse_document('<emp a="1"><fn>x</fn></emp>')
        assert label_text(ElementCursor(element, QueryStats()), "fn") is None


class TestOpen:
    def test_open_path_owns_backend(self, tmp_path):
        path = str(tmp_path / "arch.xml")
        store = create_archive(path, KEYS)
        store.ingest_batch(parse_document(source) for source in VERSIONS)
        store.close()
        with repro.open(path) as db:
            assert db.kind == "file"
            assert db.last_version == 4
            assert len(db.at(4).select("//tel").all()) == 3

    def test_open_backend_and_archive(self, tmp_path):
        path = str(tmp_path / "arch.xml")
        store = create_archive(path, KEYS)
        store.add_version(parse_document(VERSIONS[0]))
        assert repro.open(store).kind == "file"
        assert repro.open(_memory_archive()).kind == "memory"

    def test_backend_db_entry_point(self, tmp_path):
        path = str(tmp_path / "arch")
        store = create_archive(path, KEYS, kind="external")
        store.add_version(parse_document(VERSIONS[0]))
        db = store.db()
        assert isinstance(db, ArchiveDB)
        assert db.kind == "external"

    def test_open_rejects_junk(self):
        with pytest.raises(ArchiveError):
            ArchiveDB(42)  # type: ignore[arg-type]


class TestConfigurations:
    """Compaction and fingerprinting change storage, not answers."""

    @pytest.mark.parametrize(
        "options",
        [
            ArchiveOptions(compaction=True),
            ArchiveOptions(fingerprinter=Fingerprinter(bits=64)),
            ArchiveOptions(fingerprinter=Fingerprinter(bits=2)),
            ArchiveOptions(fingerprinter=Fingerprinter(bits=64), compaction=True),
        ],
    )
    @pytest.mark.parametrize("expression", EXPRESSIONS[:8])
    def test_memory_configurations(self, options, expression):
        archive = Archive(parse_key_spec(KEYS), options)
        for source in VERSIONS:
            archive.add_version(parse_document(source))
        db = repro.open(archive)
        for version in range(1, archive.last_version + 1):
            snapshot = archive.retrieve(version)
            expected = evaluate(snapshot, expression).items
            got = db.at(version).select(expression).all()
            assert _rendered(got) == _rendered(expected)

    def test_chunked_with_fingerprinter_orders_by_key(self, tmp_path):
        options = ArchiveOptions(fingerprinter=Fingerprinter(bits=64))
        path = str(tmp_path / "fp")
        store = create_archive(path, KEYS, kind="chunked", chunk_count=4,
                               options=options)
        store.ingest_batch(parse_document(source) for source in VERSIONS)
        db = ArchiveDB(store)
        snapshot = store.retrieve(3)
        expected = evaluate(snapshot, "/db/dept").items
        got = db.at(3).select("/db/dept").all()
        assert _rendered(got) == _rendered(expected)
        store.close()


class TestCLIQuery:
    def _archive(self, tmp_path, kind="file"):
        import os

        path = str(tmp_path / ("a.xml" if kind == "file" else "a"))
        keys_path = str(tmp_path / "keys.txt")
        with open(keys_path, "w", encoding="utf-8") as handle:
            handle.write(KEYS)
        version_dir = tmp_path / "versions"
        os.makedirs(version_dir, exist_ok=True)
        for number, source in enumerate(VERSIONS, start=1):
            (version_dir / f"v{number:02d}.xml").write_text(source)
        from repro.cli import main

        assert (
            main(
                [
                    "ingest",
                    path,
                    str(version_dir),
                    "--keys",
                    keys_path,
                    "--backend",
                    kind,
                ]
            )
            == 0
        )
        return path

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_query_at(self, tmp_path, capsys, kind):
        from repro.cli import main

        path = self._archive(tmp_path, kind)
        capsys.readouterr()  # drop the ingest chatter
        assert main(["query", path, "//tel/text()", "--at", "4"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert sorted(out) == ["112-3456", "123-4567", "123-6789"]

    def test_query_defaults_to_latest(self, tmp_path, capsys):
        from repro.cli import main

        path = self._archive(tmp_path)
        capsys.readouterr()  # drop the ingest chatter
        assert main(["query", path, "/db/dept/name/text()"]) == 0
        assert capsys.readouterr().out.strip() == "finance"

    def test_query_between(self, tmp_path, capsys):
        from repro.cli import main

        path = self._archive(tmp_path)
        capsys.readouterr()  # drop the ingest chatter
        assert main(["query", path, "/", "--between", "3", "4"]) == 0
        out = capsys.readouterr().out
        assert "deleted /db/dept[name=marketing]" in out

    def test_query_explain_and_stats(self, tmp_path, capsys):
        from repro.cli import main

        path = self._archive(tmp_path)
        capsys.readouterr()  # drop the ingest chatter
        assert main(["query", path, "/db/dept[name='x']", "--explain"]) == 0
        assert "key lookup" in capsys.readouterr().out
        assert main(["query", path, "/db/dept/emp/fn/text()", "--explain"]) == 0
        assert "/fn -> key projection (parent's key label)" in capsys.readouterr().out
        assert main(["query", path, "//tel", "--at", "4", "--stats"]) == 0
        captured = capsys.readouterr()
        assert "planned over the archive tree" in captured.err
