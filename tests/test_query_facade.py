"""The ArchiveDB facade: one queryable surface over every backend."""

import pickle
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, asdict

import pytest

import repro
from repro.core import Archive, ArchiveError, ArchiveOptions, Fingerprinter
from repro.core.tempquery import Change
from repro.core.tstree import ProbeCount
from repro.keys import parse_key_spec
from repro.query import ArchiveDB, compile_plan
from repro.query import db as query_db
from repro.query import plan as query_plan
from repro.query.plan import stored_plans
from repro.query.exec import NO_ANCHOR, node_count
from repro.storage import create_archive, open_archive
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
        travelled = pickle.loads(pickle.dumps(keyed))  # as a pool task carries it
        assert travelled == keyed and stored_plans(travelled) == {}

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
                db.at(1).select("/db/dept[name=finance]")
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

    def test_cached_plan_pickles_and_workers_answer_as_serial(self, tmp_path):
        path = str(tmp_path / "arch")
        store = create_archive(path, KEYS, kind="chunked", chunk_count=4)
        store.ingest_batch(parse_document(source) for source in VERSIONS)
        store.close()
        serial, fanned = open_archive(path), open_archive(path, workers=2)
        assert serial.spec is not fanned.spec
        for expression in ("/db/dept/emp", "/db/dept/emp/fn/text()"):
            for _ in range(2):  # compiled, then the stored plan crosses the pool
                one = serial.db().at(3).select(expression)
                two = fanned.db().at(3).select(expression)
                assert _rendered(two.all()) == _rendered(one.all()) != []
                assert two.stats.parallel_chunks > 0 == one.stats.parallel_chunks
                assert two.stats.nodes_visited() == one.stats.nodes_visited()
            plan = fanned.db().plan(expression)
            assert pickle.loads(pickle.dumps(plan)) == plan
        serial.close()
        fanned.close()

    def test_first_builds_less_than_all(self, tmp_path):
        archive = _memory_archive()
        path = str(tmp_path / "arch.xml")
        store = create_archive(path, KEYS)
        store.ingest_batch(parse_document(source) for source in VERSIONS)
        for db in (repro.open(archive), store.db()):
            whole = db.at(4).select("/db/dept/emp/fn/text()")
            assert whole.all() == ["Jane", "John"]
            one = db.at(4).select("/db/dept/emp/fn/text()")
            assert one.first() == "Jane"
            assert 0 < one.stats.nodes_materialized < whole.stats.nodes_materialized
            assert one.stats.index_lookups < whole.stats.index_lookups
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
        assert main(["query", path, "//tel", "--at", "4", "--stats"]) == 0
        captured = capsys.readouterr()
        assert "planned over the archive tree" in captured.err
