"""The three in-process workloads: ``ingest``, ``cold-read``, ``warm-query``.

Each workload offers the same three things to ``run.py``: ``setup``
(seeded inputs, pre-built store, oracle), ``measure`` (the timed pass:
whole operations through the public facade, every answer checked) and
``replay`` (the traced pass: the same operations, once opaque and once
step by step through the layers' public functions, spans around each
step).  ``server-mixed`` lives in ``server.py``.
"""

from __future__ import annotations

import gc
import heapq
import os
import shutil
import time
from dataclasses import dataclass, field

from common import (
    CHURN,
    DENSE_XPATH,
    OMIM_KEY_TEXT,
    STORE,
    STORE_NAME,
    Oracle,
    Reference,
    Sizes,
    build_store,
    directory_bytes,
    history_path,
    keyed_xpath,
    make_plan,
    parse_snapshots,
    write_snapshots,
)
from spans import Recorder

import repro
from repro.core.archive import Archive
from repro.core.merge import MergeStats
from repro.core.tstree import ProbeCount
from repro.keys import annotate_keys
from repro.keys.annotate import KeyLabel
from repro.query.exec import MemoryCursor, run_plan
from repro.query.plan import compile_plan
from repro.query.result import QueryStats
from repro.storage import (
    ChunkedArchiver,
    WriteAheadLog,
    create_archive,
    fsck_archive,
    get_codec,
    open_archive,
    restore_key_order,
)
from repro.storage.cache import chunk_cache, reset_chunk_cache
from repro.storage.chunked import concatenate_parts
from repro.storage.integrity import sha256_hex
from repro.xmltree import Element, parse_file, to_pretty_string, to_string

READ_KINDS = ("retrieve", "keyed", "dense", "history")


@dataclass
class Measured:
    """What one timed pass hands back to ``run.py``."""

    op_seconds: list[float] = field(default_factory=list)  # per unit of work
    cpu_seconds: float = 0.0  # CPU spent inside timed operations
    cpu_ops: int = 0  # the count ``cpu_ms_per_op`` divides by
    attempted: int = 0
    failed: int = 0
    stored_bytes: int = 0
    user_bytes: int = 0
    typed: dict[str, list[float]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    #: The reference loop, sampled beside the timed operations.
    reference: Reference = field(default_factory=Reference)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)


# -- whole operations through the public facade -----------------------------------


@dataclass
class Counts:
    """Exact work counts the program's own public counters report."""

    probes: ProbeCount = field(default_factory=ProbeCount)
    query: QueryStats = field(default_factory=QueryStats)

    def exact(self) -> dict[str, int]:
        return {
            "core.retrieve_probes": self.probes.total(),
            "query.archive_nodes_visited": self.query.archive_nodes_visited,
            "query.nodes_materialized": self.query.nodes_materialized,
        }


def read_op(handle, kind: str, argument, counts: Counts | None = None):
    """One read the way a library user writes it; the answer comes back
    in the comparable form the oracle produces."""
    if kind == "retrieve":
        probes = counts.probes if counts else None
        return to_pretty_string(handle.retrieve(argument, probes=probes))
    db = repro.open(handle)
    if kind == "history":
        return db.history(history_path(argument)).existence.to_text()
    if kind == "keyed":
        version, num = argument
        query = db.at(version).select(keyed_xpath(num))
        answer = [to_string(element) for element in query]
    else:
        query = db.at(argument).select(DENSE_XPATH)
        answer = query.all()
    if counts:
        counts.query.merge(query.stats)
    return answer


def expected(oracle: Oracle, kind: str, argument, last_version: int):
    if kind == "retrieve":
        return oracle.retrieve(argument)
    if kind == "keyed":
        return oracle.keyed(*argument)
    if kind == "dense":
        return oracle.dense(argument)
    return oracle.history(argument, last_version)


def plan_kind(kind: str) -> str:
    return "versions" if kind in ("retrieve", "dense") else kind


# -- the same operations, step by step ---------------------------------------------


class Stepwise:
    """Replays of the facade's operations through the layers' public
    functions.  ``cold=True`` reads, verifies and decodes every chunk it
    needs (what a fresh handle does); ``cold=False`` asks the handle's
    ``load_part`` (the decoded-chunk cache).  Exact work counts
    accumulate on the instance."""

    def __init__(self, recorder: Recorder, cold: bool) -> None:
        self.recorder = recorder
        self.cold = cold
        self.codec = get_codec(STORE["codec"])
        self.counts = Counts()

    def load(self, backend, index: int) -> Archive | None:
        span = self.recorder.span
        if not backend.part_exists(index):
            return None
        if not self.cold:
            with span("cache.load_part"):
                return backend.load_part(index)
        with span("chunked.read_part_payload"):
            payload = backend.read_part_payload(index)
        with span("codec.xbin.decode"):
            return self.codec.decode_archive(
                payload, backend.spec, backend.options
            )

    def live_parts(self, backend, version: int, indices) -> list[int]:
        live = []
        for index in indices:
            if not backend.part_exists(index):
                continue
            presence = backend.part_presence(index)
            if presence is None or version in presence:
                live.append(index)
        return live

    def retrieve(self, backend, version: int) -> str:
        span = self.recorder.span
        parts = []
        with span("chunked.presence"):
            live = self.live_parts(backend, version, range(backend.part_count))
        for index in live:
            archive = self.load(backend, index)
            with span("core.retrieve"):
                parts.append(archive.retrieve(version, probes=self.counts.probes))
        with span("chunked.restore_key_order"):
            document = restore_key_order(
                concatenate_parts(parts), backend.spec
            )
        with span("xmltree.serialize"):
            return to_pretty_string(document)

    def select(self, backend, version: int, expression: str) -> list:
        span = self.recorder.span
        stats = self.counts.query
        with span("query.plan"):
            plan = compile_plan(expression, backend.spec)
        indices = range(backend.part_count)
        if len(plan.steps) >= 2 and plan.steps[1].lookup is not None:
            step = plan.steps[1]
            indices = [
                backend.chunk_index_for_label(
                    KeyLabel(tag=step.name, key=step.lookup)
                )
            ]
        with span("chunked.presence"):
            live = self.live_parts(backend, version, indices)
        streams = []
        for index in live:
            archive = self.load(backend, index)
            with span("query.exec"):
                cursor = MemoryCursor(
                    archive, archive.root, archive.root.timestamp, version, stats
                )
                streams.append(
                    [
                        (anchor, seq, element)
                        for seq, (anchor, element) in enumerate(
                            run_plan(cursor, plan, stats)
                        )
                    ]
                )
        with span("query.exec"):
            merged = heapq.merge(*streams, key=lambda item: (item[0], item[1]))
            elements = [element for _, _, element in merged]
        if plan.want_text:
            with span("query.exec"):
                return [element.text_content() for element in elements]
        with span("xmltree.serialize"):
            return [to_string(element) for element in elements]

    def history(self, backend, num: str) -> str:
        path = history_path(num)
        for index in range(backend.part_count):
            archive = self.load(backend, index)
            if archive is None:
                continue
            with self.recorder.span("core.history"):
                try:
                    found = archive.history(path)
                except Exception:  # not in this chunk: what the backend's router does
                    continue
            return found.existence.to_text()
        raise LookupError(path)

    def read(self, backend, kind: str, argument):
        if kind == "retrieve":
            return self.retrieve(backend, argument)
        if kind == "keyed":
            version, num = argument
            return self.select(backend, version, keyed_xpath(num))
        if kind == "dense":
            return self.select(backend, argument, DENSE_XPATH)
        return self.history(backend, argument)


# -- read workloads ---------------------------------------------------------------------


class ReadWorkload:
    """Set-up shared by ``cold-read`` and ``warm-query``: the
    ``omim-accrete`` snapshots pre-ingested into the fixed store."""

    name = ""
    #: Operations of each kind in one unit of work (a *cycle*).
    cycle: dict[str, int] = {}

    def __init__(
        self, seed: int, sizes: Sizes, workdir: str, extra_versions: int = 0
    ) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        #: Versions generated beyond the pre-ingested ones (the traced
        #: pass's layer probes append and post them).
        self.extra_versions = extra_versions

    def setup(self) -> None:
        sizes = self.sizes
        self.snapshots = write_snapshots(
            os.path.join(self.workdir, "snapshots"),
            self.seed,
            sizes.records,
            sizes.versions + self.extra_versions,
        )
        self.store = build_store(
            self.workdir,
            parse_snapshots(self.snapshots.paths[: sizes.versions]),
        )
        self.oracle = Oracle(self.snapshots.documents)
        self.plan = make_plan(
            self.seed, self.oracle, sizes.versions, sizes.plan_ops
        )
        self.open_handles()

    def open_handles(self) -> None:
        pass

    def teardown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def next_cycle(self) -> list[tuple[str, object]]:
        return [
            (kind, self.plan.next(plan_kind(kind)))
            for kind in READ_KINDS
            for _ in range(self.cycle[kind])
        ]

    def check(self, result: Measured, kind: str, argument, answer) -> None:
        result.attempted += 1
        if answer != expected(self.oracle, kind, argument, self.sizes.versions):
            result.fail(f"{self.name}: wrong {kind} answer for {argument!r}")

    def new_result(self) -> Measured:
        return Measured(
            stored_bytes=directory_bytes(self.store),
            user_bytes=self.snapshots.user_bytes(self.sizes.versions),
            typed={kind: [] for kind in READ_KINDS},
        )


class ColdRead(ReadWorkload):
    """Every operation on a fresh handle with an empty decoded-chunk
    cache, as one ``xarch`` invocation would run it.

    One cycle is one retrieve-and-serialise, two keyed selects, one
    dense select and one history; its latency is the sum of the five.
    """

    name = "cold-read"
    cycle = {"retrieve": 1, "keyed": 2, "dense": 1, "history": 1}

    def cold(self, kind: str, argument):
        handle = open_archive(self.store, recover=False)
        try:
            return read_op(handle, kind, argument)
        finally:
            handle.close()

    def measure(self, seconds: float) -> Measured:
        result = self.new_result()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not result.op_seconds:
            cycle_seconds = 0.0
            for kind, argument in self.next_cycle():
                reset_chunk_cache()
                gc.collect()
                result.reference.sample()
                cpu = time.process_time()
                start = time.perf_counter()
                try:
                    answer = self.cold(kind, argument)
                except Exception as error:
                    answer = error
                elapsed = time.perf_counter() - start
                result.cpu_seconds += time.process_time() - cpu
                result.typed[kind].append(elapsed)
                cycle_seconds += elapsed
                self.check(result, kind, argument, answer)
            result.op_seconds.append(cycle_seconds)
            result.cpu_ops += 1
        return result

    def replay(self, seconds: float, recorder: Recorder) -> dict:
        return replay_reads(self, seconds, recorder, cold=True)


class WarmQuery(ReadWorkload):
    """One long-lived handle, decoded-chunk cache warmed by an untimed
    pass; the working set is far below the 256 MiB budget, so the hit
    ratio is 1.0 and storage layers do nothing.

    One cycle is one retrieve-and-serialise plus blocks of keyed
    selects, dense selects and histories sized so each kind owns a
    comparable share of the cycle; sub-millisecond kinds are timed as
    one block and reported per call.
    """

    name = "warm-query"

    def __init__(
        self, seed: int, sizes: Sizes, workdir: str, extra_versions: int = 0
    ) -> None:
        super().__init__(seed, sizes, workdir, extra_versions)
        self.cycle = {
            "retrieve": 1,
            "keyed": sizes.warm_block,
            "dense": sizes.warm_dense,
            "history": sizes.warm_block,
        }

    def open_handles(self) -> None:
        reset_chunk_cache()
        self.handle = open_archive(self.store, recover=False)
        self.handle.retrieve(self.sizes.versions)
        for kind, argument in self.next_cycle():
            read_op(self.handle, kind, argument)

    def teardown(self) -> None:
        self.handle.close()
        super().teardown()

    def measure(self, seconds: float) -> Measured:
        result = self.new_result()
        handle = self.handle
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not result.op_seconds:
            operations = self.next_cycle()
            cycle_seconds = 0.0
            position = 0
            gc.collect()
            result.reference.sample()
            for kind in READ_KINDS:
                block = operations[position : position + self.cycle[kind]]
                position += len(block)
                answers = []
                cpu = time.process_time()
                start = time.perf_counter()
                try:
                    for _kind, argument in block:
                        answers.append(read_op(handle, kind, argument))
                except Exception as error:
                    answers += [error] * (len(block) - len(answers))
                elapsed = time.perf_counter() - start
                result.cpu_seconds += time.process_time() - cpu
                result.typed[kind].append(elapsed / len(block))
                cycle_seconds += elapsed
                for (_kind, argument), answer in zip(block, answers):
                    self.check(result, kind, argument, answer)
            result.op_seconds.append(cycle_seconds)
            result.cpu_ops += 1
        return result

    def replay(self, seconds: float, recorder: Recorder) -> dict:
        return replay_reads(self, seconds, recorder, cold=False)


def replay_reads(workload, seconds: float, recorder: Recorder, cold: bool) -> dict:
    """The traced pass of a read workload.

    Every planned operation runs three times: opaque (through the
    facade, as the timed pass runs it), stepwise with spans, stepwise
    without.  All answers are checked; the exact counts of the opaque
    and the stepwise run must agree, or the replay is not replaying
    the operation it claims to.
    """
    opaque, opaque_seconds = Counts(), 0.0
    traced = Stepwise(recorder, cold)
    plain, plain_seconds = Stepwise(Recorder(enabled=False), cold), 0.0
    failures: list[str] = []
    hits = misses = cycles = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not cycles:
        cycles += 1
        for kind, argument in workload.next_cycle():
            want = expected(
                workload.oracle, kind, argument, workload.sizes.versions
            )
            if cold:
                reset_chunk_cache()
            gc.collect()
            start = time.perf_counter()
            handle = (
                open_archive(workload.store, recover=False)
                if cold
                else workload.handle
            )
            before = handle.cache_hits, handle.cache_misses
            answer = read_op(handle, kind, argument, opaque)
            if cold:
                handle.close()
            opaque_seconds += time.perf_counter() - start
            hits += handle.cache_hits - before[0]
            misses += handle.cache_misses - before[1]
            if answer != want:
                failures.append(f"opaque {kind} {argument!r}")
            for replayer in (traced, plain):
                if cold:
                    reset_chunk_cache()
                gc.collect()
                spans = replayer.recorder
                start = time.perf_counter()
                with spans.operation(kind):
                    if cold:
                        with spans.span("chunked.open"):
                            backend = open_archive(workload.store, recover=False)
                    else:
                        backend = workload.handle
                    answer = replayer.read(backend, kind, argument)
                    if cold:
                        with spans.span("chunked.open"):
                            backend.close()
                if replayer is plain:
                    plain_seconds += time.perf_counter() - start
                if answer != want:
                    failures.append(f"stepwise {kind} {argument!r}")
    stepwise = traced.counts.exact()
    return {
        "failures": failures,
        "exact": {
            name: (value, stepwise[name])
            for name, value in opaque.exact().items()
        },
        "coverage": recorder.layer_seconds() / opaque_seconds,
        "overhead": recorder.operation_seconds() / plain_seconds,
        "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache_evictions": chunk_cache().evictions,
        "operations": cycles,
    }


# -- ingest ----------------------------------------------------------------------------------


class Ingest:
    """The write path on ``omim-churn``: fresh stores, each batch-loaded
    from snapshot files and then appended to one durable commit at a
    time.  The unit of work is one append (parse + ``add_version``);
    every store is scrubbed and read back before the next one starts.
    """

    name = "ingest"

    def __init__(
        self, seed: int, sizes: Sizes, workdir: str, extra_versions: int = 0
    ) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.rounds = 0
        #: Snapshots written: a store's worth, or what the traced pass's
        #: layer probes need if that is more.
        self.snapshot_count = max(
            sizes.ingest_batch + sizes.appends, sizes.versions + extra_versions
        )

    def setup(self) -> None:
        sizes = self.sizes
        self.snapshots = write_snapshots(
            os.path.join(self.workdir, "snapshots"),
            self.seed,
            sizes.records,
            self.snapshot_count,
            CHURN,
        )
        self.oracle = Oracle(self.snapshots.documents)
        # Read back what the oracle will be asked, so the comparison
        # strings exist before any clock starts.
        for version in self.readback_versions():
            self.oracle.retrieve(version)

    def readback_versions(self) -> list[int]:
        last = self.sizes.ingest_batch + self.sizes.appends
        return sorted({1, self.sizes.ingest_batch, last})

    def teardown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def fresh_store(self) -> str:
        self.rounds += 1
        path = os.path.join(self.workdir, f"round-{self.rounds}", STORE_NAME)
        os.makedirs(os.path.dirname(path))
        return path

    def measure(self, seconds: float) -> Measured:
        sizes = self.sizes
        paths = self.snapshots.paths[: sizes.ingest_batch + sizes.appends]
        result = Measured(
            user_bytes=self.snapshots.user_bytes(len(paths)),
            typed={"batch_mb_per_s": [], "append": []},
        )
        deadline = time.perf_counter() + seconds
        complete = False
        while not complete or time.perf_counter() < deadline:
            store = self.fresh_store()
            gc.collect()
            cpu = time.process_time()
            start = time.perf_counter()
            documents = [parse_file(path) for path in paths[: sizes.ingest_batch]]
            backend = create_archive(store, OMIM_KEY_TEXT, **STORE)
            backend.ingest_batch(documents)
            elapsed = time.perf_counter() - start
            result.cpu_seconds += time.process_time() - cpu
            result.cpu_ops += sizes.ingest_batch
            result.attempted += 1
            result.typed["batch_mb_per_s"].append(
                self.snapshots.user_bytes(sizes.ingest_batch) / 1e6 / elapsed
            )
            appended = 0
            for path in paths[sizes.ingest_batch :]:
                if complete and time.perf_counter() >= deadline:
                    break
                gc.collect()
                result.reference.sample()
                cpu = time.process_time()
                start = time.perf_counter()
                try:
                    backend.add_version(parse_file(path))
                except Exception as error:
                    result.fail(f"ingest: append raised {error!r}")
                elapsed = time.perf_counter() - start
                result.cpu_seconds += time.process_time() - cpu
                result.cpu_ops += 1
                result.attempted += 1
                result.op_seconds.append(elapsed)
                appended += 1
            backend.close()
            self.verify(result, store, sizes.ingest_batch + appended)
            if appended == sizes.appends:
                complete = True
                result.stored_bytes = directory_bytes(store)
            shutil.rmtree(os.path.dirname(store))
        result.typed["append"] = result.op_seconds
        return result

    def verify(self, result: Measured, store: str, last_version: int) -> None:
        """The paper's contract on what was just written: the store
        scrubs clean and hands every probed version back exactly."""
        result.attempted += 1
        if not fsck_archive(store).clean:
            result.fail("ingest: fsck found damage")
        handle = open_archive(store, recover=False)
        try:
            for version in self.readback_versions():
                if version > last_version:
                    continue
                result.attempted += 1
                answer = to_pretty_string(handle.retrieve(version))
                if answer != self.oracle.retrieve(version):
                    result.fail(f"ingest: version {version} read back wrong")
        finally:
            handle.close()

    # -- traced pass -------------------------------------------------------------

    def replay(self, seconds: float, recorder: Recorder) -> dict:
        """Batch load and appends, opaque and then step by step."""
        sizes = self.sizes
        paths = self.snapshots.paths[: sizes.ingest_batch + sizes.appends]
        # Three passes (opaque, spans on, spans off) over one batch load
        # and a few appends; ``seconds`` does not stretch it.
        batch = paths[: sizes.ingest_batch]
        tail = paths[sizes.ingest_batch :][: 2 * sizes.probe_repeats]
        failures: list[str] = []

        # opaque: the facade, timed as a whole
        store = self.fresh_store()
        start = time.perf_counter()
        backend = create_archive(store, OMIM_KEY_TEXT, **STORE)
        opaque_stats = backend.ingest_batch([parse_file(path) for path in batch])
        for path in tail:
            opaque_stats.accumulate(backend.add_version(parse_file(path)))
        opaque_seconds = time.perf_counter() - start
        backend.close()
        reference = chunk_payloads(store)

        timings = {}
        stats_by_mode = {}
        for traced in (True, False):
            active = recorder if traced else Recorder(enabled=False)
            store_dir = os.path.dirname(self.fresh_store())
            writer = StepwiseWriter(active, store_dir)
            start = time.perf_counter()
            with active.operation("batch-ingest"):
                writer.ingest(batch)
            for path in tail:
                with active.operation("append"):
                    writer.ingest([path])
            timings[traced] = time.perf_counter() - start
            stats_by_mode[traced] = writer.stats
            if chunk_payloads(store_dir) != reference:
                failures.append("stepwise ingest wrote different chunk bytes")
            shutil.rmtree(store_dir)
        shutil.rmtree(os.path.dirname(store))
        stepwise = stats_by_mode[True]
        return {
            "failures": failures,
            "exact": {
                "core.merge_nodes_visited": (
                    opaque_stats.nodes_visited(),
                    stepwise.nodes_visited(),
                ),
                "core.subtrees_skipped": (
                    opaque_stats.subtrees_skipped,
                    stepwise.subtrees_skipped,
                ),
            },
            "coverage": recorder.layer_seconds() / opaque_seconds,
            "overhead": timings[True] / timings[False],
            "cache_hit_ratio": 0.0,
            "cache_evictions": chunk_cache().evictions,
            "operations": 1 + len(tail),
        }


def chunk_payloads(directory: str) -> dict[str, bytes]:
    payloads = {}
    for name in sorted(os.listdir(directory)):
        if name.startswith("chunk-") and name.endswith(".xml"):
            with open(os.path.join(directory, name), "rb") as handle:
                payloads[name] = handle.read()
    return payloads


class StepwiseWriter:
    """The chunked backend's ingest, rebuilt from the layers' public
    functions: parse, annotate and partition, Nested Merge per chunk,
    encode, hash, one WAL commit.  It writes the same chunk bytes the
    backend writes (the replay checks that), into a directory of its
    own."""

    def __init__(self, recorder: Recorder, directory: str) -> None:
        self.recorder = recorder
        self.directory = directory
        self.spec = repro.parse_key_spec(OMIM_KEY_TEXT)
        self.codec = get_codec(STORE["codec"])
        self.chunk_count = STORE["chunk_count"]
        self.wal = WriteAheadLog(os.path.join(directory, "wal.json"))
        self.version_count = 0
        self.stats = MergeStats()
        # Routing is the backend's own hash: this instance is asked
        # which chunk owns a record and never writes.
        self.router = ChunkedArchiver(directory, self.spec, self.chunk_count)

    def chunk_path(self, index: int) -> str:
        return os.path.join(self.directory, f"chunk-{index:04d}.xml")

    def partition(self, document: Element) -> dict[int, Element]:
        annotated = annotate_keys(document, self.spec)
        parts: dict[int, Element] = {}
        for record in document.element_children():
            index = self.router.chunk_index_for_label(annotated.label(record))
            shell = parts.get(index)
            if shell is None:
                shell = parts[index] = Element(document.tag)
            shell.append(record.copy())
        return parts

    def ingest(self, paths: list[str]) -> None:
        span = self.recorder.span
        partitions = []
        for path in paths:
            with span("xmltree.parse"):
                document = parse_file(path)
            with span("keys.annotate"):
                partitions.append(self.partition(document))
        commit = self.wal.begin()
        for index in range(self.chunk_count):
            path = self.chunk_path(index)
            slices = [parts.get(index) for parts in partitions]
            if os.path.exists(path):
                with span("chunked.read_part_payload"):
                    with open(path, "rb") as handle:
                        payload = handle.read()
                with span("codec.xbin.decode"):
                    archive = self.codec.decode_archive(payload, self.spec)
            elif any(part is not None for part in slices):
                archive = Archive(self.spec)
                for _ in range(self.version_count):
                    archive.add_version(None)
            else:
                continue
            with span("core.merge"):
                if len(slices) == 1:
                    self.stats.accumulate(archive.add_version(slices[0]))
                else:
                    self.stats.accumulate(archive.add_versions(slices))
            with span("codec.xbin.encode"):
                encoded = self.codec.encode_archive(archive)
            with span("integrity.sha256"):
                sha256_hex(encoded)
            with span("wal.commit"):
                commit.stage(path, encoded)
        self.version_count += len(paths)
        with span("wal.commit"):
            commit.commit(meta={"version_count": self.version_count})
