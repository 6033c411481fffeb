"""The per-layer probes of the traced pass.

Every traced run, whatever its workload, runs this one suite over the
workload's own snapshots: each layer's public functions are called
from outside and timed (``src/repro`` has no timers of its own yet),
and the program's public counters supply the exact counts.  Layer
names are the packages under ``src/repro``.

The suite builds its own stores from the snapshots it is given, so a
probe never disturbs the store a workload measures.
"""

from __future__ import annotations

import gc
import http.client
import io
import os
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from statistics import median

from common import (
    DENSE_XPATH,
    OMIM_KEY_TEXT,
    SRC,
    STORE,
    STORE_NAME,
    Oracle,
    Reference,
    Sizes,
    build_store,
    calibration_ms,
    directory_bytes,
    keyed_xpath,
    make_plan,
    parse_snapshots,
    percentile,
)
from server import Traffic, Xarchd, read_texts, step_passes
from spans import Recorder
from workloads import Measured, Stepwise, StepwiseWriter, read_op

import repro
from repro import cli
from repro.client import connect
from repro.core.tempquery import archive_diff
from repro.query.plan import compile_plan
from repro.server.service import ArchiveService
from repro.storage import (
    FaultInjector,
    create_archive,
    fsck_archive,
    get_codec,
    inject,
    open_archive,
)
from repro.storage.cache import reset_chunk_cache
from repro.storage.integrity import checksum_entry, verify_bytes
from repro.xmltree import parse_file, to_pretty_string, to_string

CODECS = ("raw", "gzip", "xmill", "xbin")
RATES = (8, 16, 32)


def clock_ms(function, repeats: int, collect: bool = True, batch: int = 1) -> float:
    """Median wall milliseconds of one ``function()`` call over
    ``repeats`` samples.  A sample starts with nothing pending for the
    collector and times ``batch`` calls in a row (sub-millisecond calls
    need that: the first call after a collection runs on cold caches).
    ``collect=False``: back to back, for calls whose spacing is part of
    what is measured."""
    samples = []
    for _ in range(max(1, repeats)):
        if collect:
            gc.collect()
        start = time.perf_counter()
        for _ in range(batch):
            function()
        samples.append((time.perf_counter() - start) / batch)
    return median(samples) * 1e3


def settle() -> None:
    """Move what the probes have built so far out of the collector's
    way, so a collection inside a timed call costs that call's garbage."""
    gc.collect()
    gc.freeze()


class CountingInjector(FaultInjector):
    """A fault-free injector: it only counts what the write seam does."""

    def __init__(self) -> None:
        super().__init__()
        self.bytes_written = 0

    def filter_payload(self, path: str, data: bytes) -> bytes:
        self.bytes_written += len(data)
        return data


class Probes:
    def __init__(self, snapshots, sizes: Sizes, workdir: str, seed: int) -> None:
        self.snapshots = snapshots
        self.sizes = sizes
        self.workdir = workdir
        self.seed = seed
        self.metrics: dict[str, float] = {}
        self.failures: list[str] = []
        os.makedirs(workdir)
        count = sizes.versions
        self.batch_paths = snapshots.paths[:count]
        self.tail_paths = snapshots.paths[count : count + sizes.probe_repeats]
        self.user_bytes = snapshots.user_bytes(count)
        self.oracle = Oracle(snapshots.documents)
        self.plan = make_plan(seed, self.oracle, count, sizes.plan_ops)

    def side(self, name: str) -> str:
        path = os.path.join(self.workdir, name)
        os.makedirs(path)
        return path

    def expect(self, condition: bool, what: str) -> None:
        if not condition:
            self.failures.append(what)

    def run(self) -> dict[str, float]:
        self.metrics["calibration.pyloop_ms"] = calibration_ms()
        reference = Reference()
        for _ in range(50):
            reference.sample()
        self.metrics["calibration.alloc_ms"] = median(reference.samples) * 1e3
        self.write_path()
        self.memory_archive()
        self.read_path()
        self.other_backends()
        self.parallel()
        self.maintenance()
        self.cli()
        self.server()
        return self.metrics

    # -- xmltree, keys, core.merge, codec encode, integrity, wal ----------------

    def write_path(self) -> None:
        sizes, metrics = self.sizes, self.metrics
        # opaque: batch load, then single appends with the write seam counted
        served = self.side("served")
        start = time.perf_counter()
        self.documents = parse_snapshots(self.batch_paths)
        self.store = build_store(served, self.documents)
        elapsed = time.perf_counter() - start
        metrics["ingest.batch_mb_per_s"] = self.user_bytes / 1e6 / elapsed
        writable = os.path.join(self.side("appended"), STORE_NAME)
        shutil.copytree(self.store, writable)
        backend = open_archive(writable)
        seam = CountingInjector()
        append_seconds = []
        with inject(seam):
            for path in self.tail_paths:
                start = time.perf_counter()
                backend.add_version(parse_file(path))
                append_seconds.append(time.perf_counter() - start)
        backend.close()
        appends = len(self.tail_paths)
        appended_bytes = sum(
            self.snapshots.sizes[sizes.versions : sizes.versions + appends]
        )
        metrics["ingest.append_ms"] = median(append_seconds) * 1e3
        fsyncs = sum(1 for kind, _ in seam.log if kind in ("fsync", "dirsync"))
        metrics["wal.fsyncs_per_append"] = fsyncs / appends
        metrics["wal.bytes_written_per_append"] = seam.bytes_written / appends
        metrics["wal.write_amplification"] = seam.bytes_written / appended_bytes

        # stepwise: the same batch and appends through the layers
        # (a shorter batch: per-version means need no more)
        versions = sizes.probe_versions
        settle()
        batch, tail = Recorder(), Recorder()
        writer = StepwiseWriter(batch, self.side("stepwise"))
        with batch.operation("batch-ingest"):
            writer.ingest(self.batch_paths[:versions])
        batch_stats = writer.stats.nodes_visited(), writer.stats.nodes_skipped
        writer.recorder = tail
        for path in self.batch_paths[versions : versions + appends]:
            gc.collect()
            with tail.operation("append"):
                writer.ingest([path])
        batch_times, tail_times = batch.self_times(), tail.self_times()
        metrics["xmltree.parse_ms"] = (
            batch_times["xmltree.parse"]["total_s"] / versions * 1e3
        )
        metrics["keys.annotate_ms"] = (
            batch_times["keys.annotate"]["total_s"] / versions * 1e3
        )
        metrics["core.merge_ms_per_version"] = (
            batch_times["core.merge"]["total_s"] / versions * 1e3
        )
        metrics["core.append_merge_ms"] = (
            tail_times["core.merge"]["total_s"] / appends * 1e3
        )
        metrics["wal.commit_ms"] = (
            tail_times["wal.commit"]["total_s"] / appends * 1e3
        )
        visited, skipped = batch_stats
        metrics["core.merge_nodes_visited"] = visited
        metrics["core.merge_skip_ratio"] = skipped / (skipped + visited)

    # -- codecs, diff, plan and execution over one in-memory archive ------------

    def memory_archive(self) -> None:
        metrics, repeats = self.metrics, self.sizes.probe_repeats
        spec = repro.parse_key_spec(OMIM_KEY_TEXT)
        archive = repro.Archive(spec)
        archive.add_versions(self.documents)
        last = archive.last_version
        settle()
        for name in CODECS:
            codec = get_codec(name)
            encoded = codec.encode_archive(archive)
            metrics[f"codec.{name}.encode_ms"] = clock_ms(
                lambda: codec.encode_archive(archive), repeats
            )
            metrics[f"codec.{name}.decode_ms"] = clock_ms(
                lambda: codec.decode_archive(encoded, spec), repeats
            )
            metrics[f"codec.{name}.bytes_per_user_byte"] = (
                len(encoded) / self.user_bytes
            )
        metrics["core.diff_ms"] = clock_ms(
            lambda: archive_diff(archive, max(1, last - 1), last), repeats
        )
        db = repro.open(archive)
        metrics["query.changes_ms"] = clock_ms(
            lambda: db.between(max(1, last - 1), last).changes().all(), repeats
        )
        version, num = self.plan.keyed[0]
        expression = keyed_xpath(num)
        metrics["query.plan_us"] = (
            clock_ms(lambda: compile_plan(expression, spec), repeats, batch=50) * 1e3
        )
        fallbacks = queries = 0
        for label, argument, text in (
            ("keyed", version, expression),
            ("dense", last, DENSE_XPATH),
        ):
            metrics[f"query.{label}_exec_ms"] = clock_ms(
                lambda: db.at(argument).select(text).all(), repeats, batch=10
            )
            query = db.at(argument).select(text)
            results = query.all()
            metrics[f"query.nodes_visited_per_result_{label}"] = (
                query.stats.nodes_visited() / len(results)
            )
            queries += 1
            fallbacks += query.stats.fallback
        self.fallbacks, self.queries = fallbacks, queries

    # -- chunked backend, cache, core retrieval, serializer -----------------------

    def read_path(self) -> None:
        metrics, repeats = self.metrics, self.sizes.probe_repeats
        store, plan = self.store, self.plan
        versions = plan.versions[:repeats]
        settle()

        # cold, stepwise: open → read+verify → decode → retrieve → serialise
        recorder = Recorder()
        cold = Stepwise(recorder, cold=True)
        for version in versions:
            reset_chunk_cache()
            gc.collect()
            with recorder.operation("retrieve"):
                with recorder.span("chunked.open"):
                    backend = open_archive(store, recover=False)
                answer = cold.retrieve(backend, version)
                with recorder.span("chunked.open"):
                    backend.close()
            self.expect(answer == self.oracle.retrieve(version), "probe: cold retrieve")
        times = recorder.self_times()
        metrics["chunked.open_ms"] = (
            times["chunked.open"]["total_s"] / len(versions) * 1e3
        )
        metrics["chunked.read_part_payload_ms"] = (
            times["chunked.read_part_payload"]["total_s"]
            / times["chunked.read_part_payload"]["count"] * 1e3
        )

        def cold_retrieve(version):
            reset_chunk_cache()
            with open_archive(store, recover=False) as backend:
                return to_pretty_string(backend.retrieve(version))

        metrics["chunked.retrieve_cold_ms"] = median(
            [clock_ms(lambda: cold_retrieve(v), 1) for v in versions]
        )

        # one chunk's payload: hash check, cold and cached load
        reset_chunk_cache()
        handle = open_archive(store, recover=False)
        index = next(i for i in range(handle.part_count) if handle.part_exists(i))
        payload = handle.read_part_payload(index)
        entry = checksum_entry(payload)
        metrics["integrity.verify_ms"] = clock_ms(
            lambda: verify_bytes("chunk", payload, entry), repeats, batch=20
        )

        def cold_load():
            reset_chunk_cache()
            handle.load_part(index)

        load_cold = clock_ms(cold_load, repeats)
        load_warm = clock_ms(lambda: handle.load_part(index), repeats)
        metrics["chunked.load_part_cold_ms"] = load_cold
        metrics["cache.miss_decode_ms"] = load_cold - load_warm

        # warm, stepwise: cache → core → serializer
        for version in range(1, handle.last_version + 1):
            handle.retrieve(version)
        settle()
        recorder = Recorder()
        warm = Stepwise(recorder, cold=False)
        for version in versions:
            gc.collect()
            with recorder.operation("retrieve"):
                warm.retrieve(handle, version)
        nums = plan.history[:repeats]
        for num in nums:
            with recorder.operation("history"):
                answer = warm.history(handle, num)
            self.expect(
                answer == self.oracle.history(num, handle.last_version),
                "probe: history",
            )
        times = recorder.self_times()
        metrics["core.retrieve_ms"] = (
            times["core.retrieve"]["total_s"] / len(versions) * 1e3
        )
        metrics["core.retrieve_probes"] = warm.counts.probes.total() / len(versions)
        metrics["xmltree.serialize_ms"] = (
            times["xmltree.serialize"]["total_s"] / len(versions) * 1e3
        )
        metrics["core.history_ms"] = (
            times["core.history"]["total_s"] / len(nums) * 1e3
        )
        metrics["chunked.retrieve_warm_ms"] = median(
            [clock_ms(lambda: read_op(handle, "retrieve", v), 1) for v in versions]
        )
        # keyed selects through the facade: what pruning and routing save
        pruned = 0
        keyed_seconds = []
        db = repro.open(handle)
        for version, num in plan.keyed[: 10 * repeats]:
            start = time.perf_counter()
            query = db.at(version).select(keyed_xpath(num))
            query.all()
            keyed_seconds.append(time.perf_counter() - start)
            pruned += query.stats.chunks_pruned + query.stats.chunks_routed_past
            self.fallbacks += query.stats.fallback
            self.queries += 1
        metrics["chunked.parts_pruned_per_keyed_select"] = pruned / len(keyed_seconds)
        metrics["query.fallback_share"] = self.fallbacks / self.queries
        self.warm_keyed_ms = median(keyed_seconds) * 1e3
        handle.close()

    # -- the two backends the end-to-end runs do not use --------------------------

    def other_backends(self) -> None:
        count = self.sizes.probe_versions
        documents = self.documents[:count]
        user_bytes = self.snapshots.user_bytes(count)
        for kind in ("file", "external"):
            path = os.path.join(self.side(f"backend-{kind}"), "archive")
            start = time.perf_counter()
            backend = create_archive(path, OMIM_KEY_TEXT, kind=kind, codec="xbin")
            backend.ingest_batch(documents)
            backend.close()
            elapsed = time.perf_counter() - start
            prefix = f"backend.{kind}."
            self.metrics[prefix + "ingest_ms_per_version"] = elapsed / count * 1e3

            def cold_retrieve():
                reset_chunk_cache()
                with open_archive(path, recover=False) as handle:
                    return to_pretty_string(handle.retrieve(count))

            self.metrics[prefix + "retrieve_cold_ms"] = clock_ms(
                cold_retrieve, self.sizes.probe_repeats
            )
            self.expect(
                cold_retrieve() == self.oracle.retrieve(count),
                f"probe: {kind} backend retrieve",
            )
            stored = (
                os.path.getsize(path)
                if os.path.isfile(path)
                else directory_bytes(path)
            )
            self.metrics[prefix + "bytes_per_user_byte"] = stored / user_bytes

    # -- storage.parallel: two workers against one -----------------------------------

    def parallel(self) -> None:
        count = self.sizes.probe_versions
        documents = self.documents[:count]
        seconds: dict[tuple[str, int], float] = {}
        for workers in (1, 2):
            path = os.path.join(self.side(f"parallel-{workers}"), STORE_NAME)
            backend = create_archive(path, OMIM_KEY_TEXT, workers=workers, **STORE)
            start = time.perf_counter()
            backend.ingest_batch(documents)
            seconds["ingest", workers] = time.perf_counter() - start
            start = time.perf_counter()
            backend.recode("gzip")
            seconds["recode", workers] = time.perf_counter() - start
            backend.close()
            reset_chunk_cache()
            db = repro.open(path, workers=workers)
            start = time.perf_counter()
            answer = db.at(count).select(DENSE_XPATH).all()
            seconds["query", workers] = time.perf_counter() - start
            db.close()
            self.expect(answer == self.oracle.dense(count), "probe: parallel query")
        for loop in ("ingest", "recode", "query"):
            self.metrics[f"parallel.{loop}_ratio_w2"] = (
                seconds[loop, 2] / seconds[loop, 1]
            )
            self.metrics[f"parallel.{loop}_base_ms"] = seconds[loop, 1] * 1e3

    # -- fsck, recode ----------------------------------------------------------------------

    def maintenance(self) -> None:
        self.metrics["fsck.scrub_ms"] = clock_ms(
            lambda: self.expect(fsck_archive(self.store).clean, "probe: fsck"),
            self.sizes.probe_repeats,
        )
        copy = os.path.join(self.side("recode"), STORE_NAME)
        shutil.copytree(self.store, copy)
        backend = open_archive(copy)
        start = time.perf_counter()
        backend.recode("xmill")
        self.metrics["recode.xbin_to_xmill_ms"] = (
            time.perf_counter() - start
        ) * 1e3
        backend.close()

    # -- cli ----------------------------------------------------------------------------------

    def cli(self) -> None:
        version = self.sizes.versions
        output = os.path.join(self.side("cli"), "out.xml")

        def library():
            reset_chunk_cache()
            with open_archive(self.store) as backend:
                text = to_string(backend.retrieve(version))
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)

        def command():
            reset_chunk_cache()
            with redirect_stdout(io.StringIO()):
                code = cli.main(["get", self.store, str(version), "-o", output])
            self.expect(code == 0, "probe: xarch get failed")

        repeats = self.sizes.probe_repeats
        self.metrics["cli.get_overhead_ms"] = (
            clock_ms(command, repeats) - clock_ms(library, repeats)
        )
        environment = dict(os.environ, PYTHONPATH=SRC)
        self.metrics["cli.import_ms"] = clock_ms(
            lambda: subprocess.run(
                [sys.executable, "-c", "import repro.cli"],
                env=environment,
                check=True,
            ),
            min(3, repeats),
        )

    # -- server, client -------------------------------------------------------------------

    def server(self) -> None:
        metrics, sizes = self.metrics, self.sizes
        repeats = 4 * sizes.probe_repeats
        name = STORE_NAME
        served = os.path.dirname(self.store)
        version, num = self.plan.keyed[0]
        keyed, dense = keyed_xpath(num), DENSE_XPATH

        # in process: pin and read, no HTTP
        service = ArchiveService(served)
        start = time.perf_counter()
        service.pin(name).close()
        metrics["server.pin_miss_ms"] = (time.perf_counter() - start) * 1e3
        metrics["server.pin_hit_ms"] = clock_ms(
            lambda: service.pin(name).close(), repeats, batch=10
        )

        def inproc(expression):
            return service.read(
                name,
                lambda snapshot: [
                    item if isinstance(item, str) else to_string(item)
                    for item in snapshot.db.at(version).select(expression)
                ],
            )

        inproc_keyed = clock_ms(lambda: inproc(keyed), repeats, batch=10)
        inproc_dense = clock_ms(lambda: inproc(dense), repeats, batch=4)
        metrics["server.read_inproc_ms"] = inproc_keyed
        service.pins.clear()

        # through xarchd
        server = Xarchd(served)
        try:
            traffic = Traffic(
                server.url,
                self.seed,
                sizes,
                self.oracle,
                self.plan,
                read_texts(self.snapshots.paths[sizes.versions :]),
            )
            traffic.warm_up()
            host = server.base.split("//", 1)[1]
            connection = http.client.HTTPConnection(host, timeout=10)

            def healthz():
                connection.request("GET", "/healthz")
                connection.getresponse().read()

            healthz()
            metrics["server.http_floor_ms"] = clock_ms(healthz, repeats, False)
            connection.close()
            with connect(server.url) as db:
                db.at(version).select(dense).all()
                idle_keyed = clock_ms(
                    lambda: db.at(version).select(keyed).all(), repeats, False
                )
                idle_dense = clock_ms(
                    lambda: db.at(version).select(dense).all(), repeats // 2, False
                )
            metrics["server.idle_request_p50_ms"] = idle_keyed
            metrics["server.keyed_overhead_ms"] = idle_keyed - inproc_keyed
            metrics["server.dense_overhead_ms"] = idle_dense - inproc_dense
            metrics["server.vs_inproc_ratio"] = idle_keyed / self.warm_keyed_ms

            # the rate ladder, writer on; the lowest rate once more without
            checked = Measured()
            quiet = traffic.step(RATES[0], sizes.ladder_step_s, writer=False)
            traffic.check(checked, quiet)
            cpu = server.cpu_seconds()
            answered = 0
            appends: list[float] = []
            max_rate = 0
            for rate in RATES:
                step = traffic.step(rate, sizes.ladder_step_s)
                failed = traffic.check(checked, step)
                latencies = [request.latency for request in step.requests]
                metrics[f"server.rate{rate}_p90_ms"] = (
                    percentile(latencies, 0.9) * 1e3
                )
                if step_passes(step, failed):
                    max_rate = rate
                answered += len(step.requests)
                appends += step.appends
                if rate == RATES[0]:
                    metrics["loadgen.late_p90_ms"] = percentile(
                        [request.late for request in step.requests], 0.9
                    ) * 1e3
                    metrics["server.writer_penalty_ratio"] = percentile(
                        latencies, 0.5
                    ) / percentile([r.latency for r in quiet.requests], 0.5)
            metrics["server.cpu_s_per_request"] = (
                server.cpu_seconds() - cpu
            ) / answered
            metrics["server.max_rate_rps"] = max_rate
            metrics["server.append_p50_ms"] = (
                median(appends) * 1e3 if appends else 0.0
            )
            with connect(server.url) as db:
                query = db.at(1).select(dense)
                query.all()
                pins = query.done["cache"]
            metrics["server.pin_hit_ratio"] = pins["pin_hits"] / (
                pins["pin_hits"] + pins["pin_misses"]
            )
            self.failures += checked.failures
        finally:
            server.stop()
        self.expect(fsck_archive(self.store).clean, "probe: fsck after traffic")
