"""``server-mixed``: reads beside writes through a live ``xarchd``.

The server is a subprocess (``python -m repro.server serve ROOT``), so
the load generator and the server do not share an interpreter lock.
Load is open-loop: request due times come from a seeded Poisson
schedule (after the faasd trace generator in SNIPPETS.md: fixed seed,
declarative arrival schedule, a separately generated warm-up that is
not measured), two sender threads send them, and a request's latency
runs from the moment it was *due*, so a stall is charged to every
request it delays.

Independent users each hold their own keep-alive connection, so the
senders rotate through a pool of ``USERS`` connections, least recently
used first.  That matters here: ``xarchd`` writes a response in many
small segments, and a request that follows another on the *same*
connection within ~40 ms waits out the client's delayed ACK (measured:
3.5 ms becomes 44 ms, every time).  Rotation keeps that artefact of one
chatty client out of the open-loop numbers; the traced pass reports it
on its own as ``server.idle_request_p50_ms``.
"""

from __future__ import annotations

import collections
import http.client
import os
import random
import select
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from common import (
    DENSE_XPATH,
    SRC,
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
    percentile,
    write_snapshots,
)
from workloads import Measured

from repro.client import connect
from repro.core.versionset import VersionSet
from repro.server.service import ArchiveService
from repro.storage import fsck_archive
from repro.xmltree import to_string

#: Share of each request kind (ISSUE 11).
MIX = (("keyed", 0.7), ("dense", 0.2), ("history", 0.1))
CONNECTIONS = 2  # requests in flight at most (one sender thread each)
USERS = 8  # keep-alive connections the senders rotate through
#: A rate step passes when p90 from due time stays under this, nothing
#: failed, and the step drains within ``Sizes.drain_limit_s`` of its end.
LATENCY_LIMIT_MS = 500.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class Xarchd:
    """One ``xarchd`` subprocess on an ephemeral port."""

    def __init__(self, root: str) -> None:
        environment = dict(os.environ)
        environment["PYTHONPATH"] = SRC
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.server", "serve", root,
             "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=environment,
            text=True,
        )
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], 30.0)
            banner = self.process.stdout.readline() if ready else ""
            if "http://" not in banner:
                raise RuntimeError(f"xarchd did not start: {banner!r}")
        except BaseException:
            self.stop()
            raise
        self.base = banner.strip().rsplit(" ", 1)[-1]
        self.url = f"{self.base}/archives/{STORE_NAME}"

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0


# -- the schedule --------------------------------------------------------------------


@dataclass
class Request:
    due: float  # seconds after the step starts
    kind: str
    argument: object
    latency: float = -1.0  # from due time; -1 until answered
    late: float = 0.0  # how long after its due time it was sent
    answer: object = None
    done: dict = field(default_factory=dict)


def poisson_schedule(rng: random.Random, plan, rate: float, seconds: float,
                     last_version: int) -> list[Request]:
    kinds, weights = zip(*MIX)
    requests = []
    clock = rng.expovariate(rate)
    while clock < seconds:
        kind = rng.choices(kinds, weights)[0]
        if kind == "dense":
            # Half the dense reads ask for 'latest', whose answer moves
            # with every publish: the pin decides which version it is.
            argument = (
                "latest" if rng.random() < 0.5 else rng.randint(1, last_version)
            )
        else:
            argument = plan.next(kind)
        requests.append(Request(clock, kind, argument))
        clock += rng.expovariate(rate)
    return requests


def send(db, request: Request) -> None:
    if request.kind == "keyed":
        version, num = request.argument
        result = db.at(version).select(keyed_xpath(num))
        request.answer = [to_string(element) for element in result]
    elif request.kind == "dense":
        result = db.at(request.argument).select(DENSE_XPATH)
        request.answer = result.all()
    else:
        request.answer = db.history(
            history_path(request.argument)
        ).existence.to_text()
        return
    request.done = result.done


@dataclass
class Step:
    """One open-loop step: what was sent and what came back."""

    requests: list[Request]
    appends: list[float]  # client-observed POST /ingest seconds
    append_errors: list[str]
    drain_s: float  # finish time minus the scheduled end


def run_step(url: str, requests: list[Request], seconds: float,
             writer_documents: list[str], writer_period: float,
             reference: Reference) -> Step:
    """Send ``requests`` at their due times while a writer connection
    posts one version per ``writer_period``; the calling thread samples
    the reference loop twenty times a second meanwhile."""
    lock = threading.Lock()
    cursor = [0]
    idle = collections.deque(connect(url, timeout=10.0) for _ in range(USERS))
    appends: list[float] = []
    append_errors: list[str] = []
    origin = time.perf_counter() + 0.05

    def sender() -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(requests):
                return
            request = requests[index]
            due = origin + request.due
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            with lock:
                db = idle.popleft()
            request.late = time.perf_counter() - due
            try:
                send(db, request)
            except Exception as error:
                request.answer = error
            request.latency = time.perf_counter() - due
            with lock:
                idle.append(db)

    def writer() -> None:
        with connect(url, timeout=30.0) as db:
            for number, xml in enumerate(writer_documents):
                due = origin + writer_period * (number + 0.5)
                if due - origin >= seconds:
                    return
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                start = time.perf_counter()
                try:
                    db.ingest([xml])
                    appends.append(time.perf_counter() - start)
                except Exception as error:
                    append_errors.append(repr(error))

    threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
    if writer_documents:
        threads.append(threading.Thread(target=writer))
    for thread in threads:
        thread.start()
    while any(thread.is_alive() for thread in threads):
        reference.sample()
        time.sleep(0.05)
    for thread in threads:
        thread.join()
    drain = time.perf_counter() - (origin + seconds)
    for db in idle:
        db.close()
    return Step(requests, appends, append_errors, drain)


def step_passes(step: Step, failed: int) -> bool:
    """``failed`` counts wrong answers, errors and a late drain."""
    latencies = [request.latency for request in step.requests]
    return failed == 0 and percentile(latencies, 0.9) * 1e3 <= LATENCY_LIMIT_MS


# -- traffic against one served store --------------------------------------------------


def read_texts(paths: list[str]) -> list[str]:
    texts = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            texts.append(handle.read())
    return texts


class Traffic:
    """Open-loop steps against one served store, with their checks.

    ``writer_texts`` are the versions the writer connection will post,
    in order; ``posted`` counts how many it has used."""

    def __init__(self, url: str, seed: int, sizes: Sizes, oracle: Oracle,
                 plan, writer_texts: list[str]) -> None:
        self.url = url
        self.sizes = sizes
        self.oracle = oracle
        self.plan = plan
        self.writer_texts = writer_texts
        self.posted = 0
        self.rng = random.Random(seed * 104729 + 7)
        #: Sampled beside the sender threads, so the factor it yields
        #: also carries their share of the interpreter lock: calibrated
        #: server-mixed times compare with each other, not with wall time.
        #: (A sampler process of its own tracked the server's slowdown no
        #: better: spread 0.14 against 0.11-0.17.)
        self.reference = Reference()

    def warm_up(self) -> None:
        """Generated apart from the measured schedule, sent one at a
        time (a fresh connection each), thrown away."""
        count = self.sizes.warmup_requests
        warmup = poisson_schedule(
            random.Random(self.rng.random()), self.plan, float(count), 1.0,
            self.sizes.versions,
        ) + [Request(0.0, "dense", "latest")]
        for request in warmup:
            with connect(self.url) as db:
                send(db, request)

    def step(self, rate: float, seconds: float, writer: bool = True) -> Step:
        requests = poisson_schedule(
            self.rng, self.plan, rate, seconds, self.sizes.versions
        )
        documents = self.writer_texts[self.posted :] if writer else []
        step = run_step(
            self.url, requests, seconds, documents,
            self.sizes.writer_period_s, self.reference,
        )
        self.posted += len(step.appends) + len(step.append_errors)
        return step

    def check(self, result: Measured, step: Step) -> int:
        """Every answer against the oracle; returns this step's failures."""
        before = result.failed
        last_version = self.sizes.versions
        for request in step.requests:
            result.attempted += 1
            kind, argument = request.kind, request.argument
            if isinstance(request.answer, Exception) or request.latency < 0:
                result.fail(f"server: {kind} raised {request.answer!r}")
                continue
            if kind == "keyed":
                want = self.oracle.keyed(*argument)
            elif kind == "dense":
                # 'latest' resolves on the server's pin; the done record
                # says which version that was.
                version = request.done.get("version")
                want = self.oracle.dense(version)
                if argument != "latest" and version != argument:
                    want = None
            else:
                # The writer keeps extending a record's existence while
                # reads run; compare on the pre-ingested versions.
                want = self.oracle.history(argument, last_version)
                request.answer = clip_versions(request.answer, last_version)
            if request.answer != want:
                result.fail(f"server: wrong {kind} answer for {argument!r}")
            elif request.done and request.done.get("count") != len(request.answer):
                result.fail(f"server: done.count mismatch on {kind}")
        for error in step.append_errors:
            result.attempted += 1
            result.fail(f"server: append raised {error}")
        result.attempted += len(step.appends)
        if step.drain_s > self.sizes.drain_limit_s:
            result.fail(f"server: step drained {step.drain_s:.2f} s late")
        return result.failed - before


def clip_versions(existence_text: str, last_version: int) -> str:
    existence = VersionSet.parse(existence_text)
    return existence.intersection(
        VersionSet(range(1, last_version + 1))
    ).to_text()


# -- the workload ------------------------------------------------------------------------


class ServerMixed:
    """70 % keyed select / 20 % dense select / 10 % history at a fixed
    reference rate, one ``omim-accrete`` version posted every few
    seconds throughout.  The unit of work is one read request."""

    name = "server-mixed"

    def __init__(
        self, seed: int, sizes: Sizes, workdir: str, extra_versions: int
    ) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        #: Versions generated beyond the pre-ingested ones: what the
        #: writer connection posts.
        self.extra_versions = extra_versions
        self.server: Xarchd | None = None

    def setup(self) -> None:
        sizes = self.sizes
        self.snapshots = write_snapshots(
            os.path.join(self.workdir, "snapshots"),
            self.seed,
            sizes.records,
            sizes.versions + self.extra_versions,
        )
        served = os.path.join(self.workdir, "served")
        os.makedirs(served)
        self.store = build_store(
            served, parse_snapshots(self.snapshots.paths[: sizes.versions])
        )
        oracle = Oracle(self.snapshots.documents)
        self.server = Xarchd(served)
        self.traffic = Traffic(
            self.server.url,
            self.seed,
            sizes,
            oracle,
            make_plan(self.seed, oracle, sizes.versions, sizes.plan_ops),
            read_texts(self.snapshots.paths[sizes.versions :]),
        )
        self.traffic.warm_up()

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def measure(self, seconds: float) -> Measured:
        server, traffic = self.server, self.traffic
        cpu = server.cpu_seconds()
        step = traffic.step(self.sizes.reference_rate, seconds)
        cpu = server.cpu_seconds() - cpu
        result = Measured(
            op_seconds=[request.latency for request in step.requests],
            cpu_seconds=cpu,
            cpu_ops=len(step.requests),
            user_bytes=self.snapshots.user_bytes(
                self.sizes.versions + traffic.posted
            ),
            typed={
                kind: [r.latency for r in step.requests if r.kind == kind]
                for kind, _share in MIX
            },
        )
        result.reference = traffic.reference
        result.typed["append"] = step.appends
        result.typed["late"] = [request.late for request in step.requests]
        traffic.check(result, step)
        self.server_rss_mb = server.peak_rss_mb()
        result.attempted += 1
        if not fsck_archive(self.store).clean:
            result.fail("server-mixed: fsck found damage after the run")
        result.stored_bytes = directory_bytes(self.store)
        return result

    # -- traced pass ---------------------------------------------------------------

    def replay(self, seconds: float, recorder) -> dict:
        """Planned requests one at a time, no writer: each once through
        ``repro.client`` (opaque) and once as its server-side steps —
        ``ArchiveService.pin``, ``ArchiveService.read`` in this process,
        plus one ``GET /healthz`` round trip for what HTTP itself costs.
        What the steps do not cover is NDJSON framing, the transfer and
        the client's parse."""
        service = ArchiveService(os.path.dirname(self.store))
        host = self.server.base.split("//", 1)[1]
        floor = http.client.HTTPConnection(host, timeout=10)
        schedule = poisson_schedule(
            self.traffic.rng, self.traffic.plan, 1000.0, 0.1, self.sizes.versions
        ) or [Request(0.0, "dense", 1)]
        checked = Measured()
        opaque_seconds = operations = 0
        cache = {}
        deadline = time.perf_counter() + seconds
        with connect(self.server.url) as db:
            while time.perf_counter() < deadline or not operations:
                for request in schedule:
                    operations += 1
                    start = time.perf_counter()
                    send(db, request)
                    request.latency = time.perf_counter() - start
                    opaque_seconds += request.latency
                    cache = request.done.get("cache", cache)
                    with recorder.operation(request.kind):
                        with recorder.span("server.http"):
                            floor.request("GET", "/healthz")
                            floor.getresponse().read()
                        with recorder.span("server.pin"):
                            snapshot = service.pin(STORE_NAME)
                        snapshot.close()
                        with recorder.span("server.read"):
                            service.read(
                                STORE_NAME,
                                lambda pinned: serve(pinned.db, request),
                            )
                self.traffic.check(checked, Step(schedule, [], [], 0.0))
        floor.close()
        service.pins.clear()
        lookups = cache.get("chunk_hits", 0) + cache.get("chunk_misses", 0)
        return {
            "failures": checked.failures,
            "exact": {},
            "coverage": recorder.layer_seconds() / opaque_seconds,
            # The server runs untraced; only the harness's own spans cost.
            "overhead": 1.0,
            "cache_hit_ratio": cache.get("chunk_hits", 0) / lookups if lookups else 0.0,
            "cache_evictions": cache.get("chunk_evictions", 0),
            "operations": operations,
        }


def serve(db, request: Request) -> list:
    """What the server's handler computes for ``request``."""
    if request.kind == "history":
        return [db.history(history_path(request.argument)).existence.to_text()]
    if request.kind == "keyed":
        version, num = request.argument
        query = db.at(version).select(keyed_xpath(num))
    else:
        version = db.last_version if request.argument == "latest" else request.argument
        query = db.at(version).select(DENSE_XPATH)
    return [item if isinstance(item, str) else to_string(item) for item in query]
