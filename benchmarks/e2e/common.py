"""Shared pieces of the e2e harness: paths, sizes, the fixed store
configuration, statistics and the data/oracle side of a run.

Everything the program under test receives is a file this module wrote
(or a document parsed from one); the seed never crosses that line.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

# Imported after the path bootstrap; a checkout without ``src/`` fails
# here, before any result is printed.
from repro.core.versionset import VersionSet  # noqa: E402
from repro.data.omim import (  # noqa: E402
    OMIM_KEY_TEXT,
    OmimChangeRates,
    OmimGenerator,
    omim_key_spec,
)
from repro.keys import annotate_keys  # noqa: E402
from repro.storage import create_archive  # noqa: E402
from repro.xmltree import (  # noqa: E402
    Element,
    parse_file,
    to_pretty_string,
    to_string,
    write_file,
    xpath,
)

#: The one store configuration the end-to-end numbers are taken in
#: (ISSUE 11: what PR 9/10 built the serving path around).
STORE = {"kind": "chunked", "chunk_count": 8, "codec": "xbin"}
STORE_NAME = "omim-store"

DENSE_XPATH = "/ROOT/Record/Num/text()"

#: ``omim-accrete`` keeps the generator's default rates (the paper's
#: Sec. 5.3 mix).  ``omim-churn`` gives Nested Merge real work; inserts
#: equal deletes so a snapshot keeps its size and an append late in a
#: run costs what an early one does (the archive still grows, by the
#: records each version retires).
CHURN = OmimChangeRates(
    insert_fraction=0.05, modify_fraction=0.05, delete_fraction=0.05
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  The full sizes are what fits the driver's budget of
    ~37 s per run (set-up included) on two cores; ``--smoke`` shrinks
    them until the four workloads together take seconds."""

    records: int = 80
    versions: int = 24  # pre-ingested versions of the read stores
    ingest_batch: int = 12  # versions batch-loaded into a fresh ingest store
    appends: int = 40  # single-version appends that follow each batch load
    setups: int = 3  # set-up repetitions; ``setup_s`` is their median
    plan_ops: int = 96  # distinct planned operations per read type
    warm_block: int = 32  # sub-millisecond calls timed as one block
    warm_dense: int = 6
    warmup_requests: int = 8
    reference_rate: float = 40.0  # req/s, server-mixed end-to-end numbers
    writer_period_s: float = 4.0
    ladder_step_s: float = 2.5  # per rate step in the traced probes
    drain_limit_s: float = 1.0  # a step must finish this soon after its end
    probe_versions: int = 8  # versions in the side stores layer probes build
    probe_repeats: int = 5


SMOKE = Sizes(
    records=12,
    versions=4,
    ingest_batch=3,
    appends=2,
    setups=1,
    plan_ops=8,
    warm_block=4,
    warm_dense=1,
    warmup_requests=4,
    reference_rate=20.0,
    writer_period_s=0.3,
    ladder_step_s=0.3,
    drain_limit_s=10.0,  # smoke runs share the box with a test suite
    probe_versions=3,
    probe_repeats=1,
)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- statistics --------------------------------------------------------------


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile (no interpolation: a reported value is a
    latency that was observed)."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(len(ordered) * fraction)))
    return ordered[rank]


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median — the spread the benchmark contract bounds."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def directory_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def calibration_ms() -> float:
    """A fixed pure-Python arithmetic loop: the classic box-speed figure."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for index in range(200_000):
            total += index * index % 7
        best = min(best, time.perf_counter() - start)
    return best * 1e3


# -- the reference loop: calibrated milliseconds -----------------------------------
#
# The sandbox this benchmark runs in changes speed under it: for tens of
# seconds at a time the same commit, seed and process layout runs up to
# 1.8x slower, and the slowdown follows how much a piece of code
# allocates (a pure arithmetic loop moves 1.2x; this loop and the
# program move together).  No statistic over one run's samples can
# remove a state that outlasts the run, so every workload times a fixed
# allocation-bound loop beside its operations and reports operation time
# in *calibrated* units: measured time x REFERENCE_MS / (this run's
# median loop time).  On a box where the loop takes REFERENCE_MS a
# calibrated millisecond is a millisecond.  Quartile spread of op_p50_ms
# over ten seeds, raw -> calibrated: warm-query 0.29 -> 0.07, cold-read
# 0.20 -> 0.07, ingest 0.17 -> 0.08, server-mixed 0.36 -> 0.11; medians
# of the first and last five runs of server-mixed: raw 2.51 vs 3.25 ms,
# calibrated 1.76 vs 1.76.  Set-up time stays raw: much of it is C
# (zlib, parsing I/O) and the loop over-corrects it.  Raw values and the
# factor are printed beside every calibrated value.
#
# The loop and the constant are part of the metric definitions: change
# either and every committed number changes with it.

REFERENCE_MS = 0.65


class _Cell:
    __slots__ = ("children", "value", "tag")

    def __init__(self, value: int) -> None:
        self.children: list = []
        self.value = value
        self.tag = "t%d" % (value % 17)


def _grow(depth: int, fan: int) -> _Cell:
    cell = _Cell(depth)
    if depth:
        cell.children = [_grow(depth - 1, fan) for _ in range(fan)]
    return cell


class Reference:
    """Samples of the reference loop taken during one timed section."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        # Collector off: the loop must time allocation on this box, not
        # a collection whose cost depends on what the harness holds.
        # (The cells form no cycles; dropping the root frees them all.)
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _grow(5, 4)  # 1365 small objects, built and dropped
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def factor(self) -> float:
        """Multiply a measured time by this to get calibrated time (1.0
        for a section that took no samples: it reports raw time)."""
        if not self.samples:
            return 1.0
        return REFERENCE_MS / (statistics.median(self.samples) * 1e3)


# -- data ----------------------------------------------------------------------


@dataclass
class Snapshots:
    """One dataset: the XML files the program is given, and the
    documents they were written from (the oracle's ground truth)."""

    paths: list[str]
    sizes: list[int]
    documents: list  # generated Elements, already in key order

    def user_bytes(self, count: int | None = None) -> int:
        return sum(self.sizes[:count])


def key_order(document, spec) -> None:
    """Sort keyed siblings into key order, at every keyed level.

    The archive "ignores the order among elements with keys" (Sec. 2)
    and hands them back in key order; a snapshot written in that order
    is the same document, and lets every answer be compared byte for
    byte."""
    annotated = annotate_keys(document, spec)

    def visit(node) -> None:
        if annotated.is_frontier(node):
            return
        children = sorted(
            node.element_children(),
            key=lambda child: annotated.label(child).sort_token(),
        )
        node.children[:] = children
        for child in children:
            visit(child)

    visit(document)


def write_snapshots(
    directory: str, seed: int, records: int, count: int, rates=None
) -> Snapshots:
    os.makedirs(directory, exist_ok=True)
    generator = OmimGenerator(seed=seed, initial_records=records, rates=rates)
    spec = omim_key_spec()
    paths, sizes, documents = [], [], []
    known: set[str] = set()
    document = None
    for number in range(1, count + 1):
        document = (
            generator.next_version(document)
            if document is not None
            else generator.initial_version()
        )
        # A version is a copy of the (ordered) one before plus new
        # records at the end, with larger keys: only those need ordering.
        nums = {
            record: record.find("Num").text_content()
            for record in document.children
        }
        fresh = Element(document.tag)
        fresh.children = [r for r, num in nums.items() if num not in known]
        key_order(fresh, spec)
        known = set(nums.values())
        path = os.path.join(directory, f"v{number:04d}.xml")
        sizes.append(write_file(document, path))
        paths.append(path)
        documents.append(document)
    return Snapshots(paths, sizes, documents)


def build_store(directory: str, documents: list) -> str:
    """Create the fixed-configuration store and batch-ingest into it."""
    path = os.path.join(directory, STORE_NAME)
    backend = create_archive(path, OMIM_KEY_TEXT, **STORE)
    try:
        backend.ingest_batch(documents)
    finally:
        backend.close()
    return path


def parse_snapshots(paths: list[str]) -> list:
    return [parse_file(path) for path in paths]


# -- the oracle ------------------------------------------------------------------


class Oracle:
    """Naive answers, straight from the source snapshots.

    Selects run ``xmltree.xpath`` — the evaluator that knows nothing of
    archives, plans or chunks — over the one snapshot asked about;
    a record's history is the set of snapshots it appears in.  Answers
    are memoised: computing one is never inside a timed region.
    """

    def __init__(self, documents: list) -> None:
        self.documents = documents
        self._memo: dict = {}
        self._nums: dict[int, list[str]] = {}

    def _cached(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def retrieve(self, version: int) -> str:
        return self._cached(
            ("retrieve", version),
            lambda: to_pretty_string(self.documents[version - 1]),
        )

    def nums(self, version: int) -> list[str]:
        return self._cached(
            ("dense", version),
            lambda: list(xpath(self.documents[version - 1], DENSE_XPATH)),
        )

    dense = nums

    def keyed(self, version: int, num: str) -> list[str]:
        return self._cached(
            ("keyed", version, num),
            lambda: [
                to_string(element)
                for element in xpath(
                    self.documents[version - 1], keyed_xpath(num)
                )
            ],
        )

    def history(self, num: str, last_version: int) -> str:
        return self._cached(
            ("history", num, last_version),
            lambda: VersionSet(
                version
                for version in range(1, last_version + 1)
                if num in self.nums(version)
            ).to_text(),
        )


def keyed_xpath(num: str) -> str:
    return f"/ROOT/Record[Num='{num}']"


def history_path(num: str) -> str:
    return f"/ROOT/Record[Num={num}]"


# -- the operation plan ------------------------------------------------------------


@dataclass
class Plan:
    """Seeded operation arguments: versions uniform over the
    pre-ingested range, keys Zipf(1.1) over the last version's records
    (a few records draw most lookups, as curated entries do)."""

    versions: list[int]
    keyed: list[tuple[int, str]]
    history: list[str]
    cursor: dict = field(default_factory=dict)

    def next(self, kind: str):
        items = getattr(self, kind)
        index = self.cursor.get(kind, 0)
        self.cursor[kind] = index + 1
        return items[index % len(items)]


def make_plan(seed: int, oracle: Oracle, last_version: int, count: int) -> Plan:
    rng = random.Random(seed * 7919 + 11)
    nums = oracle.nums(last_version)
    weights = [1.0 / (rank**1.1) for rank in range(1, len(nums) + 1)]
    shuffled = nums[:]
    rng.shuffle(shuffled)

    def zipf_key() -> str:
        return rng.choices(shuffled, weights)[0]

    def version_with(num: str) -> int:
        # A keyed select is asked of a version that holds the record, so
        # the routed chunk answers and no operation degenerates into the
        # all-chunk fan-out an empty answer costs.
        present = [
            version
            for version in range(1, last_version + 1)
            if num in oracle.nums(version)
        ]
        return rng.choice(present)

    keyed = []
    for _ in range(count):
        num = zipf_key()
        keyed.append((version_with(num), num))
    return Plan(
        versions=[rng.randint(1, last_version) for _ in range(count)],
        keyed=keyed,
        history=[zipf_key() for _ in range(count)],
    )
