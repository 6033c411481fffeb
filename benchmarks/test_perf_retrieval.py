"""TIME-RETR — Sec. 7.1: version retrieval, plain scan vs timestamp trees.

The probe-count claim: for a sparse early version in a heavily accreted
archive, the archive-integrated timestamp trees probe far fewer nodes
than the scan — the acceptance bar is ≤ 1/3 of the naive count, with
byte-identical reconstructions; for a dense recent version (α > k/8)
the two stay within a constant factor (the paper's 2k fallback bound).

The repeat-read bench covers the hot read path end to end through the
storage layer: a cold read pays the chunk decode, a warm read serves
the decoded tree from the process-wide chunk cache.  Cold/warm p50 and
p99 plus the hit ratio land in ``extra_info`` and are printed; what is
*asserted* is what the cache promises exactly, on any box: every warm
read hits (ratio 1.0, no miss), and from the third read of a cached
tree on nothing is decoded — the first read streams the blocks and
keeps none, the second walks and keeps what version 1 needs, and the
count of blocks still encoded never moves again.  (The wall-time ratio
this test used to assert shrinks every time the cold path gets faster;
``benchmarks/e2e`` is where timings are compared.)
"""

import gc
import os
import time

from conftest import publish

from repro.core import Archive, ProbeCount
from repro.data import OmimChangeRates, OmimGenerator, omim_key_spec
from repro.data.omim import OMIM_KEY_TEXT
from repro.storage import create_archive, open_archive
from repro.storage.cache import reset_chunk_cache
from repro.xmltree.serializer import to_string


def _accreted_archive():
    generator = OmimGenerator(
        seed=6,
        initial_records=6,
        rates=OmimChangeRates(
            delete_fraction=0.0, insert_fraction=0.6, modify_fraction=0.0
        ),
    )
    archive = Archive(omim_key_spec())
    for version in generator.generate_versions(12):
        archive.add_version(version)
    return archive


def test_plain_scan_retrieval(benchmark):
    archive = _accreted_archive()
    result = benchmark(lambda: archive.retrieve(1, guided=False))
    assert result is not None


def test_timestamp_tree_retrieval(benchmark):
    archive = _accreted_archive()
    archive.retrieve(1)  # build the lazy trees outside the timed region
    result = benchmark(lambda: archive.retrieve(1))
    assert result is not None


def test_timestamp_tree_retrieval_cold(benchmark):
    """First-retrieve cost: lazy tree construction included."""

    def cold():
        archive = _accreted_archive()
        return archive.retrieve(1)

    assert benchmark.pedantic(cold, rounds=3, iterations=1) is not None


def _percentile(samples, quantile):
    ranked = sorted(samples)
    return ranked[int(quantile * (len(ranked) - 1))]


def _encoded_blocks(handle) -> int:
    """Children blocks the handle's cached chunk trees have not decoded
    (told by the decoder's private mark: asking decodes nothing)."""
    count = 0
    for index in range(handle.part_count):
        stack = list(handle.load_part(index).root.children)
        while stack:
            node = stack.pop()
            if getattr(node, "_block", None) is None:
                stack.extend(node.children)
            else:
                count += 1
    return count


def test_repeat_read_cache(benchmark, tmp_path):
    """Cold (decode) vs warm (cached) repeat reads: exact work asserted,
    latency distributions printed."""
    path = os.path.join(str(tmp_path), "store")
    generator = OmimGenerator(
        seed=6,
        initial_records=40,
        rates=OmimChangeRates(
            delete_fraction=0.05, insert_fraction=0.3, modify_fraction=0.3
        ),
    )
    writer = create_archive(
        path, OMIM_KEY_TEXT, kind="chunked", chunk_count=4, codec="xbin"
    )
    writer.ingest_batch(list(generator.generate_versions(10)))
    writer.close()

    handle = open_archive(path, recover=False)

    def timed_read():
        start = time.perf_counter()
        assert handle.retrieve(1) is not None
        return time.perf_counter() - start

    # Collector pauses would dominate the warm tail (a gen-2 pass walks
    # every cached tree), so sample latencies the way pytest-benchmark's
    # own --benchmark-disable-gc mode does.
    gc.collect()
    gc.disable()
    try:
        cold = []
        for _ in range(20):
            reset_chunk_cache()  # every cold sample re-decodes each chunk
            cold.append(timed_read())
        reset_chunk_cache()
        timed_read()  # populates the cache; streams, builds no node
        streamed = _encoded_blocks(handle)
        timed_read()  # walks: decodes what version 1 needs, for good
        settled = _encoded_blocks(handle)
        gc.collect()
        handle.cache_hits = handle.cache_misses = 0
        warm = [timed_read() for _ in range(100)]
        hits, misses = handle.cache_hits, handle.cache_misses
        still_encoded = _encoded_blocks(handle)
    finally:
        gc.enable()
    handle.close()
    reset_chunk_cache()

    cold_p50, cold_p99 = _percentile(cold, 0.5), _percentile(cold, 0.99)
    warm_p50, warm_p99 = _percentile(warm, 0.5), _percentile(warm, 0.99)
    benchmark.extra_info["cold_p50_s"] = round(cold_p50, 6)
    benchmark.extra_info["cold_p99_s"] = round(cold_p99, 6)
    benchmark.extra_info["warm_p50_s"] = round(warm_p50, 6)
    benchmark.extra_info["warm_p99_s"] = round(warm_p99, 6)
    benchmark.extra_info["p50_speedup"] = round(cold_p50 / warm_p50, 2)
    benchmark.extra_info["p99_speedup"] = round(cold_p99 / warm_p99, 2)
    benchmark.extra_info["hit_ratio"] = round(hits / (hits + misses), 4)
    # Printed, not published: the timings belong to the box.
    print(
        "\n"
        f"cold p50 {cold_p50 * 1e3:.2f} ms, p99 {cold_p99 * 1e3:.2f} ms\n"
        f"warm p50 {warm_p50 * 1e3:.2f} ms, p99 {warm_p99 * 1e3:.2f} ms\n"
        f"speedup p50 {cold_p50 / warm_p50:.1f}x, "
        f"p99 {cold_p99 / warm_p99:.1f}x\n"
        f"warm hit ratio {hits}/{hits + misses}"
    )
    # The timed region for the committed baseline: one warm read.
    benchmark.pedantic(timed_warm_read_factory(path), rounds=5, iterations=1)
    # Acceptance bar: every warm read is served from the cache, and
    # after the second read of a tree no read decodes anything.
    assert misses == 0 and hits > 0
    assert streamed == 4  # each chunk's record list: the first read built none
    assert still_encoded == settled


def timed_warm_read_factory(path):
    """A self-contained warm-read callable for the benchmark timer."""
    handle = open_archive(path, recover=False)
    handle.retrieve(1)  # warm the cache outside the timed region

    def warm_read():
        assert handle.retrieve(1) is not None

    return warm_read


def test_probe_counts(once, results_dir):
    archive = _accreted_archive()

    def measure():
        rows = []
        for version in (1, archive.last_version):
            probes = ProbeCount()
            guided = archive.retrieve(version, probes=probes)
            scan = archive.retrieve(version, guided=False)
            assert guided is not None and scan is not None
            # The fast path must reconstruct the identical document.
            assert to_string(guided) == to_string(scan)
            rows.append(
                (version, probes.total(), archive.scan_probe_count(version))
            )
        return rows

    rows = once(measure)
    text = "\n".join(
        f"version {version}: timestamp-tree probes {tree}, naive scan {naive}"
        for version, tree, naive in rows
    )
    publish(results_dir, "retrieval_probes.txt", text)
    sparse_version, sparse_tree, sparse_naive = rows[0]
    dense_version, dense_tree, dense_naive = rows[1]
    # Sparse early version: the integrated trees must probe at most a
    # third of what the scan checks (acceptance bar of PR 2).
    assert sparse_tree * 3 <= sparse_naive
    # Dense latest version: at worst a small constant factor over naive
    # (the paper's 2k fallback bound).
    assert dense_tree <= 3 * dense_naive
