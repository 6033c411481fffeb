"""TIME-VSET — VersionSet algebra must scale linearly in interval count.

PR 1 exposed the quadratic shapes: per-element ``add`` rebuilds during
bulk construction and the version-at-a-time ``difference`` loop.  PR 2
replaced them with single-pass merges; this bench pins the behaviour —
a 4× bigger input may cost at most ~4× (with generous slack for timer
noise), which a quadratic implementation (16×) cannot satisfy, and the
10k-interval operations must complete in interactive time.
"""

import time

from repro.core import VersionSet

#: Slack multiplier over perfect linear scaling; a quadratic
#: implementation lands at the scale factor itself (16 at 4×), far
#: beyond this bound even on a noisy machine.
LINEAR_SLACK = 3.0
SCALE = 4


def _interlocked(n, offset=0):
    """n disjoint two-wide intervals; ``offset`` shifts them so two such
    sets overlap partially — the worst case for the sweep merges."""
    return [(i * 4 + 1 + offset, i * 4 + 2 + offset) for i in range(n)]


def _best_of(func, rounds=5):
    best = None
    for _ in range(rounds):
        start = time.perf_counter()
        func()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def _measure(n):
    a_pairs = _interlocked(n)
    b_pairs = _interlocked(n, offset=1)
    a = VersionSet.from_intervals(a_pairs)
    b = VersionSet.from_intervals(b_pairs)
    return {
        "bulk_construct": _best_of(lambda: VersionSet.from_intervals(a_pairs)),
        "bulk_members": _best_of(lambda: VersionSet(range(1, n + 1))),
        "difference": _best_of(lambda: a.difference(b)),
        "union": _best_of(lambda: a.union(b)),
        "intersection": _best_of(lambda: a.intersection(b)),
    }


def test_linear_scaling(once):
    small_n, big_n = 2500, 2500 * SCALE  # big_n = 10_000 intervals

    def measure():
        return _measure(small_n), _measure(big_n)

    small, big = once(measure)
    lines = [
        f"{op}: {small[op] * 1e3:.3f} ms @ {small_n} intervals, "
        f"{big[op] * 1e3:.3f} ms @ {big_n} intervals "
        f"(x{big[op] / small[op]:.1f} for x{SCALE} input)"
        for op in small
    ]
    print("\n" + "\n".join(lines))
    for op in small:
        ratio = big[op] / small[op]
        assert ratio <= SCALE * LINEAR_SLACK, (
            f"{op} scaled x{ratio:.1f} for a x{SCALE} input — "
            f"super-linear blowup"
        )
        # Absolute sanity: 10k-interval ops stay interactive.
        assert big[op] < 0.5, f"{op} took {big[op]:.3f}s at {big_n} intervals"


def test_correctness_at_scale(once):
    """The linear paths agree with set semantics at 10k intervals."""

    def check():
        n = 10_000
        a = VersionSet.from_intervals(_interlocked(n))
        b = VersionSet.from_intervals(_interlocked(n, offset=1))
        sa, sb = set(a), set(b)
        assert set(a.difference(b)) == sa - sb
        assert set(a.union(b)) == sa | sb
        assert set(a.intersection(b)) == sa & sb
        assert len(a) == len(sa)
        return True

    assert once(check)


def test_bulk_construction(benchmark):
    pairs = _interlocked(10_000)
    result = benchmark(lambda: VersionSet.from_intervals(pairs))
    assert result.interval_count() == 10_000


def test_difference_10k_intervals(benchmark):
    a = VersionSet.from_intervals(_interlocked(10_000))
    b = VersionSet.from_intervals(_interlocked(10_000, offset=1))
    result = benchmark(lambda: a.difference(b))
    assert result.interval_count() == 10_000
