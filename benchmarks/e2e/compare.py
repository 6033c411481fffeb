"""Compare two runs of the e2e benchmark.

::

    python3 benchmarks/e2e/compare.py OLD/summary.json NEW/summary.json
    python3 benchmarks/e2e/compare.py OLD/summary.json NEW/summary.json \\
        --traces OLD/trace-cold-read.json NEW/trace-cold-read.json

The summaries are what ``run.py --out DIR [--repeat N]`` writes.  Per
workload and end-to-end metric the table shows both medians, how much
worse the new one is, the metric's bound from ``BENCHMARK.json`` and a
verdict: ``ok``, ``regressed`` (worse by more than the bound) or
``unresolved`` (the run-to-run spread of either side exceeds the bound,
so the medians cannot be told apart).  Any ``regressed`` makes the exit
code 1.  Per-layer metrics, and span self times from two trace files,
are listed with their change and no verdict: they say where to look.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from common import load_spec, quartile_spread


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def worsening(old: float, new: float, better: str) -> float:
    """How much worse ``new`` is, as a share of ``old`` (negative: better)."""
    if old == 0:
        return 0.0
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def compare_end_to_end(old: dict, new: dict, spec: dict) -> int:
    regressed = 0
    print(
        f"{'workload':<13} {'metric':<28} {'old':>11} {'new':>11} "
        f"{'worse':>8} {'bound':>6}  verdict"
    )
    for workload in (entry["name"] for entry in spec["workloads"]):
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            before = old["end_to_end"].get(workload, {}).get(name)
            after = new["end_to_end"].get(workload, {}).get(name)
            if not before or not after:
                print(f"{workload:<13} {name:<28} missing on one side")
                continue
            worse = worsening(
                statistics.median(before), statistics.median(after), entry["better"]
            )
            if max(quartile_spread(before), quartile_spread(after)) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
                regressed += 1
            else:
                verdict = "ok"
            print(
                f"{workload:<13} {name:<28} {statistics.median(before):>11.4f} "
                f"{statistics.median(after):>11.4f} {worse:>+8.1%} {bound:>6.0%}  "
                f"{verdict}"
            )
    return regressed


def compare_per_layer(old: dict, new: dict, spec: dict) -> None:
    for workload in (entry["name"] for entry in spec["workloads"]):
        before = old.get("per_layer", {}).get(workload) or {}
        after = new.get("per_layer", {}).get(workload) or {}
        if not before or not after:
            continue
        print(f"\nper-layer, {workload}:")
        for entry in spec["per_layer"]:
            name = entry["name"]
            if name in before and name in after:
                a = statistics.median(before[name])
                b = statistics.median(after[name])
                change = f"{(b - a) / abs(a):>+8.1%}" if a else "     n/a"
                print(f"  {name:<40} {a:>12.4f} {b:>12.4f} {change} {entry['unit']}")


def compare_traces(old_path: str, new_path: str) -> None:
    old, new = load(old_path), load(new_path)
    print(f"\nspan self time per call, {old.get('workload')} (ms):")
    for name in sorted(set(old["self_times"]) | set(new["self_times"])):
        a, b = old["self_times"].get(name), new["self_times"].get(name)
        if not a or not b:
            print(f"  {name:<32} only on one side")
            continue
        before = a["self_s"] / a["count"] * 1e3
        after = b["self_s"] / b["count"] * 1e3
        change = f"{(after - before) / before:>+8.1%}" if before else "     n/a"
        print(f"  {name:<32} {before:>10.4f} {after:>10.4f} {change}")
    for name, value in (old.get("exact") or {}).items():
        other = (new.get("exact") or {}).get(name)
        marker = "" if other == value else "   <-- differs"
        print(f"  exact {name:<26} {value:>10} {other!s:>10}{marker}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--traces", nargs=2, metavar=("OLD_TRACE", "NEW_TRACE"))
    args = parser.parse_args(argv)
    spec = load_spec()
    old, new = load(args.old), load(args.new)
    regressed = compare_end_to_end(old, new, spec)
    compare_per_layer(old, new, spec)
    if args.traces:
        compare_traces(*args.traces)
    if regressed:
        print(f"\n{regressed} end-to-end metric(s) regressed", file=sys.stderr)
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
