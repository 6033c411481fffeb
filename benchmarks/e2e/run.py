"""benchmarks/e2e — one seeded harness, four workloads, whole operations
split by layer.  See README.md beside this file.

One run of one workload (what ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload cold-read --seed 7 \\
        --seconds 12 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.  Everything
else (the metric table, typed latencies, failures) goes to standard
error, and to ``--out DIR`` when given.

Without ``--workload`` the script runs every workload, each in a child
process of its own (so peak RSS is that workload's), ``--repeat N``
times with seeds ``S .. S+N-1``, and prints per metric the median, the
quartiles and the spread against its bound.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for summary and trace files")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes: seconds, not minutes"
    )
    return parser.parse_args(argv)


# -- one workload, one run ---------------------------------------------------------------


def make_workload(name: str, seed: int, sizes, workdir: str, extra_versions: int):
    """``extra_versions``: snapshots beyond the pre-ingested ones, for
    whoever appends or posts during the run."""
    from server import ServerMixed
    from workloads import ColdRead, Ingest, WarmQuery

    classes = {
        "ingest": Ingest,
        "cold-read": ColdRead,
        "warm-query": WarmQuery,
        "server-mixed": ServerMixed,
    }
    return classes[name](seed, sizes, workdir, extra_versions)


def timed_run(args, sizes, workroot: str, log):
    """The end-to-end pass: tracing off, set-up repeated, every answer
    checked."""
    import common

    # Only server-mixed writes while it is timed: one post per period.
    posts = int(args.seconds / sizes.writer_period_s) + 1
    setup_seconds = []
    for number in range(sizes.setups):
        workload = make_workload(
            args.workload, args.seed, sizes,
            os.path.join(workroot, f"setup-{number}"),
            posts if args.workload == "server-mixed" else 0,
        )
        start = time.perf_counter()
        workload.setup()
        setup_seconds.append(time.perf_counter() - start)
        if number < sizes.setups - 1:
            workload.teardown()
    # What set-up built (snapshots, oracle, decoded chunks) stays out of
    # the collector's way: a collection during a timed operation then
    # costs what the operation's own garbage costs.
    gc.collect()
    gc.freeze()
    try:
        result = workload.measure(args.seconds)
        rss = getattr(workload, "server_rss_mb", None) or common.peak_rss_mb()
    finally:
        workload.teardown()
    samples = len(result.op_seconds)
    # Operation time is reported calibrated (see common.REFERENCE_MS);
    # the raw figures and the factor go to the log.  Set-up time is raw.
    factor = result.reference.factor()
    raw = {
        "op_p50_ms": common.percentile(result.op_seconds, 0.5) * 1e3,
        "op_p90_ms": common.percentile(result.op_seconds, 0.9) * 1e3,
        "cpu_ms_per_op": result.cpu_seconds / result.cpu_ops * 1e3,
    }
    metrics = {name: value * factor for name, value in raw.items()}
    metrics["setup_s"] = statistics.median(setup_seconds)
    metrics["stored_bytes_per_user_byte"] = result.stored_bytes / result.user_bytes
    metrics["peak_rss_mb"] = rss
    log(
        f"calibration factor {factor:.4f} "
        f"({len(result.reference.samples)} reference-loop samples)"
    )
    for name, value in raw.items():
        log(f"  raw {name:<14} {value:.4f}")
    log(f"units of work timed: {samples} (p90 rests on {samples // 10} beyond it)")
    typed = {}
    for kind, values in result.typed.items():
        if not values:
            continue
        scale = 1.0 if kind.endswith("_per_s") else 1e3
        typed[kind] = {
            "samples": len(values),
            "p50": common.percentile(values, 0.5) * scale,
            "p90": common.percentile(values, 0.9) * scale,
        }
        unit = "MB/s" if scale == 1.0 else "ms"
        log(
            f"  {kind:<16} n={len(values):<5} p50 {typed[kind]['p50']:.3f} {unit}"
            f"  p90 {typed[kind]['p90']:.3f} {unit}"
        )
    detail = {
        "typed_raw": typed,
        "raw": raw,
        "calibrated": dict(metrics),
        "factor": factor,
    }
    return metrics, result, detail


def traced_run(args, sizes, workroot: str, log):
    """The per-layer pass: the workload's operations replayed step by
    step under the span recorder, then the layer probes."""
    from layers import Probes
    from spans import Recorder
    from workloads import Measured

    # The probes append ``probe_repeats`` versions and post one per
    # writer period through four rate steps.
    extra = sizes.probe_repeats + 4 * (
        int(sizes.ladder_step_s / sizes.writer_period_s) + 1
    )
    workload = make_workload(
        args.workload, args.seed, sizes, os.path.join(workroot, "traced"), extra
    )
    workload.setup()
    gc.collect()
    gc.freeze()
    recorder = Recorder()
    try:
        replay = workload.replay(args.seconds * REPLAY_SHARE, recorder)
        probes = Probes(
            workload.snapshots, sizes, os.path.join(workroot, "probes"), args.seed
        )
        metrics = probes.run()
    finally:
        workload.teardown()
    metrics["trace.coverage_ratio"] = replay["coverage"]
    metrics["trace.overhead_ratio"] = replay["overhead"]
    metrics["cache.hit_ratio"] = replay["cache_hit_ratio"]
    metrics["cache.evictions"] = replay["cache_evictions"]
    result = Measured()
    result.attempted = replay["operations"] + len(metrics)
    for failure in replay["failures"] + probes.failures:
        result.fail(failure)
    for name, (opaque, stepwise) in replay["exact"].items():
        log(f"  exact {name}: opaque {opaque}, stepwise {stepwise}")
        if opaque != stepwise:
            result.fail(f"exact count {name} differs: {opaque} != {stepwise}")
    if args.out:
        recorder.dump(
            os.path.join(args.out, f"trace-{args.workload}.json"),
            workload=args.workload,
            seed=args.seed,
            exact={name: pair[0] for name, pair in replay["exact"].items()},
        )
    return metrics, result, recorder.self_times()


#: Share of ``--seconds`` the traced pass spends replaying the workload;
#: the layer probes take the rest of its time.
REPLAY_SHARE = 0.4


def run_one(args) -> int:
    sys.path.insert(0, HERE)
    import common

    spec = common.load_spec()
    if args.workload not in [entry["name"] for entry in spec["workloads"]]:
        raise SystemExit(f"unknown workload {args.workload!r}")
    sizes = common.SMOKE if args.smoke else common.Sizes()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    if args.out:
        os.makedirs(args.out, exist_ok=True)

    def log(line: str) -> None:
        print(line, file=sys.stderr)

    # A terminated run still stops its server and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    # Scratch lives inside the checkout (the only place a run may write);
    # a run removes what it put there, and .gitignore names the directory.
    scratch = os.path.join(HERE, ".work")
    os.makedirs(scratch, exist_ok=True)
    workroot = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        if args.trace:
            metrics, result, detail = traced_run(args, sizes, workroot, log)
            declared = spec["per_layer"]
        else:
            metrics, result, detail = timed_run(args, sizes, workroot, log)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    for failure in result.failures:
        log(f"FAILED: {failure}")
    report = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        report[name] = {"value": metrics[name], "unit": unit}
        log(f"{args.workload:<13} {name:<40} {metrics[name]:>14.4f} {unit}")
    extra = sorted(set(metrics) - set(report))
    for name in extra:
        log(f"{args.workload:<13} {name:<40} {metrics[name]:>14.4f} (reported only)")
    summary = {
        "correct": result.failed == 0,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": report,
    }
    if args.out:
        kind = "layers" if args.trace else "timed"
        path = os.path.join(args.out, f"{kind}-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {**summary, "workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "failures": result.failures,
                 "detail": detail, "claim": None},
                handle, indent=1,
            )
    print(json.dumps(summary))
    return 0


# -- every workload, repeated ------------------------------------------------------------


def child(args, workload: str, seed: int, trace: int) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    if args.out:
        command += ["--out", args.out]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} (seed {seed}) exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_all(args) -> int:
    sys.path.insert(0, HERE)
    import common

    spec = common.load_spec()
    bounds = {entry["name"]: entry for entry in spec["end_to_end"]}
    workloads = [entry["name"] for entry in spec["workloads"]]
    timed: dict = {name: {metric: [] for metric in bounds} for name in workloads}
    layers: dict = {name: {} for name in workloads}
    failed = 0
    for repeat in range(args.repeat):
        seed = args.seed + repeat
        for name in workloads:
            summary = child(args, name, seed, 0)
            failed += summary["failed"]
            for metric, record in summary["metrics"].items():
                timed[name][metric].append(record["value"])
            if args.trace:
                summary = child(args, name, seed, 1)
                failed += summary["failed"]
                for metric, record in summary["metrics"].items():
                    layers[name].setdefault(metric, []).append(record["value"])
    print(
        f"{'workload':<13} {'metric':<28} {'unit':<6} {'median':>11} "
        f"{'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}"
    )
    for name in workloads:
        for metric, values in timed[name].items():
            entry = bounds[metric]
            if len(values) > 1:
                q1, _q2, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            spread = common.quartile_spread(values)
            verdict = "" if spread <= entry["bound"] else "  spread > bound"
            print(
                f"{name:<13} {metric:<28} {entry['unit']:<6} "
                f"{statistics.median(values):>11.4f} {q1:>11.4f} {q3:>11.4f} "
                f"{spread:>7.3f} {entry['bound']:>6.2f}{verdict}"
            )
    report = {
        "seed": args.seed,
        "repeat": args.repeat,
        "seconds": args.seconds or spec["run_seconds"],
        "failed": failed,
        "end_to_end": timed,
        "per_layer": layers,
        "claim": None,
    }
    if args.out:
        with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    print(json.dumps(report))
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_arguments(argv)
    if args.workload is None:
        if args.out:
            os.makedirs(args.out, exist_ok=True)
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
