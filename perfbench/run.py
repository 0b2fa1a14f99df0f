"""Benchmark entry point.

    python3 perfbench/run.py --workload eptas_milp --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program under test is imported from
``src/`` of that checkout.  With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it measures half the time untraced and half
traced (each half from a fresh set-up) and prints the per-layer metrics,
including the tracing overhead.  Times are in reference seconds: measured
seconds scaled by the host-speed probe (``benchstats.host_scale``); the
report lines also give the end-to-end figures as measured.  Human-readable
report lines come first; the last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from benchstats import busy_by_name, failed_share, host_scale, percentiles
from spans import Tracer
from workloads import CLIENT_METHODS, STORE_METHODS, WORKLOADS, reset_dir

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
# Set-ups per run; setup_s is their median.  One set-up builds the
# workload's inputs and state (instances, journal, warm grid) in this process.
SETUPS = 5

# name -> (unit, better); BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_s_p50": ("s", "lower"),
    "op_s_p90": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

LAYERS_WITH_CALLS = (
    "eptas.rounding",
    "eptas.classification",
    "eptas.transformation",
    "eptas.large_jobs",
    "eptas.small_jobs",
    "eptas.repair",
    "bounds",
    "baselines",
)


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit (per traced op)."""
    names = {
        "solver.solve_busy_s": "s/op",
        "solver.solves": "count/op",
        "solver.status_limit": "count/op",
        "eptas.milp.build_busy_s": "s/op",
        "eptas.milp.interpret_busy_s": "s/op",
        "eptas.milp.int_vars": "count/op",
        "eptas.milp.cont_vars": "count/op",
        "eptas.milp.rows": "count/op",
        "eptas.patterns.busy_s": "s/op",
        "eptas.patterns.count": "count/op",
        "eptas.patterns.limit_hits": "count/op",
        "eptas.search.iterations": "count/op",
        "eptas.repair.conflicts": "count/op",
        "eptas.large_jobs.swaps": "count/op",
        "eptas.eptas_share": "share",
        "eptas.ratio_to_lb": "ratio",
        "eptas.count_drift_share": "share",
    }
    for layer in LAYERS_WITH_CALLS:
        names[f"{layer}.busy_s"] = "s/op"
        names[f"{layer}.calls"] = "count/op"
    for method in STORE_METHODS:
        names[f"orchestration.store.{method}.busy_s"] = "s/op"
        names[f"orchestration.store.{method}.calls"] = "count/op"
    names["orchestration.store.fetch_rows.rows"] = "count/op"
    names["service.cache_hit_share"] = "share"
    names["service.wait_s"] = "s/op"
    names["service.submit.busy_s"] = "s/op"
    names["service.execute.busy_s"] = "s/op"
    names["service.find_row.busy_s"] = "s/op"
    names["service.params_hash.busy_s"] = "s/op"
    for method in CLIENT_METHODS:
        names[f"distributed.client.{method}.busy_s"] = "s/op"
        names[f"distributed.client.{method}.calls"] = "count/op"
    names["distributed.wire_s"] = "s/op"
    names["orchestration.cache.cached_solve.busy_s"] = "s/op"
    names["orchestration.cache.cached_solve.calls"] = "count/op"
    names["orchestration.cache.cached_solve.hits"] = "count/op"
    names["orchestration.runner.execute_cell.busy_s"] = "s/op"
    names["orchestration.runner.replans"] = "count/op"
    names["trace.ops"] = "count"
    names["trace.unattributed_s"] = "s/op"
    names["trace.attributed_share"] = "share"
    names["trace.overhead_share"] = "share"
    return names


def host_stamp() -> dict[str, object]:
    """Where the numbers come from: never compare across different stamps."""
    from repro.eptas.params import EptasConfig
    from repro.solver.registry import backend_fingerprint

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "milp_backend": backend_fingerprint(EptasConfig().backend_spec),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for worker, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(measurement, setups: list[tuple[float, float]], *, raw: bool = False) -> dict[str, float]:
    """The end-to-end metrics in reference seconds (``raw``: as measured)."""
    ops = measurement.ops
    spread = percentiles([op.latency * (1.0 if raw else op.scale) for op in ops])
    return {
        "setup_s": statistics.median(seconds * (1.0 if raw else scale) for seconds, scale in setups),
        "ops_per_s": len(ops) / (measurement.busy_s if raw else measurement.busy_ref_s),
        "op_s_p50": spread.p50,
        "op_s_p90": spread.p90,
        "peak_rss_mb": peak_rss_mb(),
    }


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer(tracer: Tracer, plain, traced) -> dict[str, float]:
    """Per-op layer figures from the traced half, plus tracing overhead."""
    ops = traced.ops
    count = len(ops)
    # Span times are converted to reference seconds with the traced half's
    # median host scale.
    scale = statistics.median(op.scale for op in ops)
    busy = {name: value * scale for name, value in busy_by_name(tracer.spans).items()}
    calls: dict[str, int] = {}
    op_time = 0.0
    for span in tracer.spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.name == "op":
            op_time += span.duration

    def per_op(value: float) -> float:
        return value / count

    counts = tracer.counts
    eptas_ops = [op for op in ops if op.counts is not None]
    metrics = {
        "solver.solve_busy_s": per_op(busy.get("solver", 0.0)),
        "solver.solves": per_op(counts.get("solver.solves", 0)),
        "solver.status_limit": per_op(counts.get("solver.status_limit", 0)),
        "eptas.milp.build_busy_s": per_op(busy.get("eptas.milp.build", 0.0)),
        "eptas.milp.interpret_busy_s": per_op(busy.get("eptas.milp.interpret", 0.0)),
        "eptas.milp.int_vars": per_op(counts.get("eptas.milp.int_vars", 0)),
        "eptas.milp.cont_vars": per_op(counts.get("eptas.milp.cont_vars", 0)),
        "eptas.milp.rows": per_op(counts.get("eptas.milp.rows", 0)),
        "eptas.patterns.busy_s": per_op(busy.get("eptas.patterns", 0.0)),
        "eptas.patterns.count": per_op(counts.get("eptas.patterns.count", 0)),
        "eptas.patterns.limit_hits": per_op(counts.get("eptas.patterns.limit_hits", 0)),
        "eptas.search.iterations": _mean(
            [op.counts["search_iterations"] for op in eptas_ops]
        ),
        "eptas.repair.conflicts": per_op(counts.get("eptas.repair.conflicts", 0)),
        "eptas.large_jobs.swaps": per_op(counts.get("eptas.large_jobs.swaps", 0)),
        "eptas.eptas_share": _mean([1.0 if op.eptas else 0.0 for op in eptas_ops]),
        "eptas.ratio_to_lb": _mean([op.ratio for op in eptas_ops]),
        "eptas.count_drift_share": _mean(
            [op.extra.get("count_drift", 0.0) for op in eptas_ops]
        ),
    }
    for layer in LAYERS_WITH_CALLS:
        metrics[f"{layer}.busy_s"] = per_op(busy.get(layer, 0.0))
        metrics[f"{layer}.calls"] = per_op(calls.get(layer, 0))
    for method in STORE_METHODS:
        name = f"orchestration.store.{method}"
        metrics[f"{name}.busy_s"] = per_op(busy.get(name, 0.0))
        metrics[f"{name}.calls"] = per_op(calls.get(name, 0))
    metrics["orchestration.store.fetch_rows.rows"] = per_op(
        counts.get("orchestration.store.fetch_rows.rows", 0)
    )
    metrics["service.cache_hit_share"] = _mean([op.extra.get("cache_hit", 0.0) for op in ops])
    metrics["service.wait_s"] = _mean([op.extra.get("wait_s", 0.0) * op.scale for op in ops])
    for name in ("service.submit", "service.execute", "service.find_row", "service.params_hash"):
        metrics[f"{name}.busy_s"] = per_op(busy.get(name, 0.0))
    client_busy = server_busy = 0.0
    for method in CLIENT_METHODS:
        name = f"distributed.client.{method}"
        metrics[f"{name}.busy_s"] = per_op(busy.get(name, 0.0))
        metrics[f"{name}.calls"] = per_op(calls.get(name, 0))
        if calls.get(name):
            client_busy += busy[name]
            server_busy += busy.get(f"orchestration.store.{method}", 0.0)
    metrics["distributed.wire_s"] = per_op(client_busy - server_busy)
    metrics["orchestration.cache.cached_solve.busy_s"] = per_op(
        busy.get("orchestration.cache.cached_solve", 0.0)
    )
    metrics["orchestration.cache.cached_solve.calls"] = per_op(
        calls.get("orchestration.cache.cached_solve", 0)
    )
    metrics["orchestration.cache.cached_solve.hits"] = per_op(
        counts.get("orchestration.cache.cached_solve.hits", 0)
    )
    metrics["orchestration.runner.execute_cell.busy_s"] = per_op(
        busy.get("orchestration.runner.execute_cell", 0.0)
    )
    metrics["orchestration.runner.replans"] = per_op(
        counts.get("orchestration.runner.replans", 0)
    )
    attributed = sum(value for name, value in busy.items() if name != "op") / scale
    metrics["trace.ops"] = float(count)
    metrics["trace.unattributed_s"] = per_op(busy.get("op", 0.0))
    metrics["trace.attributed_share"] = attributed / op_time if op_time else 0.0
    # Same ops (same seeded order, same start state) with tracing off/on.
    common = min(len(plain.ops), count)
    untraced_time = sum(op.latency * op.scale for op in plain.ops[:common])
    traced_time = sum(op.latency * op.scale for op in ops[:common])
    metrics["trace.overhead_share"] = traced_time / untraced_time - 1.0
    return metrics


def result_line(ops, metrics: dict[str, float], units: dict[str, str]) -> dict:
    """The JSON result: an op that failed any check counts as failed."""
    failed = sum(1 for op in ops if not op.ok)
    return {
        "correct": failed == 0 and len(ops) > 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def report(name: str, measurement, metrics: dict[str, float], units: dict[str, str]) -> None:
    """Human-readable lines: each metric with unit and sample count."""
    ops = measurement.ops
    failed = [op for op in ops if not op.ok]
    spread = percentiles([op.latency * op.scale for op in ops])
    print(f"# workload {name}: {len(ops)} ops, {len(failed)} failed "
          f"(failed_share {failed_share(len(ops), len(failed)):.4f})")
    print(f"# latency samples {spread.count}, {spread.beyond_p90} beyond p90"
          + ("" if spread.p90_trusted else " (fewer than 10: p90 is indicative only)"))
    eptas_ops = [op for op in ops if op.counts is not None]
    if eptas_ops:
        share = _mean([1.0 if op.eptas else 0.0 for op in eptas_ops])
        ratio = _mean([op.ratio for op in eptas_ops])
        drift = sum(1 for op in eptas_ops if op.extra.get("count_drift"))
        print(f"# eptas_share {share:.4f}  ratio_to_lb {ratio:.6f}  "
              f"ops whose counts differ from reference.json: {drift}")
    for op in failed[:5]:
        print(f"# FAILED {op.key or 'op'}: {op.why}")
    for key, value in metrics.items():
        print(f"# {key} = {value:.6g} {units[key]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SOURCES}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    work = reset_dir(WORK_DIR / f"{args.workload}-{os.getpid()}")
    workload = WORKLOADS[args.workload]()
    tracer = Tracer()
    setups: list[tuple[float, float]] = []  # (seconds, host scale)
    # Imports are left out of setup_s: their time follows the host's disk
    # cache and process start-up, which the host-speed probe does not track
    # (timed in a fresh interpreter, they moved setup_s by 20 % between two
    # sets of runs of the same code).  Importing first also keeps the five
    # set-ups alike.
    for module in workload.modules:
        importlib.import_module(module)
    try:
        for index in range(SETUPS):
            if index:
                workload.teardown()
            started = time.perf_counter()
            workload.setup(args.seed, work)
            setups.append((time.perf_counter() - started, host_scale()))
        if args.trace:
            plain = workload.measure(args.seconds / 2, tracer)
            workload.teardown()
            workload.setup(args.seed, work)
            workload.patch(tracer, work)
            tracer.active = True
            measurement = workload.measure(args.seconds / 2, tracer)
            tracer.active = False
            tracer.merge_dir(work)
            metrics = per_layer(tracer, plain, measurement)
            units = per_layer_names()
            ops = plain.ops + measurement.ops
        else:
            measurement = workload.measure(args.seconds, tracer)
            metrics = end_to_end(measurement, setups)
            units = {name: unit for name, (unit, _) in END_TO_END.items()}
            ops = measurement.ops
    finally:
        tracer.active = False
        workload.teardown()
        tracer.unpatch()
        shutil.rmtree(work, ignore_errors=True)

    print(f"# host {json.dumps(host_stamp(), sort_keys=True)}")
    scales = [op.scale for op in ops]
    print(f"# seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          f"set-ups {', '.join(f'{seconds:.3f}' for seconds, _ in setups)} s as measured")
    print(f"# host scale (reference s per measured s): median {statistics.median(scales):.3f}, "
          f"range {min(scales):.3f}..{max(scales):.3f}")
    if not args.trace:
        for key, value in end_to_end(measurement, setups, raw=True).items():
            print(f"# as measured: {key} = {value:.6g} {units[key]}")
    report(args.workload, measurement, metrics, units)
    print(json.dumps(result_line(ops, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
