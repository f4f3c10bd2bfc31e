"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload train-kaggle --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
Each invocation runs one workload in this one process:

1. set up ``setup_repeats`` times (``setup_s`` is the median),
2. warm up,
3. run whole rounds until ``--seconds`` have passed,
4. check the outputs of the last round.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
layer wrapped.  With ``--trace 1`` untraced rounds alternate with rounds
in which every layer entry point is wrapped, and the metrics are the
per-layer ones, given per traced round.  The last line of standard
output is the result as one JSON object; the lines before it report the
run's context, each metric with its unit, and each output check.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: BLAS threads for every run.  On a shared 2-core host a second BLAS
#: thread made ranking ~12 % faster but doubled the run-to-run spread
#: (every GEMM waits for the slower core), so runs use one.
BLAS_THREADS = 1


def pin_blas_threads() -> int:
    """Fix the BLAS thread count before numpy is imported.

    Returns the number of CPUs this process may use.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def parse_args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def run_rounds(workload, seconds: float) -> list:
    """Whole rounds until ``seconds`` of wall time have passed."""
    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        result = workload.run_round()
        result.wall_s = time.perf_counter() - began
        rounds.append(result)
        if time.perf_counter() - start >= seconds:
            return rounds


def run_traced_rounds(workload, tracer, seconds: float):
    """Alternate untraced and traced rounds until ``seconds`` have passed.

    Returns the untraced rounds, the traced rounds, and the change of
    the program's cache counters over the traced rounds.
    """
    from layer_trace import traced
    from repro.obs import get_registry

    registry = get_registry()
    names = ("hotcache.hits", "hotcache.misses", "hotcache.promotions")
    delta = dict.fromkeys(names, 0.0)
    untraced, traced_rounds = [], []
    start = time.perf_counter()
    while not traced_rounds or time.perf_counter() - start < seconds:
        untraced += run_rounds(workload, 0.0)
        before = {name: registry.counter(name).value for name in names}
        with traced(tracer):
            traced_rounds += run_rounds(workload, 0.0)
        for name in names:
            delta[name] += registry.counter(name).value - before[name]
    return untraced, traced_rounds, delta


def end_to_end(rounds, setup_times, quality) -> tuple[dict, dict]:
    from workloads import memory_bytes

    latencies_ms = [1000.0 * s for r in rounds for s in r.latencies_s]
    items = sum(r.items for r in rounds)
    return {
        "throughput_per_s": (statistics.median(r.items / r.busy_s for r in rounds), "1/s"),
        "op_mean_ms": (statistics.fmean(latencies_ms), "ms"),
        "op_p90_ms": (percentile(latencies_ms, 90), "ms"),
        "quality": (quality, "score"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (memory_bytes("VmHWM") / 2**20, "MiB"),
    }, {"latency_samples": len(latencies_ms), "rounds": len(rounds), "items": items}


def per_layer(workload, untraced, traced_rounds, tracer, registry_delta) -> dict:
    """Per-layer figures, each per traced round."""
    n = len(traced_rounds)
    wall = sum(r.wall_s for r in traced_rounds)
    step_ms = [1000.0 * s for r in traced_rounds for s in r.latencies_s]
    plan = workload.plan
    step_metrics = workload.name in ("train-kaggle", "shift-2rank")
    lookups = registry_delta["hotcache.hits"] + registry_delta["hotcache.misses"]

    def seconds(name):
        return (tracer.self_s.get(name, 0.0) / n, "s")

    def count(value, unit="count"):
        return (value / n, unit)

    metrics = {
        name: seconds(name)
        for name in (
            "data.chunks_s", "data.batch_s", "core.profile_s", "core.calibrate_s",
            "core.pack_s", "core.replicator.sync_s", "core.replicator.allreduce_s",
            "core.replicator.apply_delta_s", "core.hotcache.observe_s",
            "core.hotcache.rebalance_s", "core.hotcache.repack_s", "nn.mlp_fwd_s",
            "nn.mlp_bwd_s", "nn.interaction_fwd_s", "nn.interaction_bwd_s",
            "nn.embedding_fwd_s", "nn.embedding_bwd_s", "nn.loss_s", "nn.optimizer_s",
            "train.eval_s", "dist.collective_s", "resilience.checkpoint_s",
            "resilience.journal_s", "serve.forward_s", "serve.rank_other_s",
        )
    }
    metrics.update(
        {
            "core.hot_input_fraction": (plan.hot_input_fraction, "share"),
            "core.hot_bytes": (plan.hot_bytes, "bytes"),
            "core.scheduler.segments": count(tracer.counts["core.scheduler.segments"]),
            "core.scheduler.transitions": count(tracer.counts["core.scheduler.transitions"]),
            "core.replicator.sync_bytes": count(
                tracer.counts["core.replicator.sync_bytes"], "bytes"
            ),
            "core.hotcache.hit_rate": (
                registry_delta["hotcache.hits"] / lookups if lookups else 0.0,
                "share",
            ),
            "core.hotcache.promotions": count(registry_delta["hotcache.promotions"]),
            "train.steps": count(len(step_ms) if step_metrics else 0),
            "train.step_p50_ms": (
                percentile(step_ms, 50) if step_metrics and step_ms else 0.0,
                "ms",
            ),
            "dist.collective_calls": count(tracer.calls.get("dist.collective_s", 0)),
            "dist.collective_bytes": count(tracer.counts["dist.collective_bytes"], "bytes"),
            "resilience.checkpoint_bytes": count(
                tracer.counts["resilience.checkpoint_bytes"], "bytes"
            ),
            "serve.forward_calls": count(tracer.calls.get("serve.forward_s", 0)),
            "obs.covered_share": (tracer.covered_s / wall, "share"),
            "obs.trace_overhead_s": (
                wall / n - statistics.fmean(r.wall_s for r in untraced),
                "s",
            ),
        }
    )
    return metrics


def main(argv=None) -> int:
    cpus = pin_blas_threads()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    from layer_trace import LayerTracer
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": cpus,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    print("context " + json.dumps(context, sort_keys=True))

    work_dir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work_dir=work_dir)
    try:
        setup_times = []
        for _ in range(workload.setup_repeats):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        workload.warmup()

        if args.trace:
            tracer = LayerTracer()
            untraced, traced_rounds, delta = run_traced_rounds(workload, tracer, args.seconds)
            rounds = untraced + traced_rounds
            quality, results = workload.finish()
            metrics = per_layer(workload, untraced, traced_rounds, tracer, delta)
            info = {"rounds": len(rounds), "traced_rounds": len(traced_rounds)}
        else:
            rounds = run_rounds(workload, args.seconds)
            quality, results = workload.finish()
            metrics, info = end_to_end(rounds, setup_times, quality)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()  # only when no other run still uses it

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    correct = not any(results.values())
    print("info " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, errors in results.items():
        print(f"check {name}: " + ("pass" if not errors else "FAIL " + "; ".join(errors[:3])))
    print(f"operations attempted={attempted} failed={failed}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
