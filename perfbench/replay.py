"""One replay of one workload in a fresh process; prints one JSON line.

``run.py`` starts this script once per repetition so that every replay
starts from a fresh interpreter (fresh id counters, caches and heap) and
its peak RSS is its own.  Set-up (suite, trace generation and
``build_platform``) and the replay inside ``Platform.run`` are timed
separately.  With ``--traced`` the layer wrappers of ``tracer.py`` are
installed after set-up; with ``--verify`` the platform runs with
``verify_restores`` and ``verify_accounting`` on.  An exception from the
platform (a restore that is not byte-exact, node accounting that does
not recount) is reported in the record's ``error``, with no ``sim``
results.

Usage (from the repository root)::

    python3 perfbench/replay.py --workload zipf_dedup --seed 1 --part 0 [--traced | --verify]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from repro._util import MIB, percentile  # noqa: E402
from repro.platform.metrics import START_CODES, StartType  # noqa: E402
from repro.platform.platform import build_platform  # noqa: E402
from workloads import WORKLOADS, part_seed  # noqa: E402

#: Tail percentiles, highest first; the reported tail is the highest one
#: with at least TAIL_MIN_BEYOND samples beyond it.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


def tail_percentile(samples: int) -> float:
    for pct in TAIL_PERCENTILES:
        if samples * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            return pct
    return TAIL_PERCENTILES[-1]


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def phase_breakdown(metrics) -> dict[str, float]:
    """Mean simulated time per op phase, from the op records (Fig 8)."""
    dedup, restore = metrics.dedup_ops, metrics.restore_ops
    forks, bases = metrics.template_forks, metrics.base_ops
    return {
        "phase.dedup_ms": _mean([op.duration_ms for op in dedup]),
        "phase.dedup_lookup_ms": _mean([op.lookup_ms for op in dedup]),
        "phase.dedup.ops": len(dedup),
        "phase.restore_base_read_ms": _mean([op.base_read_ms for op in restore]),
        "phase.restore_compute_ms": _mean([op.compute_ms for op in restore]),
        "phase.restore_fixed_ms": _mean([op.restore_ms for op in restore]),
        "phase.restore.ops": len(restore),
        "phase.template_fork_ms": _mean([op.total_ms for op in forks]),
        "phase.template_fork.ops": len(forks),
        "phase.base_op_ms": _mean([op.total_ms for op in bases]),
        "phase.base_op.ops": len(bases),
    }


def sim_results(platform, trace, metrics) -> dict:
    """Every simulated-time result of one replay: fixed by the trace."""
    timeline = metrics.completion_timeline
    completed = len(timeline)
    arrived = len(metrics.requests)
    e2e = timeline.column("e2e_ms")
    if arrived > completed:
        # An unfinished request misses every latency limit.
        e2e = np.concatenate([e2e, np.full(arrived - completed, np.inf)])
    codes = timeline.column("start_code")
    digest = hashlib.sha256()
    for column in ("time_ms", "start_code", "queued_ms", "startup_ms", "e2e_ms"):
        digest.update(timeline.column(column).tobytes())
    digest.update(metrics.memory_timeline.column("used_bytes").tobytes())
    moved = platform.fabric.stats.remote_bytes + metrics.template_promote_bytes
    dedup_savings = [op.savings_fraction for op in metrics.dedup_ops]
    base_lookups = metrics.base_page_cache_hits + metrics.base_page_cache_misses
    anchor_lookups = metrics.anchor_index_cache_hits + metrics.anchor_index_cache_misses
    return {
        "trace_requests": len(trace),
        "arrived": arrived,
        "completed": completed,
        "e2e_ms": e2e.tolist(),
        "startup_sum_ms": float(timeline.column("startup_ms").sum()),
        "cold_starts": int((codes == START_CODES[StartType.COLD]).sum()),
        "mean_memory_mb": metrics.mean_memory_bytes() / MIB,
        "interconnect_mb_per_start": moved / arrived / MIB,
        "sim_events": platform.sim.events_processed,
        "sim_cancelled_events": platform.sim.cancelled_events,
        "evictions": metrics.evictions,
        "eviction_candidates_scanned": metrics.eviction_candidates_scanned,
        "sandboxes_created": metrics.sandboxes_created,
        "dedup_savings_frac": _mean(dedup_savings),
        "base_page_cache_hit_ratio": (
            metrics.base_page_cache_hits / base_lookups if base_lookups else 0.0
        ),
        "anchor_index_cache_hit_ratio": (
            metrics.anchor_index_cache_hits / anchor_lookups if anchor_lookups else 0.0
        ),
        "template_promotions": metrics.template_promotions,
        "template_fork_fallbacks": metrics.template_fork_fallbacks,
        "template_pool_rejections": metrics.template_pool_rejections,
        "rpc_retries": metrics.rpc_retries,
        "retry_backoff_ms": metrics.retry_backoff_ms,
        "restore_cold_fallbacks": metrics.restore_cold_fallbacks,
        "dedup_deferrals": metrics.dedup_deferrals,
        "cross_domain_replica_skips": metrics.cross_domain_replica_skips,
        **phase_breakdown(metrics),
        "digest": digest.hexdigest(),
    }


def pooled(parts: list[dict]) -> dict:
    """Simulated end-to-end metrics over the requests of every part."""
    e2e = np.concatenate([np.asarray(part["e2e_ms"]) for part in parts])
    arrived = sum(part["arrived"] for part in parts)
    completed = sum(part["completed"] for part in parts)
    tail_pct = tail_percentile(arrived)
    return {
        "arrived": arrived,
        "completed": completed,
        "failed_frac": (arrived - completed) / arrived,
        "e2e_p50_ms": percentile(e2e, 50),
        "e2e_tail_ms": percentile(e2e, tail_pct),
        "e2e_tail_pct": tail_pct,
        "startup_mean_ms": sum(part["startup_sum_ms"] for part in parts) / completed,
        "cold_start_frac": sum(part["cold_starts"] for part in parts) / completed,
        "mean_memory_mb": float(np.mean([part["mean_memory_mb"] for part in parts])),
    }


def replay(
    workload: str, seed: int, part: int, traced: bool, verify: bool, spans_out: str | None
) -> dict:
    overrides = {"verify_restores": True, "verify_accounting": True} if verify else {}
    # An exception from the platform, while it is built or replays, is the
    # program failing: an incorrect result, not a fault of the benchmark.
    error = None
    replay_s = 0.0
    start = time.perf_counter()
    setup = WORKLOADS[workload].build(part_seed(seed, part), **overrides)
    try:
        platform = build_platform(setup.kind, setup.config, setup.suite)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    setup_s = time.perf_counter() - start

    recorder = None
    if traced and error is None:
        from tracer import SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder)

    if error is None:
        start = time.perf_counter()
        try:
            report = platform.run(setup.trace)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        replay_s = time.perf_counter() - start

    result = {
        "workload": workload,
        "seed": seed,
        "part": part,
        "traced": traced,
        "verify": verify,
        "content_scale": setup.config.content_scale,
        "nodes": setup.config.nodes,
        "functions": len(setup.suite),
        "numpy": np.__version__,
        "host": {
            "setup_s": setup_s,
            "replay_s": replay_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "trace_requests": len(setup.trace),
        "error": error,
        "sim": None if error else sim_results(platform, setup.trace, report.metrics),
    }
    if recorder is not None and error is None:
        result["spans"] = recorder.span_table()
        result["span_count"] = len(recorder.starts)
        result["counters"] = dict(recorder.counters)
        result["bindings"] = recorder.bindings
        if spans_out:
            recorder.save(spans_out)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0, help="which part of the seed's load")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--verify", action="store_true", help="verify restores and accounting")
    parser.add_argument("--spans-out", default=None, help="write spans (.npz) here")
    args = parser.parse_args(argv)
    record = replay(
        args.workload, args.seed, args.part, args.traced, args.verify, args.spans_out
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
