"""Tripwire tests for eviction-candidate scan volume.

A permanently full node ranks its idle population on every cold-start
placement; ``metrics.eviction_candidates_scanned`` counts the ranked
candidates, so a regression toward quadratic scan thrash shows up in
metrics, not just wall time.
"""

from __future__ import annotations

from repro.core.policy import MedesPolicyConfig
from repro.platform.config import ClusterConfig
from repro.platform.platform import PlatformKind, build_platform
from repro.sandbox.node import EvictionOrder, rank_victims
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace


def _run(trace, suite):
    cluster = ClusterConfig(
        nodes=1,
        node_memory_mb=160.0,
        content_scale=1.0 / 256.0,
        seed=7,
    )
    # Long idle period: idle sandboxes stay WARM (never dedup away), so
    # the large arrivals must evict rather than find freed memory.
    policy = MedesPolicyConfig(
        idle_period_ms=300_000.0,
        keep_alive_ms=600_000.0,
        keep_dedup_ms=600_000.0,
        alpha=25.0,
    )
    platform = build_platform(PlatformKind.MEDES, cluster, suite, medes=policy)
    report = platform.run(trace)
    return platform, report


def _pressure_trace() -> Trace:
    # Concurrent small requests fill the node with idle sandboxes, then
    # alternating large functions (too big to coexist) force an eviction
    # decision over a big candidate population on every arrival.
    arrivals = [(float(i), "Vanilla") for i in range(7)]
    arrivals += [
        (20_000.0, "RNNModel"),
        (35_000.0, "ModelTrain"),
        (50_000.0, "RNNModel"),
    ]
    return Trace.from_arrivals(arrivals)


class TestEvictionScanCap:
    def test_scan_volume_observable_without_cap(self):
        suite = FunctionBenchSuite.subset(["Vanilla", "RNNModel", "ModelTrain"])
        _, report = _run(_pressure_trace(), suite)
        # The workload genuinely exercises eviction under pressure, and
        # every ranked candidate is counted.
        assert report.metrics.evictions > 0
        assert report.metrics.eviction_candidates_scanned >= report.metrics.evictions


class TestRankVictims:
    def test_rank_victims_empty(self):
        assert rank_victims([], EvictionOrder.LRU) == []
