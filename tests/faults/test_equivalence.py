"""``ClusterConfig.faults`` determinism contract.

The fault layer is always built; its default, an empty ``FaultsConfig()``,
injects nothing.  A healthy run must reproduce, to the bit, the results
recorded before the layer became unconditional, across every platform
kind and eviction-order ablation: the run's duration plus a SHA-256 over
every ``RunMetrics`` result (see :func:`metrics_digest`).  This is what
lets the fault layer ride in the hot path: it cannot perturb a healthy
run by a single float.

Separately, a faulty run under a fixed seed must reproduce itself
bit-for-bit (the seeded-chaos half of the determinism contract).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import fields, replace

import pytest

import repro.sandbox.checkpoint as checkpoint_module
import repro.sandbox.sandbox as sandbox_module
from repro.core.policy import MedesPolicyConfig
from repro.faults.schedule import FaultSchedule, FaultsConfig, NodeCrash
from repro.platform.config import ClusterConfig
from repro.platform.metrics import (
    CompletionSample,
    MemorySample,
    TemplateSample,
    TierSample,
)
from repro.platform.platform import PlatformKind, build_platform
from repro.sandbox.node import EvictionOrder
from repro.workload.azure import AzureTraceGenerator
from repro.workload.functionbench import FunctionBenchSuite

SCALE = 1.0 / 256.0

MEDES = MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0)

#: The array-backed timelines of ``RunMetrics`` and their sample types.
TIMELINES = {
    "memory_timeline": MemorySample,
    "tier_timeline": TierSample,
    "completion_timeline": CompletionSample,
    "template_timeline": TemplateSample,
}

#: Every result ``RunMetrics`` exposes, read by attribute name, so a
#: counter may move between a field and a property derived from the op
#: records without changing the digest.
DIGEST_ATTRIBUTES = (
    "platform_name", "requests", "dedup_ops", "restore_ops", "base_ops",
    "memory_timeline", "evictions", "eviction_candidates_scanned",
    "prewarm_spawns", "sandboxes_created", "bases_created", "tier_ops",
    "tier_timeline", "checkpoint_demotions", "checkpoint_promotions",
    "table_demotions", "table_promotions", "prefetch_recordings",
    "prefetched_restores", "prefetch_hit_pages", "prefetch_miss_pages",
    "base_page_cache_hits", "base_page_cache_misses", "anchor_index_cache_hits",
    "anchor_index_cache_misses", "outstanding_requests", "fault_events",
    "availability_timeline", "rpc_retries", "retry_backoff_ms",
    "rpc_exhausted_ops", "restore_replica_fallbacks", "cross_domain_replica_skips",
    "restore_cold_fallbacks", "dedup_deferrals", "requests_rescheduled",
    "crash_purged_sandboxes", "crash_reconciled_refs", "shard_rebuilds",
    "shard_rebuild_ms", "completion_timeline", "template_ops", "template_forks",
    "template_timeline", "template_segments_created", "template_segments_shared",
    "template_promotions", "template_promote_bytes", "template_replica_evictions",
    "template_fork_fallbacks", "template_pool_rejections", "template_evict_parks",
    "template_delta_spills", "template_delta_spill_bytes",
    "template_delta_unspill_bytes",
)

#: (duration_ms, metrics digest) of each healthy run, recorded when
#: ``faults=None`` still switched the fault layer off.
RECORDED = {
    PlatformKind.MEDES: (
        296693.0078483011,
        "b3acecd66ab86a2679b1b253c35d66e7ea04bb9b21927624026672140ceb4957",
    ),
    PlatformKind.FIXED_KEEP_ALIVE: (
        296693.0078483011,
        "083521b13a70b7b0c8b330c7ef74e2909b3758eeb91d25d2806459e4f2371478",
    ),
    PlatformKind.ADAPTIVE_KEEP_ALIVE: (
        296693.0078483011,
        "1c10eff2f601eec29391a68f476c9abe6d0c8bec45ea1e48e793832dc7859f2d",
    ),
    # The three orders pick the same 3 victims on this workload (only 4
    # candidates are ever ranked), hence one recorded run.
    EvictionOrder.LRU: (
        238031.38114966569,
        "9fa24c284007ad2c59ca0d5b9df972703323423a755289432b027ab483550c5a",
    ),
    EvictionOrder.LARGEST_FIRST: (
        238031.38114966569,
        "9fa24c284007ad2c59ca0d5b9df972703323423a755289432b027ab483550c5a",
    ),
    EvictionOrder.RANDOM: (
        238031.38114966569,
        "9fa24c284007ad2c59ca0d5b9df972703323423a755289432b027ab483550c5a",
    ),
}


def metrics_digest(metrics) -> str:
    """SHA-256 over every result in :data:`DIGEST_ATTRIBUTES`.

    Timelines contribute the raw bytes of each column (sliced to the
    sample count); every other attribute contributes its ``repr``, which
    round-trips floats exactly.
    """
    digest = hashlib.sha256()
    for name in DIGEST_ATTRIBUTES:
        value = getattr(metrics, name)
        digest.update(name.encode())
        sample_type = TIMELINES.get(name)
        if sample_type is None:
            digest.update(repr(value).encode())
            continue
        for spec in fields(sample_type):
            digest.update(value.column(spec.name).tobytes())
    return digest.hexdigest()


def _build_kwargs(kind):
    return {"medes": MEDES} if kind is PlatformKind.MEDES else {}


def run_with_faults(kind, config, suite, trace, faults):
    """One run with process-global id counters reset for comparability."""
    sandbox_module._sandbox_ids = itertools.count(1)
    checkpoint_module._checkpoint_ids = itertools.count(1)
    platform = build_platform(
        kind, replace(config, faults=faults), suite, **_build_kwargs(kind)
    )
    return platform.run(trace)


def run_default(kind, config, suite, trace):
    """:func:`run_with_faults` under the default (empty) fault layer."""
    return run_with_faults(kind, config, suite, trace, FaultsConfig())


@pytest.fixture(scope="module")
def workload():
    suite = FunctionBenchSuite.subset(["Vanilla", "LinAlg", "FeatureGen"])
    trace = AzureTraceGenerator(seed=3).generate(4.0, suite.names())
    return suite, trace


class TestDisabledVsEmptyLayer:
    """The empty fault layer reproduces the recorded healthy runs."""

    CONFIG = ClusterConfig(nodes=2, node_memory_mb=512.0, content_scale=SCALE, seed=2)

    @pytest.mark.parametrize("kind", list(PlatformKind))
    def test_platform_kinds(self, kind, workload):
        suite, trace = workload
        report = run_default(kind, self.CONFIG, suite, trace)
        assert (report.duration_ms, metrics_digest(report.metrics)) == RECORDED[kind]

    @pytest.mark.parametrize("order", list(EvictionOrder))
    def test_eviction_orders_under_pressure(self, order):
        suite = FunctionBenchSuite.subset(["FeatureGen", "RNNModel"])
        config = ClusterConfig(
            nodes=1,
            node_memory_mb=256.0,
            content_scale=SCALE,
            seed=7,
            eviction_order=order,
        )
        trace = AzureTraceGenerator(seed=5, rate_scale=8.0).generate(3.0, suite.names())
        report = run_default(PlatformKind.MEDES, config, suite, trace)
        assert report.metrics.evictions > 0, "workload must exercise eviction"
        assert (report.duration_ms, metrics_digest(report.metrics)) == RECORDED[order]


class TestSeededChaosReproduces:
    """The same faulty config replays bit-for-bit."""

    FAULTS = FaultsConfig(
        schedule=FaultSchedule(
            node_crashes=(NodeCrash(at_ms=45_000.0, node_id=1, restart_at_ms=90_000.0),)
        ),
        rpc_failure_prob=0.05,
        seed=13,
    )

    def test_identical_twice(self, workload):
        suite, trace = workload
        config = ClusterConfig(
            nodes=2, node_memory_mb=512.0, content_scale=SCALE, seed=2
        )
        first = run_with_faults(PlatformKind.MEDES, config, suite, trace, self.FAULTS)
        second = run_with_faults(PlatformKind.MEDES, config, suite, trace, self.FAULTS)
        assert first.duration_ms == second.duration_ms
        assert first.metrics == second.metrics
        assert first.metrics.fault_events, "the crash must have been injected"

    def test_transient_seed_changes_the_run(self, workload):
        suite, trace = workload
        config = ClusterConfig(
            nodes=2, node_memory_mb=512.0, content_scale=SCALE, seed=2
        )
        probed = FaultsConfig(rpc_failure_prob=0.3, seed=13)
        reseeded = FaultsConfig(rpc_failure_prob=0.3, seed=14)
        first = run_with_faults(PlatformKind.MEDES, config, suite, trace, probed)
        second = run_with_faults(PlatformKind.MEDES, config, suite, trace, reseeded)
        # Both complete; the retry streams differ under different seeds.
        assert first.metrics.rpc_retries > 0 or second.metrics.rpc_retries > 0
