"""Indexed vs scan control plane: bit-identical run behaviour.

The indexed control plane must be a pure performance change: candidate
sets, counters and placement order mirror a scan of the sandbox
population exactly, so every platform run produces the *same*
``RunMetrics`` — same start types, same latencies, same evictions, same
memory timeline — as the test-only scan reference swapped in by
:func:`tests.platform._reference.use_scan_control_plane`.  These tests
pin that, across all three platforms and across workloads that exercise
the tricky paths (dedup churn, memory pressure, starvation eviction, the
eviction-order ablations, and every opt-in layer at once).

``verify_accounting`` is switched on, so every ``used_bytes`` read also
asserts the incremental counter against the recomputed per-resident sum.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

import repro.sandbox.checkpoint as checkpoint_module
import repro.sandbox.sandbox as sandbox_module
from repro.core.policy import MedesPolicyConfig
from repro.faults.schedule import FaultSchedule, FaultsConfig, NodeCrash, ShardOutage
from repro.platform.config import ClusterConfig
from repro.platform.platform import PlatformKind, build_platform
from repro.sandbox.node import EvictionOrder
from repro.tenancy.domains import DedupDomainMode, TenantConfig
from repro.workload.azure import AzureTraceGenerator
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace
from tests.platform._reference import use_scan_control_plane

SCALE = 1.0 / 256.0

MEDES = MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0)


def run_both_modes(kind, config, suite, trace, **build_kwargs):
    """Run one platform on the scan reference and indexed on ``trace``."""
    reports = {}
    cfg = replace(config, verify_accounting=True)
    for indexed in (False, True):
        # Sandbox/checkpoint ids are process-global counters; reset them
        # so both runs mint identical ids and the per-op records (which
        # embed sandbox ids) compare equal.
        sandbox_module._sandbox_ids = itertools.count(1)
        checkpoint_module._checkpoint_ids = itertools.count(1)
        platform = build_platform(kind, cfg, suite, **build_kwargs)
        if not indexed:
            use_scan_control_plane(platform)
        reports[indexed] = platform.run(trace)
    return reports[False], reports[True]


def assert_identical(scan_report, indexed_report):
    assert indexed_report.duration_ms == scan_report.duration_ms
    assert indexed_report.metrics == scan_report.metrics


@pytest.fixture(scope="module")
def azure_workload():
    suite = FunctionBenchSuite.subset(["Vanilla", "LinAlg", "FeatureGen"])
    trace = AzureTraceGenerator(seed=3).generate(6.0, suite.names())
    return suite, trace


class TestAzureWorkloadEquivalence:
    """A dense multi-function trace with dedup churn on every platform."""

    CONFIG = ClusterConfig(nodes=2, node_memory_mb=512.0, content_scale=SCALE, seed=2)

    def test_medes(self, azure_workload):
        suite, trace = azure_workload
        assert_identical(
            *run_both_modes(PlatformKind.MEDES, self.CONFIG, suite, trace, medes=MEDES)
        )

    def test_fixed_keep_alive(self, azure_workload):
        suite, trace = azure_workload
        assert_identical(
            *run_both_modes(PlatformKind.FIXED_KEEP_ALIVE, self.CONFIG, suite, trace)
        )

    def test_adaptive_keep_alive(self, azure_workload):
        suite, trace = azure_workload
        assert_identical(
            *run_both_modes(PlatformKind.ADAPTIVE_KEEP_ALIVE, self.CONFIG, suite, trace)
        )


class TestPressureEquivalence:
    """Memory pressure: queueing, evictions and the starvation path."""

    def test_eviction_under_pressure(self):
        suite = FunctionBenchSuite.subset(["FeatureGen", "RNNModel"])
        config = ClusterConfig(
            nodes=1, node_memory_mb=256.0, content_scale=SCALE, seed=7
        )
        trace = AzureTraceGenerator(seed=5, rate_scale=8.0).generate(4.0, suite.names())
        scan, indexed = run_both_modes(
            PlatformKind.MEDES, config, suite, trace, medes=MEDES
        )
        assert scan.metrics.evictions > 0, "workload must exercise eviction"
        assert_identical(scan, indexed)

    def test_starvation_evicts_same_base(self):
        """The desperate path (unpinned-base eviction after STARVATION_MS)
        must fire at the same time and pick the same victim."""
        suite = FunctionBenchSuite.subset(["RNNModel", "ModelTrain"])
        config = ClusterConfig(
            nodes=1, node_memory_mb=150.0, content_scale=SCALE, seed=9
        )
        trace = Trace.from_arrivals([(0.0, "RNNModel"), (20_000.0, "ModelTrain")])
        scan, indexed = run_both_modes(
            PlatformKind.MEDES, config, suite, trace, medes=MEDES
        )
        assert scan.metrics.requests[1].queued_ms > 0, "request must starve first"
        assert_identical(scan, indexed)

    def test_queued_burst_same_drain_times(self):
        """Many simultaneously queued requests: the coalesced starvation
        timer must drain them at the same instants the per-request
        timers did."""
        suite = FunctionBenchSuite.subset(["LinAlg"])
        config = ClusterConfig(
            nodes=1, node_memory_mb=220.0, content_scale=SCALE, seed=4
        )
        arrivals = [(float(i * 10), "LinAlg") for i in range(12)]
        trace = Trace.from_arrivals(arrivals)
        scan, indexed = run_both_modes(
            PlatformKind.MEDES, config, suite, trace, medes=MEDES
        )
        assert any(r.queued_ms > 0 for r in scan.metrics.requests.values())
        assert_identical(scan, indexed)


class TestEvictionOrderEquivalence:
    """Every eviction-order ablation picks the same victims in both modes."""

    @pytest.mark.parametrize("order", list(EvictionOrder))
    def test_order(self, order):
        suite = FunctionBenchSuite.subset(["FeatureGen", "RNNModel"])
        config = ClusterConfig(
            nodes=1,
            node_memory_mb=256.0,
            content_scale=SCALE,
            seed=7,
            eviction_order=order,
        )
        trace = AzureTraceGenerator(seed=5, rate_scale=8.0).generate(4.0, suite.names())
        scan, indexed = run_both_modes(
            PlatformKind.MEDES, config, suite, trace, medes=MEDES
        )
        assert scan.metrics.evictions > 0, "workload must exercise eviction"
        assert_identical(scan, indexed)


class TestFeatureLatticeEquivalence:
    """Every opt-in layer at once: template parks and forks, tier
    demotions, a sharded registry, per-tenant domains and crash purges
    all move sandboxes between candidate sets and across nodes.  With
    templates on the policy parks every idle sandbox as a template
    delta, so the dedup-over-tiers rungs only run with them off."""

    MINUTES = 6.0

    @pytest.mark.parametrize("templates", [True, False], ids=["templates", "tiered"])
    def test_all_layers_with_faults(self, templates):
        suite = FunctionBenchSuite.subset(["Vanilla", "LinAlg", "FeatureGen", "RNNModel"])
        names = suite.names()
        trace = AzureTraceGenerator(seed=11, rate_scale=4.0).generate(
            self.MINUTES,
            names,
            tenant_of={name: f"tenant-{i % 2}" for i, name in enumerate(names)},
        )
        span = self.MINUTES * 60_000.0
        config = ClusterConfig(
            nodes=2,
            node_memory_mb=320.0,
            content_scale=SCALE,
            seed=7,
            template_sharing=templates,
            checkpoint_tiering=True,
            parallel_data_plane=True,
            registry_shards=2,
            dedup_domains=TenantConfig(mode=DedupDomainMode.PER_TENANT),
            faults=FaultsConfig(
                schedule=FaultSchedule(
                    node_crashes=(
                        NodeCrash(at_ms=0.45 * span, node_id=1, restart_at_ms=0.6 * span),
                    ),
                    shard_outages=(
                        ShardOutage(at_ms=0.2 * span, shard=0, heal_at_ms=0.3 * span),
                    ),
                ),
            ),
        )
        scan, indexed = run_both_modes(
            PlatformKind.MEDES, config, suite, trace, medes=MEDES
        )
        metrics = scan.metrics
        assert metrics.crash_purged_sandboxes > 0, "the crash must purge sandboxes"
        if templates:
            assert metrics.evictions > 0, "workload must exercise eviction"
            assert metrics.template_forks, "workload must fork templates"
        else:
            assert metrics.table_demotions > 0, "pressure must park tables on SSD"
            assert metrics.restore_ops, "workload must restore dedup sandboxes"
        assert_identical(scan, indexed)
