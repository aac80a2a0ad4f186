"""``ClusterConfig.faults`` determinism contract.

The fault layer is always built; its default, an empty ``FaultsConfig()``,
injects nothing.  A healthy run must reproduce, to the bit, the results
recorded before the layer became unconditional, across every platform
kind and eviction-order ablation: the run's duration plus a SHA-256 over
every ``RunMetrics`` result (see :func:`tests._digest.metrics_digest`).
This is what lets the fault layer ride in the hot path: it cannot perturb
a healthy run by a single float.

Separately, a faulty run under a fixed seed must reproduce itself
bit-for-bit (the seeded-chaos half of the determinism contract).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.policy import MedesPolicyConfig
from repro.faults.schedule import FaultSchedule, FaultsConfig, NodeCrash
from repro.platform.config import ClusterConfig
from repro.platform.platform import PlatformKind
from repro.sandbox.node import EvictionOrder
from repro.workload.azure import AzureTraceGenerator
from repro.workload.functionbench import FunctionBenchSuite
from tests._digest import metrics_digest, run_fresh

SCALE = 1.0 / 256.0

MEDES = MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0)

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
    # Four functions on one 200 MB node keep a deep idle population, so
    # each order picks its own victims (9, 9 and 7 evictions); recorded
    # under the empty fault layer.
    EvictionOrder.LRU: (
        238031.38114966569,
        "a58dc65b6646b22fcfb7c1747e1fb9bcbcde6cf47a2ce7a00444d2c3ab09bbae",
    ),
    EvictionOrder.LARGEST_FIRST: (
        238031.38114966569,
        "c799ad4473f77d517df8651aa8fd6e236b0eaaf89fc1fd8d71e88d64f48a96cd",
    ),
    EvictionOrder.RANDOM: (
        238031.38114966569,
        "bf8f04cd7513889da2699c975ede25d67360e2c3d8dd1c44c2fc4abfa6b638cd",
    ),
}


def _build_kwargs(kind):
    return {"medes": MEDES} if kind is PlatformKind.MEDES else {}


def run_with_faults(kind, config, suite, trace, faults):
    """One run with process-global id counters reset for comparability."""
    return run_fresh(
        kind, replace(config, faults=faults), suite, trace, **_build_kwargs(kind)
    )


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
        suite = FunctionBenchSuite.subset(["FeatureGen", "RNNModel", "Vanilla", "LinAlg"])
        config = ClusterConfig(
            nodes=1,
            node_memory_mb=200.0,
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
