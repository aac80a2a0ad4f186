"""Tests for the dedup agent: the dedup op and the restore op."""

from __future__ import annotations

import pytest

from repro.core.agent import DedupAgent, PageKind
from repro.core.costs import CostModel, ParallelConfig
from repro.core.policy import MedesPolicyConfig
from repro.core.registry import FingerprintRegistry, PageRef
from repro.memory.fingerprint import FingerprintConfig, page_fingerprint
from repro.platform.config import ClusterConfig
from repro.platform.metrics import StartType
from repro.platform.platform import PlatformKind, build_platform
from repro.sandbox.checkpoint import BaseCheckpoint, CheckpointStore
from repro.sandbox.sandbox import Sandbox
from repro.sim.network import RdmaFabric
from repro.workload.azure import AzureTraceGenerator
from repro.workload.functionbench import FunctionBenchSuite
from tests.conftest import TEST_SCALE


@pytest.fixture
def harness(linalg_profile):
    """A node-0 agent with a LinAlg base checkpoint on node 1."""
    store = CheckpointStore()
    registry = FingerprintRegistry()
    agent = DedupAgent(
        0,
        registry=registry,
        store=store,
        fabric=RdmaFabric(),
        costs=CostModel(),
        content_scale=TEST_SCALE,
    )
    base_image = linalg_profile.synthesize(100, content_scale=TEST_SCALE, executed=True)
    checkpoint = BaseCheckpoint(
        function="LinAlg",
        node_id=1,
        image=base_image,
        owner_sandbox_id=1,
        full_size_bytes=linalg_profile.memory_bytes,
    )
    store.add(checkpoint)
    for index in range(base_image.num_pages):
        registry.register_page(
            PageRef(checkpoint.checkpoint_id, 1, index),
            page_fingerprint(base_image.page(index)),
        )
    return agent, store, registry, checkpoint


def make_sandbox(profile, seed=200, aslr=False) -> Sandbox:
    sandbox = Sandbox(profile=profile, node_id=0, instance_seed=seed, created_at=0.0)
    sandbox.image = profile.synthesize(
        seed, content_scale=TEST_SCALE, aslr=aslr, executed=True
    )
    return sandbox


class TestDedupOp:
    def test_round_trip_byte_exact(self, harness, linalg_profile):
        agent, *_ = harness
        sandbox = make_sandbox(linalg_profile)
        original_checksum = sandbox.image.checksum()
        outcome = agent.dedup(sandbox)
        restored = agent.restore(outcome.table, verify=True)
        assert restored.image.checksum() == original_checksum

    def test_savings_positive_and_bounded(self, harness, linalg_profile):
        agent, *_ = harness
        outcome = agent.dedup(make_sandbox(linalg_profile))
        fraction = outcome.table.stats.savings_fraction
        assert 0.1 < fraction < 1.0
        assert outcome.table.retained_full_bytes < linalg_profile.memory_bytes

    def test_page_classification_counts(self, harness, linalg_profile):
        agent, *_ = harness
        outcome = agent.dedup(make_sandbox(linalg_profile))
        stats = outcome.table.stats
        assert (
            stats.zero_pages + stats.unique_pages + stats.patched_pages
            == stats.total_pages
        )
        assert stats.zero_pages > 0  # the zero region dedups away
        assert stats.unique_pages > 0  # dirty pages defeat dedup
        assert stats.patched_pages > 0

    def test_refcounts_acquired(self, harness, linalg_profile):
        agent, _store, _registry, checkpoint = harness
        outcome = agent.dedup(make_sandbox(linalg_profile))
        expected = outcome.table.base_refs[checkpoint.checkpoint_id]
        assert expected > 0
        assert checkpoint.refcount == expected

    def test_same_function_attribution(self, harness, linalg_profile):
        agent, *_ = harness
        outcome = agent.dedup(make_sandbox(linalg_profile))
        stats = outcome.table.stats
        # Only LinAlg bases exist, so every patched page is same-function.
        assert stats.same_function_pages == stats.patched_pages
        assert stats.cross_function_pages == 0

    def test_empty_registry_all_unique_or_zero(self, linalg_profile):
        agent = DedupAgent(
            0,
            registry=FingerprintRegistry(),
            store=CheckpointStore(),
            fabric=RdmaFabric(),
            costs=CostModel(),
            content_scale=TEST_SCALE,
        )
        outcome = agent.dedup(make_sandbox(linalg_profile))
        stats = outcome.table.stats
        assert stats.patched_pages == 0
        assert stats.unique_pages + stats.zero_pages == stats.total_pages
        # Round trip still works with no bases at all.
        restored = agent.restore(outcome.table, verify=True)
        assert restored.image.checksum() == outcome.table.original_checksum

    def test_dedup_requires_image(self, harness, linalg_profile):
        agent, *_ = harness
        sandbox = Sandbox(
            profile=linalg_profile, node_id=0, instance_seed=1, created_at=0.0
        )
        with pytest.raises(RuntimeError, match="no image"):
            agent.dedup(sandbox)

    def test_timings_positive_and_ordered(self, harness, linalg_profile):
        agent, *_ = harness
        outcome = agent.dedup(make_sandbox(linalg_profile))
        timings = outcome.timings
        assert timings.checkpoint_ms > 0
        assert timings.lookup_ms > 0
        assert timings.total_ms >= timings.checkpoint_ms + timings.lookup_ms

    def test_full_scale_extrapolation(self, linalg_profile, harness):
        """Timing reflects full-size sandboxes regardless of content scale."""
        agent, *_ = harness
        outcome = agent.dedup(make_sandbox(linalg_profile))
        full_pages = linalg_profile.memory_bytes / 4096
        expected_lookup = full_pages * agent.costs.lookup_us_per_page / 1e3
        assert outcome.timings.lookup_ms == pytest.approx(expected_lookup, rel=0.1)


class TestRestoreOp:
    def test_restore_timings_breakdown(self, harness, linalg_profile):
        agent, *_ = harness
        outcome = agent.dedup(make_sandbox(linalg_profile))
        restore = agent.restore(outcome.table, verify=True)
        timings = restore.timings
        assert timings.base_read_ms > 0  # base pages are remote (node 1)
        assert timings.compute_ms > 0
        assert timings.restore_ms == agent.costs.restore_fixed_ms
        assert timings.total_ms < linalg_profile.cold_start_ms

    def test_corruption_detected(self, harness, linalg_profile):
        agent, *_ = harness
        outcome = agent.dedup(make_sandbox(linalg_profile))
        tampered = outcome.table
        tampered.original_checksum = "0" * 40
        with pytest.raises(RuntimeError, match="corrupted"):
            agent.restore(tampered, verify=True)

    def test_restore_does_not_release_refs(self, harness, linalg_profile):
        agent, _store, _registry, checkpoint = harness
        outcome = agent.dedup(make_sandbox(linalg_profile))
        before = checkpoint.refcount
        agent.restore(outcome.table, verify=False)
        assert checkpoint.refcount == before

    def test_op_counters(self, harness, linalg_profile):
        agent, *_ = harness
        outcome = agent.dedup(make_sandbox(linalg_profile))
        agent.restore(outcome.table)
        assert agent.dedup_ops == 1
        assert agent.restore_ops == 1


class TestCrossFunctionDedup:
    def test_pages_dedup_against_other_functions(self, suite):
        """With only a Vanilla base, LinAlg pages still find base pages
        (shared runtime + pool content) — the paper's Section 7.3.1."""
        store = CheckpointStore()
        registry = FingerprintRegistry()
        agent = DedupAgent(
            0,
            registry=registry,
            store=store,
            fabric=RdmaFabric(),
            costs=CostModel(),
            content_scale=TEST_SCALE,
        )
        vanilla = suite.get("Vanilla")
        base_image = vanilla.synthesize(300, content_scale=TEST_SCALE, executed=True)
        checkpoint = BaseCheckpoint(
            function="Vanilla",
            node_id=1,
            image=base_image,
            owner_sandbox_id=1,
            full_size_bytes=vanilla.memory_bytes,
        )
        store.add(checkpoint)
        for index in range(base_image.num_pages):
            registry.register_page(
                PageRef(checkpoint.checkpoint_id, 1, index),
                page_fingerprint(base_image.page(index)),
            )
        linalg = suite.get("LinAlg")
        outcome = agent.dedup(make_sandbox(linalg, seed=301))
        stats = outcome.table.stats
        assert stats.cross_function_pages > 0
        assert stats.same_function_pages == 0
        restored = agent.restore(outcome.table, verify=True)
        assert restored.image.checksum() == outcome.table.original_checksum


class TestPageEntry:
    def test_retained_bytes_by_kind(self, harness, linalg_profile):
        agent, *_ = harness
        outcome = agent.dedup(make_sandbox(linalg_profile))
        for entry in outcome.table.entries:
            if entry.kind is PageKind.ZERO:
                assert entry.retained_bytes() == 0
            elif entry.kind is PageKind.UNIQUE:
                assert entry.retained_bytes() == 4096
            else:
                assert 0 < entry.retained_bytes() < 4096 * 0.75


class TestBasePageCache:
    def test_warm_restore_hits_base_page_cache(self, harness, linalg_profile):
        agent, *_ = harness
        outcome = agent.dedup(make_sandbox(linalg_profile, seed=700))
        assert outcome.table.stats.patched_pages > 0
        misses_after_dedup = agent.base_page_cache.misses
        assert misses_after_dedup > 0, "dedup populates the cache via misses"
        hits_after_dedup = agent.base_page_cache.hits

        agent.restore(outcome.table, verify=True)
        assert agent.base_page_cache.hits > hits_after_dedup, (
            "a warm restore re-reads the base pages the dedup op just cached"
        )
        assert agent.base_page_cache.misses == misses_after_dedup

    def test_run_metrics_surface_cache_counters(self):
        suite = FunctionBenchSuite.replicated(["Vanilla", "LinAlg"], 2)
        trace = AzureTraceGenerator(seed=21).generate(8, suite.names())
        config = ClusterConfig(
            nodes=2,
            node_memory_mb=256.0,
            content_scale=TEST_SCALE,
            seed=3,
            verify_restores=True,
        )
        platform = build_platform(
            PlatformKind.MEDES,
            config,
            suite,
            medes=MedesPolicyConfig(alpha=25.0, idle_period_ms=10_000.0),
        )
        metrics = platform.run(trace).metrics
        if not metrics.dedup_ops:
            pytest.skip("trace produced no dedup ops")
        assert metrics.base_page_cache_misses > 0
        agents = platform.agents.values()
        assert metrics.base_page_cache_misses == sum(
            a.base_page_cache.misses for a in agents
        )
        assert metrics.base_page_cache_hits == sum(a.base_page_cache.hits for a in agents)
        if metrics.start_counts()[StartType.DEDUP]:
            assert metrics.base_page_cache_hits > 0, (
                "dedup starts replay base pages the dedup op already decoded"
            )


class TestOverlapCosts:
    """``overlap_costs`` changes only the charged times, never the content."""

    @pytest.mark.parametrize("aslr", [False, True])
    def test_overlap_lowers_op_times_and_keeps_tables(
        self, harness, linalg_profile, aslr
    ):
        serial, store, registry, _ = harness
        overlapped = DedupAgent(
            0,
            registry=registry,
            store=store,
            fabric=RdmaFabric(),
            costs=CostModel(),
            content_scale=TEST_SCALE,
            overlap_costs=ParallelConfig(workers=4, batch_pages=64),
        )
        plain = serial.dedup(make_sandbox(linalg_profile, seed=310, aslr=aslr))
        piped = overlapped.dedup(make_sandbox(linalg_profile, seed=310, aslr=aslr))
        assert piped.table.entries == plain.table.entries
        assert piped.table.stats == plain.table.stats
        assert piped.table.base_refs == plain.table.base_refs
        assert plain.timings.overlap is None
        assert piped.timings.overlap is not None and piped.timings.overlap.batches > 1
        assert piped.timings.checkpoint_ms == plain.timings.checkpoint_ms
        assert (
            piped.timings.total_ms - piped.timings.checkpoint_ms
            < plain.timings.total_ms - plain.timings.checkpoint_ms
        )

        plain_restore = serial.restore(plain.table, verify=True)
        piped_restore = overlapped.restore(piped.table, verify=True)
        assert (
            piped_restore.image.data.tobytes() == plain_restore.image.data.tobytes()
        )
        assert piped_restore.timings.total_ms < plain_restore.timings.total_ms
