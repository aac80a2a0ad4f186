"""Feature-on runs pinned to recorded results.

The feature equivalence suites compare a layer's *off* setting with the
layer-free code, or two modes of the same code; none of them pins what a
run does with templates or tiering *on*.  These six runs do: each is
pinned to ``(duration_ms, metrics_digest)`` recorded on earlier code, so
a refactor of the controller's start or reclaim ladder that changes a
single start, park, spill, demote, promote or purge in any of them
fails here.

Between them the runs reach template parks, forks and delta spills,
table demotions and promotions, replica drops, a node crash, a shard
outage, and SSD-pressure purges of both spilled deltas and demoted
tables.
"""

from __future__ import annotations

import pytest

from repro.core.policy import MedesPolicyConfig
from repro.faults.schedule import FaultSchedule, FaultsConfig, NodeCrash, ShardOutage
from repro.platform.config import ClusterConfig
from repro.platform.platform import PlatformKind
from repro.storage.tiers import StorageConfig
from repro.tenancy.domains import DedupDomainMode, TenantConfig
from repro.workload.azure import AzureTraceGenerator
from repro.workload.functionbench import FunctionBenchSuite
from tests._digest import metrics_digest, run_fresh

SCALE = 1.0 / 256.0

MEDES = MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0)


def pressure(**features):
    """Two functions on one 256 MB node (the template and tiering
    equivalence suites' pressure workload), with ``features`` on."""
    suite = FunctionBenchSuite.subset(["FeatureGen", "RNNModel"])
    config = ClusterConfig(
        nodes=1, node_memory_mb=256.0, content_scale=SCALE, seed=7, **features
    )
    trace = AzureTraceGenerator(seed=5, rate_scale=8.0).generate(4.0, suite.names())
    return suite, config, trace


def lattice(templates: bool):
    """Every opt-in layer plus a crash and a shard outage (the control
    plane suite's lattice case) on a 32 MB SSD, small enough that
    spilled deltas (templates on) or demoted tables (templates off)
    purge one another for room."""
    minutes = 6.0
    suite = FunctionBenchSuite.subset(["Vanilla", "LinAlg", "FeatureGen", "RNNModel"])
    names = suite.names()
    trace = AzureTraceGenerator(seed=11, rate_scale=4.0).generate(
        minutes,
        names,
        tenant_of={name: f"tenant-{i % 2}" for i, name in enumerate(names)},
    )
    span = minutes * 60_000.0
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
        storage=StorageConfig(ssd_capacity_mb=32.0),
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
    return suite, config, trace


def mix(templates: bool):
    """Six functions on one 320 MB tiered node with a 48 MB SSD: a deep
    idle population under sustained DRAM and SSD pressure."""
    suite = FunctionBenchSuite.subset(
        ["Vanilla", "LinAlg", "FeatureGen", "RNNModel", "ImagePro", "VideoPro"]
    )
    config = ClusterConfig(
        nodes=1,
        node_memory_mb=320.0,
        content_scale=SCALE,
        seed=7,
        template_sharing=templates,
        checkpoint_tiering=True,
        storage=StorageConfig(ssd_capacity_mb=48.0),
    )
    trace = AzureTraceGenerator(seed=5, rate_scale=8.0).generate(6.0, suite.names())
    return suite, config, trace


#: (workload, (duration_ms, metrics digest)) per run.
RECORDED = [
    pytest.param(
        lambda: pressure(template_sharing=True),
        (
            297474.19014304574,
            "701d8669174e04820262e2dbaa403157fda388783f49afcc6f541253dab62724",
        ),
        id="pressure-templates",
    ),
    pytest.param(
        lambda: pressure(checkpoint_tiering=True),
        (
            297474.19014304574,
            "1714123eedf56c0aa46002b621f0dbd04d6448e9e1692f0308677da4cdc2c584",
        ),
        id="pressure-tiering",
    ),
    pytest.param(
        lambda: lattice(templates=True),
        (
            417693.8828054672,
            "57ab12245a758cf29429dbb9f376e542cd5cd67445659925bf07bae6e2d8bb75",
        ),
        id="lattice-templates",
    ),
    pytest.param(
        lambda: lattice(templates=False),
        (
            417693.8828054672,
            "f6cbdb16293a353106e1a50c7722790c38530fdeb4eb65f6d9366f07ca7a7c69",
        ),
        id="lattice-tiered",
    ),
    pytest.param(
        lambda: mix(templates=True),
        (
            419861.5943012474,
            "abef623642ee8ca6f87cfe0933f9e67538661f714be06dd022e54add5d39c0ca",
        ),
        id="mix-templates",
    ),
    pytest.param(
        lambda: mix(templates=False),
        (
            419861.5943012474,
            "9076d0b1b6d374ae4647d665e8e6ea2d302f8762a59114f94cc1899a2f25b5d1",
        ),
        id="mix-tiered",
    ),
]


@pytest.mark.parametrize("workload,recorded", RECORDED)
def test_feature_on_run_is_pinned(workload, recorded):
    suite, config, trace = workload()
    report = run_fresh(PlatformKind.MEDES, config, suite, trace, medes=MEDES)
    assert (report.duration_ms, metrics_digest(report.metrics)) == recorded
