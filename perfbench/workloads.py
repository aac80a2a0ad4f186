"""The benchmark's named workloads: trace, platform kind and cluster config.

Every workload is a pure function of the seed: the seed picks the trace,
and the platform (cluster shape, policy, config seed, fault schedule) is
fixed per workload, so the platform receives only the generated trace.
The load is open-loop: a pre-generated arrival schedule in simulated
time, replayed by one single-threaded process.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro._util import stable_seed
from repro.analysis.experiments import FULL_SEED
from repro.faults.schedule import FaultSchedule, FaultsConfig, NodeCrash, ShardOutage
from repro.platform.config import ClusterConfig
from repro.platform.platform import PlatformKind
from repro.tenancy.domains import DedupDomainMode, TenantConfig
from repro.workload.azure import AzureTraceGenerator, ClusterTraceGenerator, PatternSpec
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace

#: Platform-side seed, fixed for every workload: only the trace varies.
CONFIG_SEED = 1

#: zipf_*: 10 FunctionBench profiles x 20 copies = 200 functions.
ZIPF_COPIES = 20
ZIPF_NODES = 4
ZIPF_NODE_MB = 3072.0
ZIPF_CONTENT_SCALE = 1.0 / 1024.0
#: Function mix of the zipf_* traces.  Under mix 0 the median request
#: sat in the gap between the 500 ms and 1000 ms execution-time profiles,
#: so e2e p50 swung between 516 and 895 ms with the arrival seed; under
#: mix 3 it sits inside a mode and moves by about 1%.  Every seed,
#: the held-out one too, replays this mix: seeds vary arrival times, not
#: which functions are hot.
ZIPF_MIX_SEED = 3
ZIPF_DEDUP_MINUTES = 15.0
ZIPF_DEDUP_REQUESTS = 4000
#: Same cluster, a 4x longer and 6x larger trace: with no data plane the
#: platform replays over ten times more requests per host second.
ZIPF_KEEPALIVE_MINUTES = 60.0
ZIPF_KEEPALIVE_REQUESTS = 24000

#: fig10_lattice: the Sections 7.2-7.4 workload (``full_workload``'s suite
#: and function mix) at the Figure-10 lowest pool.
LATTICE_POOL_MB = 1792.0
LATTICE_NODES = 3
LATTICE_COPIES = 2
LATTICE_MINUTES = 14.0
LATTICE_TENANTS = 4
LATTICE_CONTENT_SCALE = ClusterConfig().content_scale
#: fig10_tiered synthesizes 4x smaller images than fig10_lattice: a part
#: then replays in about a third of the host time, so a run pools seven
#: parts, not two or three.  The crash and shard outage move cold-start
#: rate and mean startup from one trace to the next; over ten seeds their
#: quartile distance fell from 0.11 and 0.12 of the median to 0.06 and
#: 0.08.
TIERED_CONTENT_SCALE = 1.0 / 256.0


@dataclass(frozen=True)
class Setup:
    """Everything a replay needs; built inside the timed set-up phase."""

    suite: FunctionBenchSuite
    trace: Trace
    kind: PlatformKind
    config: ClusterConfig


@dataclass(frozen=True)
class ClusterMix(ClusterTraceGenerator):
    """:class:`ClusterTraceGenerator` with its function mix held fixed.

    Popularity ranks and per-function arrival processes come from
    ``mix_seed``; ``seed`` only draws arrival times and the diurnal
    thinning.  With the mix drawn from the seed, the seed decided which
    profile is hot and whether the hottest function is bursty, which
    moved cold-start rate and mean startup by about 20% (quartile
    distance over median) between seeds: the benchmark would have
    compared different workloads, not samples of one.
    """

    mix_seed: int = 0

    def _mix(self) -> "ClusterMix":
        return replace(self, seed=self.mix_seed)

    def rate_shares(self, count: int) -> np.ndarray:
        return ClusterTraceGenerator.rate_shares(self._mix(), count)

    def spec_for(self, function: str, index: int, rate_per_min: float) -> PatternSpec:
        return ClusterTraceGenerator.spec_for(self._mix(), function, index, rate_per_min)


@dataclass(frozen=True)
class AzureMix(AzureTraceGenerator):
    """:class:`AzureTraceGenerator` with its function mix held fixed.

    Per-function patterns and base rates come from ``mix_seed``; ``seed``
    only draws arrival times.
    """

    mix_seed: int = FULL_SEED

    def pattern_for(self, function: str, index: int) -> PatternSpec:
        mix = replace(self, seed=self.mix_seed)
        return AzureTraceGenerator.pattern_for(mix, function, index)


def _zipf_setup(
    seed: int, kind: PlatformKind, minutes: float, requests: int, **overrides
) -> Setup:
    profiles = FunctionBenchSuite.default().names()
    suite = FunctionBenchSuite.replicated(profiles, ZIPF_COPIES)
    trace = ClusterMix(seed=seed, mix_seed=ZIPF_MIX_SEED).generate(
        minutes, suite.names(), target_requests=requests
    )
    config = ClusterConfig(
        nodes=ZIPF_NODES,
        node_memory_mb=ZIPF_NODE_MB,
        content_scale=ZIPF_CONTENT_SCALE,
        seed=CONFIG_SEED,
        **overrides,
    )
    return Setup(suite, trace, kind, config)


def zipf_dedup(seed: int, **overrides) -> Setup:
    """Default Medes (every opt-in layer off): the data-plane workload."""
    return _zipf_setup(
        seed, PlatformKind.MEDES, ZIPF_DEDUP_MINUTES, ZIPF_DEDUP_REQUESTS, **overrides
    )


def zipf_keepalive(seed: int, **overrides) -> Setup:
    """Fixed keep-alive: no agent, registry, patch codec or synthesis."""
    return _zipf_setup(
        seed,
        PlatformKind.FIXED_KEEP_ALIVE,
        ZIPF_KEEPALIVE_MINUTES,
        ZIPF_KEEPALIVE_REQUESTS,
        **overrides,
    )


def lattice_faults(duration_min: float) -> FaultsConfig:
    """One node crash with restart, one shard outage, 1% transient RPCs."""
    span = duration_min * 60_000.0
    return FaultsConfig(
        schedule=FaultSchedule(
            node_crashes=(NodeCrash(at_ms=0.45 * span, node_id=1, restart_at_ms=0.6 * span),),
            shard_outages=(ShardOutage(at_ms=0.2 * span, shard=0, heal_at_ms=0.3 * span),),
        ),
        rpc_failure_prob=0.01,
        seed=CONFIG_SEED,
    )


def _lattice_setup(
    seed: int, template_sharing: bool, content_scale: float, **overrides
) -> Setup:
    suite = FunctionBenchSuite.replicated(
        FunctionBenchSuite.default().names(), LATTICE_COPIES
    )
    names = suite.names()
    trace = AzureMix(seed=seed).generate(
        LATTICE_MINUTES,
        names,
        tenant_of={name: f"tenant-{i % LATTICE_TENANTS}" for i, name in enumerate(names)},
    )
    config = ClusterConfig(
        nodes=LATTICE_NODES,
        node_memory_mb=LATTICE_POOL_MB / LATTICE_NODES,
        content_scale=content_scale,
        seed=CONFIG_SEED,
        template_sharing=template_sharing,
        checkpoint_tiering=True,
        parallel_data_plane=True,
        registry_shards=2,
        dedup_domains=TenantConfig(mode=DedupDomainMode.PER_TENANT),
        faults=lattice_faults(LATTICE_MINUTES),
        **overrides,
    )
    return Setup(suite, trace, PlatformKind.MEDES, config)


def fig10_lattice(seed: int, **overrides) -> Setup:
    """Every opt-in layer on at the Figure-10 lowest pool.

    With a template catalog the policy turns every dedup into a template
    fork, so the agent's dedup/restore path, the registry and the storage
    tier stay idle here; :func:`fig10_tiered` runs them.
    """
    return _lattice_setup(
        seed, template_sharing=True, content_scale=LATTICE_CONTENT_SCALE, **overrides
    )


def fig10_tiered(seed: int, **overrides) -> Setup:
    """:func:`fig10_lattice` without templates: dedup over the sharded
    registry, checkpoint tiering, the shard outage and the cross-domain
    replica checks all run."""
    return _lattice_setup(
        seed, template_sharing=False, content_scale=TIERED_CONTENT_SCALE, **overrides
    )


@dataclass(frozen=True)
class Workload:
    """A named workload: its builder and the host time one part takes.

    One seed's load is a few independent traces, its parts (each from its
    own :func:`part_seed`), replayed in separate processes and pooled, so
    a run measures more work than one trace carries and the simulated
    metrics average over several arrival samples.  How many parts a run
    replays follows from ``--seconds`` and ``part_seconds`` (the wall
    time of one part, process start included, on a 2-CPU x86-64
    container), never from the host speed, so the simulated metrics of a
    seed do not change with the machine.
    """

    build: Callable[..., Setup]
    part_seconds: float

    def parts(self, seconds: float) -> int:
        """How many parts a run of ``seconds`` replays."""
        return max(1, int(seconds / self.part_seconds + 0.5))


def part_seed(seed: int, part: int) -> int:
    """Trace seed of part ``part`` of the load of ``seed``."""
    return stable_seed("perfbench", seed, part)


WORKLOADS = {
    "zipf_dedup": Workload(zipf_dedup, part_seconds=7.0),
    "zipf_keepalive": Workload(zipf_keepalive, part_seconds=4.0),
    "fig10_lattice": Workload(fig10_lattice, part_seconds=10.0),
    "fig10_tiered": Workload(fig10_tiered, part_seconds=3.0),
}
