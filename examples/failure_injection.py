#!/usr/bin/env python3
"""Node failure and the dedup substrate (paper Section 4.1.3).

A dedup sandbox's patches are useless if the node holding its base pages
becomes unreachable.  This example builds a Medes cluster, deduplicates
a sandbox whose base lives on another node, then injects a fault plan
through ``ClusterConfig.faults``: every fabric link partitions, and
later the base's node crashes.  The platform degrades gracefully: the
restore fails fast and the request is served cold; the dedup state is
kept while its base node lives (a partition heals) and purged once the
node dies.  The example asserts each of these outcomes.

Run:
    python examples/failure_injection.py
"""

from __future__ import annotations

import json

from repro.core.policy import MedesPolicyConfig
from repro.faults import FaultSchedule, FaultsConfig, LinkPartition, NodeCrash
from repro.platform import ClusterConfig, PlatformKind, StartType, build_platform
from repro.sandbox.state import SandboxState
from repro.workload import FunctionBenchSuite, Trace


def main() -> None:
    suite = FunctionBenchSuite.subset(["RNNModel"])
    # Every link partitions at 60 s and heals at 120 s; node 0, home of
    # the base sandbox, crashes at 100 s.
    faults = FaultsConfig(
        schedule=FaultSchedule(
            link_partitions=tuple(
                LinkPartition(at_ms=60_000.0, peer=peer, heal_at_ms=120_000.0)
                for peer in (0, 1)
            ),
            node_crashes=(NodeCrash(at_ms=100_000.0, node_id=0),),
        )
    )
    config = ClusterConfig(
        nodes=2, node_memory_mb=512.0, seed=8, verify_restores=True, faults=faults
    )
    policy = MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0)

    # Two sandboxes early (one becomes the base, one deduplicates).
    # Two requests then arrive together after the partition: the first
    # takes the (warm) base sandbox, the second can only be served by the
    # deduplicated sandbox -- whose base pages are now unreachable.
    trace = Trace.from_arrivals(
        [(0.0, "RNNModel"), (1.0, "RNNModel"), (90_000.0, "RNNModel"),
         (90_001.0, "RNNModel")]
    )

    platform = build_platform(PlatformKind.MEDES, config, suite, medes=policy)
    kept = []

    def dedup_sandboxes_before_crash() -> None:
        kept.extend(
            sandbox
            for node in platform.nodes
            for sandbox in node.sandboxes.values()
            if sandbox.state is SandboxState.DEDUP
        )

    platform.sim.at(99_000.0, dedup_sandboxes_before_crash)
    report = platform.run(trace)
    metrics = report.metrics

    print("Fault events:")
    for event in metrics.fault_events:
        print(f"  t={event.time_ms / 1000:5.0f}s  {event.kind:16s} {event.domain}")

    print("\nPer-request outcome:")
    for record in metrics.requests.values():
        print(f"  t={record.arrival_ms / 1000:5.0f}s  {record.start_type.value:5s} "
              f"startup={record.startup_ms:7.1f} ms")

    final = metrics.requests[3]
    assert final.start_type is StartType.COLD, final.start_type
    assert metrics.restore_cold_fallbacks == 1, metrics.restore_cold_fallbacks
    assert kept, "the partition must keep the dedup sandbox"
    assert all(sandbox.state is SandboxState.PURGED for sandbox in kept)
    assert metrics.crash_reconciled_refs > 0
    print("\nThe post-partition request fell back to a cold start: the dedup")
    print("sandbox's base pages were unreachable, so the restore failed fast")
    print("rather than risking a corrupt restore.  The sandbox was kept while")
    print("its base node lived, and purged when node 0 crashed.")

    print(f"\nfabric: {platform.fabric.stats.failed_reads} failed read batches, "
          f"{platform.fabric.stats.remote_reads} successful remote reads")

    snapshot = platform.cluster_snapshot()
    print("\nFinal cluster snapshot:")
    print(json.dumps(snapshot, indent=2)[:800] + "\n  ...")


if __name__ == "__main__":
    main()
