"""The Fig-10 feature ladder: tiering, templates and tenancy measured
against one Medes baseline, plus the node-crash ladder.

The paper's Figure-10 pool ladder (the 40/30/20 GB points, scaled) is
the evaluation's memory-pressure experiment.  Each point replays one
trace — every function owned by its own tenant — on the default Medes
platform once, then once per variant:

* ``tiering`` — ``checkpoint_tiering`` on (DESIGN.md §9): cold state
  demotes to remote DRAM / local SSD instead of the bin, and recorded
  restores prefetch.  Claim: at the tight points tiering converts cold
  starts into dedup starts, and prefetched restores beat serial ones.
* ``templates`` — ``template_sharing`` on (DESIGN.md §14): idle
  sandboxes park as per-function deltas over shared template segments.
  Claim: fewer cold starts *and* fewer start-path bytes moved per
  request at every point.
* ``domains-10`` / ``per-tenant`` — tenant-scoped dedup domains
  (DESIGN.md §15) of ten tenants and of one.  Reported: the isolation
  tax (memory, cold-start rate, latency) against the shared baseline.

Tenant labels are inert while ``dedup_domains`` is off, so the one
baseline run is the "off" arm of tiering and templates and the "all"
arm of tenancy.  Beside the ladder run the seeded remote-dedup attack
under four domain policies (the leak curve: ~1.0 distinguishing
accuracy when attacker and victim share a domain, ~0.5 when they do
not) and the 0/1/2 node-crash ladder (DESIGN.md §11: every request
completes, MTTR equals the injected outage).

Results go to ``BENCH_storage_tiers.json``, ``BENCH_template_sharing.json``,
``BENCH_tenant_isolation.json`` and ``BENCH_fault_recovery.json`` at the
repo root, and the matching ``benchmarks/results/*.txt`` tables.

Run standalone to regenerate all four artifacts::

    PYTHONPATH=src:. python -m benchmarks.bench_feature_ladder

or via pytest for a reduced smoke configuration (6-min pool ladder).
"""

from __future__ import annotations

import itertools
import json
import math
import pathlib
import platform as platform_module

from benchmarks.conftest import write_result

import repro.sandbox.checkpoint as checkpoint_module
import repro.sandbox.sandbox as sandbox_module
from repro.analysis.experiments import (
    FIG10_POOL_MB,
    FULL_DURATION_MIN,
    FULL_NODES,
    FULL_SEED,
    full_config,
    full_workload,
)
from repro.analysis.tables import render_table
from repro.core.policy import MedesPolicyConfig
from repro.faults.schedule import FaultSchedule, FaultsConfig, NodeCrash
from repro.platform.metrics import StartType
from repro.platform.platform import PlatformKind, build_platform
from repro.tenancy.attack import ATTACKER_TENANT, VICTIM_TENANT, AttackConfig, run_attack
from repro.tenancy.domains import DedupDomainMode, TenantConfig

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Rounds of the remote-dedup attack per domain policy.
ATTACK_ROUNDS = 12

#: The crash ladder: a 3-node cluster on its own 6-min trace; each
#: successive crash lands at the next fraction of the trace, and the
#: node restarts after an outage of ``OUTAGE_FRACTION`` of the trace.
CRASH_COUNTS = (0, 1, 2)
CRASH_NODES = 3
CRASH_NODE_MB = 1024.0
CRASH_DURATION_MIN = 6.0
CRASH_SEED = 17
CRASH_AT_FRACTIONS = (0.3, 0.6)
OUTAGE_FRACTION = 0.1

MEDES = MedesPolicyConfig()


def tenant_of(function: str) -> str:
    return f"tenant-{function}"


def ladder_variants(functions: tuple[str, ...]) -> dict[str, dict]:
    """Each run at a ladder point, as its overrides of the Medes baseline."""
    tenants = [tenant_of(name) for name in functions]
    groups_of_ten = tuple(
        (f"group-{index}", tuple(tenants[index * 10 : (index + 1) * 10]))
        for index in range((len(tenants) + 9) // 10)
    )
    return {
        "baseline": {},
        "tiering": {"checkpoint_tiering": True},
        "templates": {"template_sharing": True},
        "domains-10": {
            "dedup_domains": TenantConfig(
                mode=DedupDomainMode.TRUST_GROUPS, trust_groups=groups_of_ten
            )
        },
        "per-tenant": {"dedup_domains": TenantConfig(mode=DedupDomainMode.PER_TENANT)},
    }


#: The tenancy report's domain-size rows and the ladder run behind each.
DOMAIN_SIZES = {"all": "baseline", "10": "domains-10", "1": "per-tenant"}


def _run(config, suite, trace):
    """One Medes run from fresh process-global id counters.

    Resetting the sandbox/checkpoint id counters makes every run mint
    identical ids, so any delta between runs is attributable to the
    config alone.
    """
    sandbox_module._sandbox_ids = itertools.count(1)
    checkpoint_module._checkpoint_ids = itertools.count(1)
    platform = build_platform(PlatformKind.MEDES, config, suite, medes=MEDES)
    return platform, platform.run(trace).metrics


def _pct(metrics, pct, start: StartType | None, metric: str = "startup") -> float | None:
    value = metrics.latency_percentile(pct, start_type=start, metric=metric)
    return None if math.isnan(value) else round(value, 3)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _config(**fields) -> dict:
    return {**fields, "python": platform_module.python_version()}


# ------------------------------------------------------------ tiering


def tiers_sample(platform, metrics) -> dict:
    first_touch = [
        op.total_ms - op.promote_ms for op in metrics.restore_ops if not op.prefetched
    ]
    prefetched = [
        op.total_ms - op.promote_ms for op in metrics.restore_ops if op.prefetched
    ]
    # The same recorded restores replayed first-touch style: the base
    # read and the patch compute run serially instead of overlapped
    # (promote_ms excluded from both sides — un-parking a table costs
    # the same either way).
    prefetched_serial = [
        op.base_read_ms + op.compute_ms + op.miss_read_ms + op.restore_ms
        for op in metrics.restore_ops
        if op.prefetched
    ]
    return {
        "requests": len(metrics.requests),
        "cold_starts": metrics.cold_starts(),
        "dedup_starts": len(metrics.restore_ops),
        "evictions": metrics.evictions,
        "table_demotions": metrics.table_demotions,
        "table_promotions": metrics.table_promotions,
        "checkpoint_demotions": metrics.checkpoint_demotions,
        "checkpoint_promotions": metrics.checkpoint_promotions,
        "prefetched_restores": metrics.prefetched_restores,
        "prefetch_hit_pages": metrics.prefetch_hit_pages,
        "prefetch_miss_pages": metrics.prefetch_miss_pages,
        "mean_first_touch_restore_ms": round(_mean(first_touch), 3),
        "mean_prefetched_restore_ms": round(_mean(prefetched), 3),
        "mean_prefetched_serial_ms": round(_mean(prefetched_serial), 3),
    }


def render_tiers(report: dict) -> str:
    rows = [
        [
            f"{point['pool_mb']:.0f}MB",
            point["off"]["cold_starts"],
            point["on"]["cold_starts"],
            point["on"]["table_demotions"],
            point["on"]["checkpoint_demotions"],
            point["on"]["prefetched_restores"],
            f"{point['on']['mean_prefetched_serial_ms']:.1f}",
            f"{point['on']['mean_prefetched_restore_ms']:.1f}",
        ]
        for point in report["results"]
    ]
    headers = [
        "pool", "cold (off)", "cold (tiered)", "tbl demote", "ckpt demote",
        "prefetched", "serial ms", "prefetched ms",
    ]
    return render_table(
        headers, rows, title="Fig 10 pressure sweep: tiered checkpoint storage off vs on"
    )


# ---------------------------------------------------------- templates


def template_sample(platform, metrics) -> dict:
    counts = metrics.start_counts()
    # Bytes moved: every fabric remote read (dedup parks and restores
    # fetch base pages through the fabric) plus the charged
    # template-pool segment promotes — all cluster-interconnect traffic
    # on both sides' park and start paths.  Delta spills stay node-local
    # (SSD, like §9's dedup-cold tables) and move no cluster bytes, so
    # they are charged as latency, not here.
    moved = platform.fabric.stats.remote_bytes + metrics.template_promote_bytes
    requests = len(metrics.requests)
    return {
        "requests": requests,
        "cold_starts": counts.get(StartType.COLD, 0),
        "warm_starts": counts.get(StartType.WARM, 0),
        "dedup_starts": counts.get(StartType.DEDUP, 0),
        "template_starts": counts.get(StartType.TEMPLATE, 0),
        "template_parks": len(metrics.template_ops),
        "template_segments_created": metrics.template_segments_created,
        "template_segments_shared": metrics.template_segments_shared,
        "template_promotions": metrics.template_promotions,
        "template_promote_bytes": metrics.template_promote_bytes,
        "template_pool_rejections": metrics.template_pool_rejections,
        "template_fork_fallbacks": metrics.template_fork_fallbacks,
        "template_evict_parks": metrics.template_evict_parks,
        "template_delta_spills": metrics.template_delta_spills,
        "template_delta_spill_bytes": metrics.template_delta_spill_bytes,
        "template_delta_unspill_bytes": metrics.template_delta_unspill_bytes,
        "start_bytes_moved": moved,
        "bytes_per_start": round(moved / requests, 1),
        "p50_e2e_ms": _pct(metrics, 50, None, "e2e"),
        "p99_e2e_ms": _pct(metrics, 99, None, "e2e"),
        "p50_startup_cold_ms": _pct(metrics, 50, StartType.COLD),
        "p50_startup_dedup_ms": _pct(metrics, 50, StartType.DEDUP),
        "p50_startup_template_ms": _pct(metrics, 50, StartType.TEMPLATE),
    }


def render_templates(report: dict) -> str:
    rows = [
        [
            f"{point['pool_mb']:.0f}MB",
            point["off"]["cold_starts"],
            point["on"]["cold_starts"],
            point["on"]["template_starts"],
            f"{point['off']['bytes_per_start'] / 1e6:.1f}",
            f"{point['on']['bytes_per_start'] / 1e6:.1f}",
            point["off"]["p50_startup_dedup_ms"] or "-",
            point["on"]["p50_startup_template_ms"] or "-",
        ]
        for point in report["results"]
    ]
    headers = [
        "pool", "cold (off)", "cold (tmpl)", "tmpl starts", "MB/start (off)",
        "MB/start (tmpl)", "p50 dedup ms", "p50 tmpl ms",
    ]
    return render_table(
        headers, rows, title="Fig 10 pressure sweep: template sharing off vs on"
    )


# ------------------------------------------------------------ tenancy


def tenancy_sample(platform, metrics) -> dict:
    counts = metrics.start_counts()
    requests = len(metrics.requests)
    dedup_savings = [op.savings_fraction for op in metrics.dedup_ops]
    return {
        "requests": requests,
        "domains": len(platform.registry.domains()),
        "cold_starts": counts.get(StartType.COLD, 0),
        "warm_starts": counts.get(StartType.WARM, 0),
        "dedup_starts": counts.get(StartType.DEDUP, 0),
        "cold_start_rate": round(counts.get(StartType.COLD, 0) / requests, 4),
        "bases_created": metrics.bases_created,
        "dedup_ops": len(metrics.dedup_ops),
        "mean_dedup_savings": round(sum(dedup_savings) / len(dedup_savings), 4)
        if dedup_savings
        else None,
        "mean_memory_mb": round(metrics.mean_memory_bytes() / 2**20, 1),
        "p50_e2e_ms": _pct(metrics, 50, None, "e2e"),
        "p99_e2e_ms": _pct(metrics, 99, None, "e2e"),
        "p50_startup_ms": _pct(metrics, 50, None),
        "p99_startup_ms": _pct(metrics, 99, None),
        "p50_startup_dedup_ms": _pct(metrics, 50, StartType.DEDUP),
    }


def leak_curve(rounds: int, seed: int) -> list[dict]:
    """The attacker's distinguishing accuracy under each domain policy."""
    same_group = TenantConfig(
        mode=DedupDomainMode.TRUST_GROUPS,
        trust_groups=(("shared", (VICTIM_TENANT, ATTACKER_TENANT)),),
    )
    cross_group = TenantConfig(
        mode=DedupDomainMode.TRUST_GROUPS,
        trust_groups=(
            ("victims", (VICTIM_TENANT,)),
            ("attackers", (ATTACKER_TENANT,)),
        ),
    )
    policies = [
        ("off", TenantConfig()),
        ("trust_groups:same-group", same_group),
        ("trust_groups:cross-group", cross_group),
        ("per_tenant", TenantConfig(mode=DedupDomainMode.PER_TENANT)),
    ]
    config = AttackConfig(rounds=rounds, seed=seed)
    curve = []
    for label, policy in policies:
        result = run_attack(policy, config)
        curve.append(
            {
                "policy": label,
                "rounds": rounds,
                "leak_accuracy": round(result.leak_accuracy, 4),
                "mean_hit_startup_ms": round(result.mean_hit_startup_ms, 1),
                "mean_miss_startup_ms": round(result.mean_miss_startup_ms, 1),
                "hit_start_types": sorted(
                    {o.second_start_type for o in result.observations if o.kind == "hit"}
                ),
                "miss_start_types": sorted(
                    {o.second_start_type for o in result.observations if o.kind == "miss"}
                ),
            }
        )
    return curve


def render_tenancy(report: dict) -> str:
    rows = [
        [
            f"{point['pool_mb']:.0f}MB",
            label,
            sample["domains"],
            sample["cold_starts"],
            f"{sample['cold_start_rate']:.3f}",
            f"{sample['mean_memory_mb']:.0f}",
            f"{sample['memory_tax_mb']:+.0f}",
            sample["p50_startup_ms"],
            sample["p99_startup_ms"],
        ]
        for point in report["results"]
        for label, sample in point["domain_size"].items()
    ]
    headers = [
        "pool", "domain", "domains", "cold", "cold rate", "mem MB", "tax MB",
        "p50 start", "p99 start",
    ]
    tax = render_table(
        headers, rows, title="Fig 10 pressure ladder under dedup-domain sizes all/10/1"
    )
    leak_rows = [
        [
            entry["policy"],
            f"{entry['leak_accuracy']:.3f}",
            f"{entry['mean_hit_startup_ms']:.0f}",
            f"{entry['mean_miss_startup_ms']:.0f}",
        ]
        for entry in report["leak_signal"]
    ]
    leak = render_table(
        ["policy", "leak accuracy", "hit start ms", "miss start ms"],
        leak_rows,
        title="Remote-dedup attack: distinguishing accuracy per policy",
    )
    return tax + "\n\n" + leak


# ------------------------------------------------------------- faults


def crash_schedule(crashes: int) -> FaultsConfig | None:
    """0/1/2 staggered crash+restart events inside the trace window."""
    if crashes == 0:
        return None
    duration_ms = CRASH_DURATION_MIN * 60_000.0
    events = tuple(
        NodeCrash(
            at_ms=frac * duration_ms,
            node_id=index + 1,
            restart_at_ms=(frac + OUTAGE_FRACTION) * duration_ms,
        )
        for index, frac in enumerate(CRASH_AT_FRACTIONS[:crashes])
    )
    return FaultsConfig(schedule=FaultSchedule(node_crashes=events))


def crash_sample(crashes: int, metrics) -> dict:
    completed = metrics.completed_records()
    requests = len(metrics.requests)
    cold = metrics.cold_starts()
    return {
        "crashes": crashes,
        "requests": requests,
        "completed": len(completed),
        "startup_ms_p50": round(metrics.startup_percentile(50), 3),
        "startup_ms_p90": round(metrics.startup_percentile(90), 3),
        "startup_ms_p99": round(metrics.startup_percentile(99), 3),
        "cold_starts": cold,
        "cold_start_rate": round(cold / requests, 4) if requests else 0.0,
        "restore_cold_fallbacks": metrics.restore_cold_fallbacks,
        "cold_fallback_rate": (
            round(metrics.restore_cold_fallbacks / requests, 4) if requests else 0.0
        ),
        "restore_replica_fallbacks": metrics.restore_replica_fallbacks,
        "requests_rescheduled": metrics.requests_rescheduled,
        "crash_purged_sandboxes": metrics.crash_purged_sandboxes,
        "crash_reconciled_refs": metrics.crash_reconciled_refs,
        "mttr_ms": round(metrics.mttr_ms(), 3),
    }


def render_faults(report: dict) -> str:
    rows = [
        [
            point["crashes"],
            f"{point['startup_ms_p50']:.1f}",
            f"{point['startup_ms_p90']:.1f}",
            f"{point['startup_ms_p99']:.1f}",
            f"{100 * point['cold_start_rate']:.1f}%",
            f"{100 * point['cold_fallback_rate']:.2f}%",
            point["restore_replica_fallbacks"],
            point["crash_purged_sandboxes"],
            f"{point['mttr_ms'] / 1000:.0f}s",
        ]
        for point in report["results"]
    ]
    headers = [
        "crashes", "p50", "p90", "p99", "cold rate", "cold fallback", "rehomed",
        "purged", "MTTR",
    ]
    return render_table(
        headers, rows, title="Startup latency and fallback rates under injected node crashes"
    )


# -------------------------------------------------------------- sweep


SAMPLERS = {"tiers": tiers_sample, "templates": template_sample, "tenancy": tenancy_sample}


def _paired(pool_mb: float, off: dict, on: dict) -> dict:
    assert off["requests"] == on["requests"]
    return {
        "pool_mb": pool_mb,
        "requests": off["requests"],
        "off": off,
        "on": on,
        "cold_start_delta": on["cold_starts"] - off["cold_starts"],
    }


def _domain_point(pool_mb: float, samples: dict[str, dict]) -> dict:
    shared = samples["all"]
    for sample in samples.values():
        sample["memory_tax_mb"] = round(
            sample["mean_memory_mb"] - shared["mean_memory_mb"], 1
        )
        sample["cold_rate_tax"] = round(
            sample["cold_start_rate"] - shared["cold_start_rate"], 4
        )
    return {"pool_mb": pool_mb, "requests": shared["requests"], "domain_size": samples}


def run_ladder(duration_min: float) -> dict[str, dict]:
    """Every Fig-10 pool point: the baseline once, then each variant."""
    suite, trace = full_workload(duration_min, FULL_SEED)
    trace = trace.with_tenants({name: tenant_of(name) for name in suite.names()})
    variants = ladder_variants(suite.names())
    tiers, templates, tenancy = [], [], []
    for pool in FIG10_POOL_MB:
        # Every run feeds every feature's sampler; each report then
        # picks the arms it compares.
        runs = {}
        for label, overrides in variants.items():
            config = full_config(node_memory_mb=pool / FULL_NODES, **overrides)
            platform, metrics = _run(config, suite, trace)
            runs[label] = {
                feature: sample(platform, metrics) for feature, sample in SAMPLERS.items()
            }
        base = runs["baseline"]
        tiers.append(_paired(pool, base["tiers"], runs["tiering"]["tiers"]))
        point = _paired(pool, base["templates"], runs["templates"]["templates"])
        point["bytes_per_start_delta"] = round(
            point["on"]["bytes_per_start"] - point["off"]["bytes_per_start"], 1
        )
        templates.append(point)
        sizes = {size: runs[label]["tenancy"] for size, label in DOMAIN_SIZES.items()}
        tenancy.append(_domain_point(pool, sizes))
    ladder = dict(
        pool_mb=list(FIG10_POOL_MB),
        nodes=FULL_NODES,
        trace_minutes=duration_min,
        seed=FULL_SEED,
    )
    return {
        "storage_tiers": {
            "benchmark": "storage_tiers",
            "units": "cold starts and mean restore ms per Fig-10 pool point",
            "config": _config(**ladder),
            "results": tiers,
        },
        "template_sharing": {
            "benchmark": "template_sharing",
            "units": "cold starts and start-path bytes per Fig-10 pool point",
            "config": _config(**ladder),
            "results": templates,
        },
        "tenant_isolation": {
            "benchmark": "tenant_isolation",
            "units": "isolation tax per Fig-10 pool point; leak accuracy per policy",
            "config": _config(**ladder, attack_rounds=ATTACK_ROUNDS),
            "results": tenancy,
            "leak_signal": leak_curve(ATTACK_ROUNDS, FULL_SEED),
        },
    }


def run_crash_ladder() -> dict:
    """0/1/2 node crashes: same trace, same seed, only the schedule varies."""
    suite, trace = full_workload(CRASH_DURATION_MIN, CRASH_SEED)
    results = []
    for crashes in CRASH_COUNTS:
        config = full_config(
            nodes=CRASH_NODES, node_memory_mb=CRASH_NODE_MB, faults=crash_schedule(crashes)
        )
        _, metrics = _run(config, suite, trace)
        results.append(crash_sample(crashes, metrics))
    return {
        "benchmark": "fault_recovery",
        "units": "startup-latency percentiles (ms) and rates per crash count",
        "config": _config(
            crash_counts=list(CRASH_COUNTS),
            nodes=CRASH_NODES,
            node_memory_mb=CRASH_NODE_MB,
            trace_minutes=CRASH_DURATION_MIN,
            outage_minutes=OUTAGE_FRACTION * CRASH_DURATION_MIN,
            seed=CRASH_SEED,
        ),
        "results": results,
    }


def run_all(duration_min: float = FULL_DURATION_MIN) -> dict[str, dict]:
    """All four reports, keyed by artifact name."""
    return {**run_ladder(duration_min), "fault_recovery": run_crash_ladder()}


RENDERERS = {
    "storage_tiers": render_tiers,
    "template_sharing": render_templates,
    "tenant_isolation": render_tenancy,
    "fault_recovery": render_faults,
}


def main() -> None:
    for name, report in run_all().items():
        output = REPO_ROOT / f"BENCH_{name}.json"
        output.write_text(json.dumps(report, indent=2) + "\n")
        text = RENDERERS[name](report)
        write_result(name, text)
        print(text)
        print(f"\nwrote {output}\n")


def test_feature_ladder_smoke():
    """Reduced ladder (6-min trace) pinning every feature's claim."""
    reports = run_all(duration_min=6.0)

    # Tiering helps where it matters: at the tight pressure points (the
    # 30G/20G analogues) it must not increase cold starts — parked
    # tables keep serving dedup starts — and recorded restores must be
    # faster on average than first-touch.
    tight = reports["storage_tiers"]["results"][1:]
    assert any(p["cold_start_delta"] < 0 for p in tight), tight
    for point in tight:
        assert point["cold_start_delta"] <= 0, point
        on = point["on"]
        assert on["table_demotions"] > 0, point
        if on["prefetched_restores"]:
            assert on["mean_prefetched_restore_ms"] < on["mean_prefetched_serial_ms"], point

    # Templates beat dedup-only at every point: fewer cold starts AND
    # fewer start-path bytes moved per request.
    for point in reports["template_sharing"]["results"]:
        assert point["cold_start_delta"] < 0, point
        assert point["bytes_per_start_delta"] < 0, point
        on = point["on"]
        assert on["template_starts"] > 0, point
        assert on["template_segments_shared"] > 0, point

    # The channel is statistically visible under global sharing and null
    # under separating domains; the tax rows partition the registry as
    # configured (one domain under ``all``, many under ``1``).
    tenancy = reports["tenant_isolation"]
    leak = {entry["policy"]: entry["leak_accuracy"] for entry in tenancy["leak_signal"]}
    assert leak["off"] >= 0.9, leak
    assert leak["trust_groups:same-group"] >= 0.9, leak
    assert leak["trust_groups:cross-group"] <= 0.6, leak
    assert leak["per_tenant"] <= 0.6, leak
    for point in tenancy["results"]:
        sizes = point["domain_size"]
        assert sizes["all"]["domains"] == 1, sizes["all"]
        assert sizes["1"]["domains"] > sizes["10"]["domains"] >= 1, sizes
        assert sizes["all"]["memory_tax_mb"] == 0.0

    # Crashes degrade, never abort: every request completes at every
    # crash count, the crashed points injected their faults (MTTR
    # matches the configured outage window), and recovery shows up in
    # the counters.
    faults = reports["fault_recovery"]
    baseline, *crashed = faults["results"]
    assert baseline["mttr_ms"] == 0.0
    assert baseline["restore_cold_fallbacks"] == 0
    outage_ms = faults["config"]["outage_minutes"] * 60_000.0
    for point in faults["results"]:
        assert point["completed"] == point["requests"] == baseline["requests"]
    for point in crashed:
        assert abs(point["mttr_ms"] - outage_ms) < 1.0, point
        assert point["crash_purged_sandboxes"] > 0, point


if __name__ == "__main__":
    main()
