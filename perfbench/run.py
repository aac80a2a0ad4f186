"""Layer-attributed replay benchmark of the Medes reproduction.

One command replays a named workload against the full platform
(``build_platform(...).run(trace)``), checks that the replay is correct
and prints every metric by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.

The load of one seed is a few independent traces, the workload's parts
(``workloads.py``), each replayed by its own fresh process.  How many
parts a run replays follows from ``--seconds`` alone, so the simulated
metrics of a seed are the same on every machine.

``--trace 0`` measures the end-to-end metrics with tracing off: it
replays every part once and reports the host metrics (requests per
replay second over all parts, median set-up time and peak RSS over the
parts) and the simulated-time metrics pooled over the parts.

``--trace 1`` measures the per-layer metrics on part 0: one untraced
replay, one traced replay with the layer wrappers of ``tracer.py``, and
one replay with ``verify_restores``/``verify_accounting`` on (restores
byte-exact, node accounting recounted on every read).  Both must
reproduce every simulated result of the untraced replay bit for bit.
It prints the attribution table (self time per layer span, reconciled
to the traced replay time) and the tracing overhead.  Verification runs
apart from tracing so that its cost (it doubles zipf_keepalive's replay
time) does not land in the layer self times.

A replay in which the platform raises (a restore that is not byte-exact,
node accounting that does not recount) or that leaves a request
unfinished makes the run incorrect: it prints ``INCORRECT: ...``, reports
``"correct": false`` and exits with 1.

Every run writes its raw records under ``perfbench/results/`` (spans of
a traced replay as ``.npz``); ``perfbench/compare.py`` compares the
result sets of two commits.

Usage, from the repository root::

    python3 perfbench/run.py --workload zipf_dedup --seed 1 --seconds 20 --trace 0

Claims are confirmed on the held-out seed (``HELDOUT_SEED``) as well as
on the seeds used while a change was written.  The workloads hold their
function mix fixed, so the held-out seed varies arrival times only.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: Seed used when none is given, and the held-out seed no tuning of the
#: benchmark or of the program may look at.
DEFAULT_SEED = 1
HELDOUT_SEED = 9001

#: Hard limit on one run, kept under the 180 s a run may take.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def git_sha(root: pathlib.Path) -> str:
    """The checked-out commit, or ``unknown`` outside a git repository."""
    if not (root / ".git").exists():
        return "unknown"  # not a checkout of its own: never report a parent's commit
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def replay(
    workload: str,
    seed: int,
    part: int,
    *,
    deadline: float,
    traced: bool = False,
    verify: bool = False,
) -> dict:
    """Run one replay in a fresh interpreter and return its record."""
    command = [sys.executable, str(HERE / "replay.py"), "--workload", workload]
    command += ["--seed", str(seed), "--part", str(part)]
    if verify:
        command.append("--verify")
    if traced:
        spans = RESULTS / "spans" / f"{workload}-seed{seed}.npz"
        spans.parent.mkdir(parents=True, exist_ok=True)
        command += ["--traced", "--spans-out", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the replay started")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"replay of {workload} exceeded the run budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"replay of {workload} failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_replay(record: dict) -> list[str]:
    """Correctness of one replay: it ran, every request arrived and completed."""
    if record["error"]:
        kind = "verified " if record["verify"] else "traced " if record["traced"] else ""
        return [f"{kind}replay of part {record['part']} raised {record['error']}"]
    sim = record["sim"]
    problems = []
    if sim["arrived"] != sim["trace_requests"]:
        problems.append(f"{sim['arrived']} of {sim['trace_requests']} requests arrived")
    if sim["completed"] != sim["arrived"]:
        problems.append(f"{sim['arrived'] - sim['completed']} requests never completed")
    return problems


def check_same_sim(reference: dict, other: dict, what: str) -> list[str]:
    """Every simulated result of ``other`` equals ``reference`` exactly.

    A replay that raised has no results to compare; ``check_replay``
    reports it.
    """
    ours, theirs = reference["sim"], other["sim"]
    if ours is None or theirs is None:
        return []
    return [
        f"{what}: {key} = {theirs.get(key)!r}, expected {value!r}"
        for key, value in ours.items()
        if theirs.get(key) != value
    ]


# ------------------------------------------------------------- end to end


def measure_end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    """Replay every part of the seed's load once."""
    from replay import pooled
    from workloads import WORKLOADS

    records = []
    for part in range(WORKLOADS[workload].parts(seconds)):
        record = replay(workload, seed, part, deadline=deadline)
        records.append(record)
        host = record["host"]
        outcome = (
            f"raised {record['error']}"
            if record["error"]
            else f"{record['sim']['completed']} requests"
        )
        print(
            f"part {part}: setup {host['setup_s']:.4f} s, replay {host['replay_s']:.3f} s, "
            f"{outcome}, peak RSS {host['peak_rss_mb']:.1f} MB",
            flush=True,
        )
    problems = [problem for record in records for problem in check_replay(record)]
    ran = [record for record in records if record["sim"] is not None]
    if not ran:
        return records, None, {}, problems
    sim = pooled([record["sim"] for record in ran])
    metrics = {
        "replay_req_per_s": sum(r["sim"]["completed"] for r in ran)
        / sum(r["host"]["replay_s"] for r in ran),
        "setup_s": statistics.median(r["host"]["setup_s"] for r in records),
        "peak_rss_mb": statistics.median(r["host"]["peak_rss_mb"] for r in records),
        **{
            name: sim[name]
            for name in (
                "e2e_p50_ms",
                "e2e_tail_ms",
                "startup_mean_ms",
                "cold_start_frac",
                "mean_memory_mb",
            )
        },
    }
    return records, sim, metrics, problems


# -------------------------------------------------------------- per layer


def per_layer(untraced: dict, traced: dict) -> dict[str, float]:
    """Every per-layer metric the traced and untraced replays give."""
    spans, counters, sim = traced["spans"], traced["counters"], traced["sim"]
    us_per_req = 1e6 / sim["completed"]
    metrics: dict[str, float] = {}
    for name, row in spans.items():
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.us_per_req"] = row["self_s"] * us_per_req
    metrics.update(counters)
    pages = counters["registry.choose_base_pages.pages"]
    metrics["registry.hit_ratio"] = counters["registry.hits"] / pages if pages else 0.0
    metrics["controller.residual.us_per_req"] = metrics["sim.run_until.us_per_req"]
    for step in ("demote", "promote"):
        rows = [spans[f"storage.{step}_checkpoint"], spans[f"storage.{step}_table"]]
        metrics[f"storage.{step}.calls"] = sum(row["calls"] for row in rows)
        metrics[f"storage.{step}.us_per_req"] = sum(row["self_s"] for row in rows) * us_per_req
    base = untraced["sim"]
    metrics.update(
        {
            "sim.events": base["sim_events"],
            "sim.cancelled_events": base["sim_cancelled_events"],
            "sim.host_us_per_event": untraced["host"]["replay_s"] * 1e6 / base["sim_events"],
            "controller.evictions": base["evictions"],
            "controller.eviction_candidates_scanned": base["eviction_candidates_scanned"],
            "controller.sandboxes_created": base["sandboxes_created"],
            "agent.dedup.savings_frac": base["dedup_savings_frac"],
            "agent.base_page_cache.hit_ratio": base["base_page_cache_hit_ratio"],
            "agent.anchor_index_cache.hit_ratio": base["anchor_index_cache_hit_ratio"],
            "templates.promotions": base["template_promotions"],
            "templates.fork_fallbacks": base["template_fork_fallbacks"],
            "templates.pool_rejections": base["template_pool_rejections"],
            "faults.rpc_retries": base["rpc_retries"],
            "faults.retry_backoff_per_req": base["retry_backoff_ms"] / base["completed"],
            "faults.restore_cold_fallbacks": base["restore_cold_fallbacks"],
            "faults.dedup_deferrals": base["dedup_deferrals"],
            "tenancy.cross_domain_replica_skips": base["cross_domain_replica_skips"],
            "interconnect_mb_per_start": base["interconnect_mb_per_start"],
            "trace_overhead_frac": traced["host"]["replay_s"] / untraced["host"]["replay_s"]
            - 1.0,
        }
    )
    metrics.update({k: v for k, v in base.items() if k.startswith("phase.")})
    return metrics


def attribution_table(traced: dict) -> tuple[list[str], list[str]]:
    """Self time per span, reconciled to the traced replay time."""
    spans = traced["spans"]
    replay_s = traced["host"]["replay_s"]
    lines = [f"{'span':<38}{'calls':>9}{'self s':>10}{'share':>8}"]
    for name, row in sorted(spans.items(), key=lambda item: -item[1]["self_s"]):
        label = "controller.residual (sim.run_until)" if name == "sim.run_until" else name
        lines.append(
            f"{label:<38}{row['calls']:>9}{row['self_s']:>10.4f}"
            f"{100 * row['self_s'] / replay_s:>7.1f}%"
        )
    attributed = sum(row["self_s"] for row in spans.values())
    lines.append(f"{'sum of self times':<38}{'':>9}{attributed:>10.4f}")
    lines.append(f"{'traced replay (Platform.run)':<38}{'':>9}{replay_s:>10.4f}")
    problems = []
    root = spans["platform.run"]["total_s"]
    if abs(attributed - root) > 1e-6 * max(root, 1.0):
        problems.append(f"self times sum to {attributed} s, root span is {root} s")
    if not root <= replay_s:
        problems.append(f"root span {root} s longer than the timed replay {replay_s} s")
    return lines, problems


def measure_per_layer(workload: str, seed: int, deadline: float):
    """Untraced, traced and verified replays of part 0 of the seed's load."""
    from replay import pooled

    untraced = replay(workload, seed, 0, deadline=deadline)
    traced = replay(workload, seed, 0, deadline=deadline, traced=True)
    verified = replay(workload, seed, 0, deadline=deadline, verify=True)
    problems = check_replay(untraced) + check_replay(traced) + check_replay(verified)
    problems += check_same_sim(untraced, traced, "traced replay")
    problems += check_same_sim(untraced, verified, "verified replay")
    records = [untraced, traced, verified]
    if untraced["error"] or traced["error"]:
        return records, None, {}, problems
    lines, reconcile = attribution_table(traced)
    problems += reconcile
    print("\n".join(lines))
    metrics = per_layer(untraced, traced)
    print(
        f"trace overhead: traced {traced['host']['replay_s']:.3f} s / untraced "
        f"{untraced['host']['replay_s']:.3f} s - 1 = {metrics['trace_overhead_frac']:+.3f}"
    )
    print(
        "verified replay (verify_restores, verify_accounting): "
        f"{verified['host']['replay_s']:.3f} s"
    )
    return records, pooled([untraced["sim"]]), metrics, problems


# ------------------------------------------------------------------ main


def select(metrics: dict[str, float], specs: list[dict], correct: bool) -> dict[str, dict]:
    """The metrics ``specs`` names; an incorrect run reports what it has."""
    missing = [spec["name"] for spec in specs if spec["name"] not in metrics]
    if missing and correct:
        raise BenchError(f"no value for metrics {missing}")
    return {
        spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]}
        for spec in specs
        if spec["name"] in metrics
    }


def run(args: argparse.Namespace) -> int:
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no program sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    traced = args.trace == 1
    if traced:
        records, sim, metrics, problems = measure_per_layer(
            args.workload, args.seed, deadline
        )
        specs = spec["per_layer"]
    else:
        records, sim, metrics, problems = measure_end_to_end(
            args.workload, args.seed, args.seconds, deadline
        )
        specs = spec["end_to_end"]
    first = records[0]
    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": first["numpy"],
        "git_sha": git_sha(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "content_scale": first["content_scale"],
        "nodes": first["nodes"],
        "functions": first["functions"],
        "requests": sim["arrived"] if sim else 0,
        "replays": len(records),
    }
    print("env: " + json.dumps(env))
    if sim:
        print(
            f"tail percentile: p{sim['e2e_tail_pct']:g} over {sim['arrived']} requests "
            f"({sim['arrived'] * (100 - sim['e2e_tail_pct']) / 100:.0f} beyond it)"
        )
    selected = select(metrics, specs, correct=not problems)
    for spec_row in specs:
        if spec_row["name"] in selected:
            print(
                f"{spec_row['name']} = {selected[spec_row['name']]['value']:.6g} "
                f"{spec_row['unit']} ({spec_row['better']} is better)"
            )
    for problem in problems:
        print(f"INCORRECT: {problem}")
    # A replay that raised attempted its whole trace and finished none of it.
    attempted = sum(r["sim"]["arrived"] if r["sim"] else r["trace_requests"] for r in records)
    failed = sum(
        r["sim"]["arrived"] - r["sim"]["completed"] if r["sim"] else r["trace_requests"]
        for r in records
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": selected,
    }
    for record in records:
        if record["sim"]:
            record["sim"].pop("e2e_ms")
    out = RESULTS / args.workload
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    (out / f"seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(
            {"env": env, "result": result, "metrics": metrics, "sim": sim, "records": records},
            indent=1,
        )
        + "\n"
    )
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
