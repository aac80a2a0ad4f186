"""Scaling curve of the overlap cost model (workers × profiles).

For each (profile, workers) cell this benchmark runs the dedup op on
byte-identical sandbox images through two agents over one store and
registry: a plain agent, charged the serial stage sum, and one built
with ``overlap_costs`` (DESIGN.md §10), charged the stage-overlap
model.  It records into ``BENCH_parallel_dedup.json``:

* ``model_*`` — the full-scale data-plane time each agent charges for
  the same ops, checkpoint prologue excluded from both since the model
  does not parallelize the runtime freeze.  This is what the simulator
  charges under ``ClusterConfig.parallel_data_plane`` and what Medes'
  offloaded hashing + batched registry traffic (Section 4.3) buys: the
  registry round-trip collapses from one RPC per page to one per batch,
  and the fingerprint / patch stages divide across workers while
  lookups and base reads pipeline behind them.

Nothing here is timed: every number is simulated, so the artifact is
the same on any machine.  That both agents build identical page tables
is pinned by ``tests/core/test_agent.py``.

Run standalone for the full matrix::

    PYTHONPATH=src python benchmarks/bench_parallel_dedup.py

``--smoke`` runs the reduced CI configuration (also exercised by the
pytest smoke test below).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform

from benchmarks.conftest import write_result
from repro.analysis.tables import render_table
from repro.core.agent import DedupAgent
from repro.core.costs import CostModel, ParallelConfig
from repro.core.registry import FingerprintRegistry, PageRef
from repro.memory.fingerprint import FingerprintConfig, image_fingerprints
from repro.sandbox.checkpoint import BaseCheckpoint, CheckpointStore
from repro.sandbox.sandbox import Sandbox
from repro.sim.network import RdmaFabric
from repro.workload.functionbench import FunctionBenchSuite

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_JSON = REPO_ROOT / "BENCH_parallel_dedup.json"

DEFAULT_PROFILES = ("Vanilla", "LinAlg", "ImagePro")
DEFAULT_WORKERS = (1, 2, 4, 8)
DEFAULT_SCALE_DENOM = 16
DEFAULT_OPS = 3
#: Model batch size: small enough that even scaled images split into
#: several batches, so the modelled pipeline actually pipelines.
BATCH_PAGES = 64


def _make_agents(
    profile, profile_name: str, scale: float, overlap: ParallelConfig
) -> tuple[DedupAgent, DedupAgent]:
    """An (overlap-charged, serial) agent pair over one store/registry."""
    cfg = FingerprintConfig()
    store = CheckpointStore()
    registry = FingerprintRegistry(cfg)
    fabric = RdmaFabric()

    def make(overlap_costs: ParallelConfig | None) -> DedupAgent:
        return DedupAgent(
            0,
            registry=registry,
            store=store,
            fabric=fabric,
            costs=CostModel(),
            content_scale=scale,
            fingerprint_config=cfg,
            overlap_costs=overlap_costs,
        )

    base_image = profile.synthesize(100, content_scale=scale, executed=True)
    checkpoint = BaseCheckpoint(
        function=profile_name,
        node_id=1,
        image=base_image,
        owner_sandbox_id=1,
        full_size_bytes=profile.memory_bytes,
    )
    store.add(checkpoint)
    for index, fp in enumerate(image_fingerprints(base_image, cfg)):
        registry.register_page(PageRef(checkpoint.checkpoint_id, 1, index), fp)
    return make(overlap), make(None)


def run_config(
    suite, profile_name: str, *, workers: int, scale: float, ops: int
) -> dict:
    """Modelled overlap-vs-serial data-plane time of ``ops`` dedup ops."""
    profile = suite.get(profile_name)

    def make_sandbox(seed: int) -> Sandbox:
        sandbox = Sandbox(profile=profile, node_id=0, instance_seed=seed, created_at=0.0)
        sandbox.image = profile.synthesize(
            seed, content_scale=scale, aslr=False, executed=True
        )
        return sandbox

    overlapped, serial = _make_agents(
        profile,
        profile_name,
        scale,
        ParallelConfig(workers=workers, batch_pages=BATCH_PAGES),
    )
    pages = full_pages = 0
    model_par_ms = model_ser_ms = 0.0
    for k in range(ops):
        t_par = overlapped.dedup(make_sandbox(300 + k)).timings
        outcome_ser = serial.dedup(make_sandbox(300 + k))
        pages += len(outcome_ser.table.entries)
        full_pages += serial._full_pages(len(outcome_ser.table.entries))
        # Modeled full-scale data-plane time of this op (checkpoint
        # freeze excluded from both sides: it is serial either way).
        t_ser = outcome_ser.timings
        model_par_ms += t_par.total_ms - t_par.checkpoint_ms
        model_ser_ms += t_ser.total_ms - t_ser.checkpoint_ms
    return {
        "profile": profile_name,
        "workers": workers,
        "pages": pages,
        "model_parallel_dataplane_ms": round(model_par_ms, 2),
        "model_serial_dataplane_ms": round(model_ser_ms, 2),
        "model_parallel_pages_per_s": round(full_pages / (model_par_ms / 1e3), 1),
        "model_serial_pages_per_s": round(full_pages / (model_ser_ms / 1e3), 1),
        "model_speedup": round(model_ser_ms / model_par_ms, 3),
    }


def run_matrix(
    profiles=DEFAULT_PROFILES,
    workers=DEFAULT_WORKERS,
    scale_denom: int = DEFAULT_SCALE_DENOM,
    ops: int = DEFAULT_OPS,
) -> dict:
    suite = FunctionBenchSuite.default()
    scale = 1.0 / scale_denom
    results = [
        run_config(suite, name, workers=w, scale=scale, ops=ops)
        for name in profiles
        for w in workers
    ]
    headline = [r for r in results if r["workers"] == 4] or results
    return {
        "benchmark": "parallel_dedup",
        "units": "pages/sec of the dedup op: the overlap cost model's "
        "full-scale data-plane time (checkpoint freeze excluded)",
        "headline": "model_speedup: the stage-overlap model vs the serial "
        "stage-sum — what the parallel data plane buys a deployment with "
        "the cores to run it (simulated; nothing is timed)",
        "config": {
            "content_scale": f"1/{scale_denom}",
            "batch_pages": BATCH_PAGES,
            "ops_per_config": ops,
            "python": platform.python_version(),
        },
        "results": results,
        "summary": {
            "model_speedup_at_workers4": {
                r["profile"]: r["model_speedup"] for r in headline
            },
        },
    }


def _render(report: dict) -> str:
    rows = [
        [
            r["profile"],
            str(r["workers"]),
            f"{r['model_serial_pages_per_s']:,.0f}",
            f"{r['model_parallel_pages_per_s']:,.0f}",
            f"{r['model_speedup']:.2f}x",
        ]
        for r in report["results"]
    ]
    return render_table(
        ["function", "workers", "serial p/s", "overlap p/s", "model x"],
        rows,
        title="Parallel dedup data plane (overlap cost model, full-scale)",
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profiles", default=",".join(DEFAULT_PROFILES))
    parser.add_argument("--workers", default=",".join(map(str, DEFAULT_WORKERS)))
    parser.add_argument("--scale-denom", type=int, default=DEFAULT_SCALE_DENOM)
    parser.add_argument("--ops", type=int, default=DEFAULT_OPS)
    parser.add_argument(
        "--smoke", action="store_true", help="reduced CI configuration"
    )
    args = parser.parse_args(argv)
    if args.smoke:
        report = run_matrix(
            profiles=("Vanilla", "LinAlg"), workers=(1, 4), scale_denom=64, ops=2
        )
    else:
        report = run_matrix(
            profiles=tuple(args.profiles.split(",")),
            workers=tuple(int(x) for x in args.workers.split(",")),
            scale_denom=args.scale_denom,
            ops=args.ops,
        )
    OUTPUT_JSON.write_text(json.dumps(report, indent=2) + "\n")
    text = _render(report)
    write_result("parallel_dedup", text)
    print(text)
    print(f"\nwrote {OUTPUT_JSON}")


def test_parallel_dedup_smoke():
    """Reduced matrix: the overlap model wins at 4 workers."""
    report = run_matrix(
        profiles=("Vanilla", "LinAlg"), workers=(1, 4), scale_denom=64, ops=2
    )
    at4 = [r for r in report["results"] if r["workers"] == 4]
    assert len(at4) >= 2
    for r in at4:
        # The acceptance bar: >=2.5x modeled data-plane pages/s on at
        # least two profiles (here: on every profile in the matrix).
        assert r["model_speedup"] >= 2.5, r
    for r in report["results"]:
        assert r["model_parallel_pages_per_s"] > r["model_serial_pages_per_s"]


if __name__ == "__main__":
    main()
