"""Timing cost model for sandbox operations.

Content operations (fingerprinting, patching) run on scaled-down images,
but all *reported* durations correspond to full-size sandboxes: per-page
costs are charged for ``num_pages / content_scale`` pages.  Constants
are calibrated against the paper's measured anchors:

* warm start ~10 ms (Section 1: 1-20 ms depending on runtime);
* registry lookup ~80 us/page — the paper's single-threaded controller
  measurement (Section 7.7: 130 ms for Vanilla's 4 K pages to 1850 ms
  for ModelTrain's 22 K pages);
* dedup op total 2-3.3 s (Section 7.7), dominated by lookups + patches;
* dedup-start memory restoration ~140 ms typical (Section 4.2), growing
  with pages fetched and with fingerprint cardinality (378 -> 554 ms in
  the Section 7.8 sweep).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Sequence


def pipelined_ms(stages: Sequence[float], batches: int) -> float:
    """Critical path of ``stages`` software-pipelined over ``batches``.

    With the op's pages split into ``batches`` equal batches and every
    stage free to work on a different batch concurrently (the parallel
    data plane's structure), the makespan is one batch through every
    stage (the ramp, ``sum/batches``) plus the bottleneck stage's
    remaining batches (``max * (batches-1)/batches``).  ``batches=1``
    degenerates to the serial sum.
    """
    if batches < 1:
        raise ValueError("batches must be positive")
    total = sum(stages)
    if batches == 1 or not stages:
        return total
    return total / batches + max(stages) * (batches - 1) / batches


@dataclass(frozen=True)
class ParallelConfig:
    """Shape of the parallel data plane's overlap cost model (DESIGN.md §10).

    With ``ClusterConfig.parallel_data_plane`` on, every dedup/restore
    op is charged as if its pages were split into ``batch_pages``-page
    batches whose stages software-pipeline, with the compute-bound
    stages divided across ``workers`` (see :class:`StageOverlap`).
    """

    workers: int = 1
    """Workers the compute-bound stages divide across."""

    batch_pages: int = 512
    """Full-scale pages per batch: the unit of pipelining and of
    registry round-trips (one grouped lookup per batch)."""

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.batch_pages <= 0:
            raise ValueError("batch_pages must be positive")


@dataclass(frozen=True)
class StageOverlap:
    """How a dedup/restore op's stages overlap (parallel data plane).

    ``workers`` divides the compute-bound stages (fingerprint, patch
    compute/apply); the registry round-trip and the base-page fabric
    reads are I/O against shared services and do not scale with local
    workers.  ``batches`` is how many page batches the op was split
    into — the software-pipelining depth of the timing model.
    """

    workers: int
    batches: int

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.batches < 1:
            raise ValueError("batches must be positive")


@dataclass(frozen=True)
class CostModel:
    """Durations (ms / us) of the platform's mechanical steps."""

    warm_start_ms: float = 10.0
    """Unpausing a warm sandbox."""

    checkpoint_fixed_ms: float = 900.0
    """Fixed cost of a memory checkpoint (runtime freeze, dump setup,
    namespace/process-tree pre-restore done eagerly at dedup time so
    restores stay fast, Section 4.2)."""

    checkpoint_us_per_page: float = 3.0
    """Per-page cost of capturing the memory dump."""

    fingerprint_us_per_page: float = 8.0
    """Value-sampling scan + 5 chunk hashes per page."""

    lookup_us_per_page: float = 70.0
    """Controller fingerprint-registry lookup, per page (Section 7.7)."""

    lookup_rpc_us: float = 50.0
    """Round-trip/marshalling share of ``lookup_us_per_page``: the part
    a batched registry front end pays once per *batch* instead of once
    per page (Section 4.3 batches registry traffic for exactly this
    reason).  The remainder (``lookup_us_per_page - lookup_rpc_us``) is
    per-page table work, paid either way."""

    patch_compute_us_per_page: float = 40.0
    """Xdelta-style patch computation per deduplicated page."""

    patch_apply_us_per_page: float = 8.0
    """Patch application (original page computing) during restore."""

    restore_fixed_ms: float = 40.0
    """Final checkpoint-resume cost (memory-state load + unfreeze); the
    expensive namespace/fork work was done at dedup time."""

    base_register_us_per_page: float = 50.0
    """Inserting one base page's sampled chunks into the registry."""

    spawn_placement_ms: float = 2.0
    """Controller/daemon overhead of placing any start."""

    def checkpoint_ms(self, full_pages: int) -> float:
        """Duration of a full memory checkpoint of ``full_pages`` pages."""
        return self.checkpoint_fixed_ms + full_pages * self.checkpoint_us_per_page / 1e3

    def fingerprint_ms(self, full_pages: int) -> float:
        return full_pages * self.fingerprint_us_per_page / 1e3

    def lookup_ms(self, full_pages: int) -> float:
        return full_pages * self.lookup_us_per_page / 1e3

    def lookup_batched_ms(self, full_pages: int, batches: int) -> float:
        """Registry lookup with per-batch (not per-page) round-trips.

        Charges the RPC/marshalling share once per batch and the table
        work per page.  ``batches >= full_pages`` degenerates to
        :meth:`lookup_ms` (one round-trip per page); ``batches`` is
        clamped so a sparse op is never charged more than the serial
        model.
        """
        if batches < 1:
            raise ValueError("batches must be positive")
        batches = min(batches, full_pages) or 1
        table_us = self.lookup_us_per_page - self.lookup_rpc_us
        return (batches * self.lookup_rpc_us + full_pages * table_us) / 1e3

    def patch_compute_ms(self, full_pages: int) -> float:
        return full_pages * self.patch_compute_us_per_page / 1e3

    def patch_apply_ms(self, full_pages: int) -> float:
        return full_pages * self.patch_apply_us_per_page / 1e3

    def register_ms(self, full_pages: int) -> float:
        return full_pages * self.base_register_us_per_page / 1e3

    def with_measured_fingerprint(self, **kwargs) -> "CostModel":
        """This model with ``fingerprint_us_per_page`` measured, not assumed.

        Runs :func:`measure_fingerprint_us_per_page` on this machine and
        returns a copy carrying the result, so simulated dedup-op timings
        track the actual batch kernel rather than the paper-era default.
        Opt-in: the default constants stay fixed for reproducibility.
        """
        return replace(
            self, fingerprint_us_per_page=measure_fingerprint_us_per_page(**kwargs)
        )


def measure_fingerprint_us_per_page(
    page_size: int = 4096,
    pages: int = 2048,
    config=None,
    repeats: int = 3,
) -> float:
    """Measured per-page cost (us) of the batch fingerprint kernel.

    Times :func:`~repro.memory.fingerprint.batch_page_fingerprints` over
    a deterministic pseudo-random buffer (min over ``repeats``) — the
    calibration source for :attr:`CostModel.fingerprint_us_per_page`.
    Imports lazily so the cost model stays importable without numpy
    workloads in play.
    """
    import numpy as np

    from repro._util import rng_for
    from repro.memory.fingerprint import batch_page_fingerprints

    if pages <= 0:
        raise ValueError("pages must be positive")
    rng = rng_for("fingerprint-calibration", page_size, pages)
    data = rng.integers(0, 256, size=page_size * pages, dtype=np.uint8)
    batch_page_fingerprints(data, page_size, config)  # warm up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        batch_page_fingerprints(data, page_size, config)
        best = min(best, time.perf_counter() - t0)
    return best / pages * 1e6
