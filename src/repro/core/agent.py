"""The per-node dedup agent: dedup op and restore op (Sections 4.1-4.2).

The **dedup op** converts a warm sandbox into the dedup state: it
checkpoints the memory image, computes a value-sampled fingerprint per
page, asks the controller's fingerprint registry for candidate base
pages, picks the best base per page, and computes an xdelta-style patch
against it.  Pages with no useful base stay resident as *unique* pages;
zero pages collapse to a marker.  The resulting
:class:`DedupPageTable` — patches, unique pages and base-page addresses —
is all that remains in memory, and it is stored *locally* on the
sandbox's node so restores never touch the controller (Section 4.2).

Two implementations of the dedup op exist.  :meth:`DedupAgent.dedup` is
the **batched pipeline**: zero pages are classified with one vectorized
reduction, one marker scan fingerprints the whole image, one registry
round-trip (``choose_base_pages``) serves every page, and base-page
fetches are grouped by checkpoint through a per-agent LRU cache of
decoded base pages (the same base pages are re-read constantly across
ops on a node).  :meth:`DedupAgent.dedup_reference` is the page-at-a-time
reference implementation; property tests assert both produce identical
page tables, and ``benchmarks/bench_dedup_throughput.py`` tracks the
pages/sec gap.

The **restore op** reverses it: base pages are fetched (one-sided RDMA
for remote ones, batched per peer), patches are applied to recompute the
original pages, and the checkpoint is resumed.  The returned image is
byte-identical to the pre-dedup image — tests assert this.

All durations are charged at full-sandbox scale even though the content
operations run on scaled images (see the cost model's docstring).
"""

from __future__ import annotations

import enum
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro._util import LruCache
from repro.core.costs import CostModel, ParallelConfig, StageOverlap, pipelined_ms
from repro.core.registry import FingerprintRegistry, PageRef
from repro.faults.health import RegistryUnavailable
from repro.faults.retry import RetryExhausted, RetryPolicy, TransientFaults
from repro.memory.fingerprint import (
    FingerprintConfig,
    batch_page_fingerprints,
    nonzero_page_mask,
    page_fingerprint,
)
from repro.memory.image import MemoryImage
from repro.memory.patch import (
    AnchorIndex,
    Patch,
    apply_patch,
    build_anchor_index,
    compute_patch_reference,
    compute_patches,
)
from repro.sandbox.checkpoint import BaseCheckpoint, CheckpointStore
from repro.sandbox.sandbox import Sandbox
from repro.sim.network import RdmaFabric
from repro.storage.prefetch import WorkingSetRecorder
from repro.storage.store import TieredCheckpointStore
from repro.storage.tiers import StorageTier
from repro.templates.catalog import TemplateCatalog
from repro.templates.delta import (
    TemplateDeltaTable,
    build_delta_table,
    reconstruct_image,
)

#: Full-scale metadata bytes per page entry of a dedup table (base page
#: address + patch descriptor), part of the dedup footprint.
METADATA_BYTES_PER_PAGE = 40

#: A patch larger than this fraction of the page is not worth keeping;
#: the page is stored unique instead.
UNIQUE_THRESHOLD = 0.75

#: Default capacity (in pages) of the per-agent LRU cache of decoded
#: base pages.  4096 entries of 4 KiB pages bound the cache at 16 MiB
#: full-scale — small next to one sandbox, decisive for dedup
#: throughput because base pages repeat across ops on a node.
BASE_PAGE_CACHE_PAGES = 4096

#: Default capacity of the per-agent LRU cache of prebuilt anchor
#: indexes.  Building the index is the expensive half of anchor-matching
#: a page against its base, and the same hot base pages are patched
#: against over and over across dedup ops on a node.
ANCHOR_INDEX_CACHE_PAGES = 1024


class PageKind(enum.Enum):
    """Disposition of one page after the dedup op."""

    ZERO = "zero"
    UNIQUE = "unique"
    PATCHED = "patched"


@dataclass(frozen=True)
class PageEntry:
    """One page's dedup record."""

    kind: PageKind
    base: PageRef | None = None
    patch: Patch | None = None
    raw: bytes | None = None

    def retained_bytes(self) -> int:
        """Scaled content bytes this entry keeps resident."""
        if self.kind is PageKind.ZERO:
            return 0
        if self.kind is PageKind.UNIQUE:
            assert self.raw is not None
            return len(self.raw)
        assert self.patch is not None
        return self.patch.size_bytes


@dataclass(frozen=True)
class DedupStats:
    """Per-dedup-op accounting (drives Table 3 and Section 7.3.1)."""

    total_pages: int
    zero_pages: int
    unique_pages: int
    patched_pages: int
    same_function_pages: int
    cross_function_pages: int
    saved_content_bytes: int
    image_content_bytes: int

    @property
    def savings_fraction(self) -> float:
        """Fraction of the image's bytes eliminated by deduplication."""
        if self.image_content_bytes == 0:
            return 0.0
        return self.saved_content_bytes / self.image_content_bytes


@dataclass
class DedupPageTable:
    """The resident representation of a deduplicated sandbox.

    Also records everything needed to rebuild the original
    :class:`MemoryImage` (its metadata fields), so restores reconstruct
    a byte-identical image.
    """

    function: str
    instance_seed: int
    page_size: int
    content_scale: float
    aslr: bool
    regions: tuple
    entries: tuple[PageEntry, ...]
    original_checksum: str
    full_size_bytes: int
    stats: DedupStats
    base_refs: Counter[int] = field(default_factory=Counter)
    """checkpoint_id -> number of page references (refcount holdings)."""
    _retained_content_bytes: int | None = field(default=None, repr=False)

    @property
    def retained_content_bytes(self) -> int:
        """Scaled bytes resident (patches + unique pages), cached —
        node accounting queries this on every placement decision."""
        if self._retained_content_bytes is None:
            self._retained_content_bytes = sum(
                entry.retained_bytes() for entry in self.entries
            )
        return self._retained_content_bytes

    @property
    def retained_full_bytes(self) -> int:
        """Full-scale memory charge of the dedup sandbox."""
        full_pages = max(1, round(len(self.entries) / self.content_scale))
        metadata = full_pages * METADATA_BYTES_PER_PAGE
        return int(self.retained_content_bytes / self.content_scale) + metadata


@dataclass(frozen=True)
class DedupTimings:
    """Phase durations of one dedup op (full-scale ms).

    With stage-overlap accounting (``overlap`` set — the parallel data
    plane's timing model, DESIGN.md §10), the post-checkpoint stages are
    software-pipelined over the op's batches: fingerprinting and patch
    compute divide across the workers, the registry round-trips and the
    fabric reads of base pages do not, and the total charges the
    pipeline's critical path instead of the stage sum.  The checkpoint
    (runtime freeze + dump) stays a serial prologue — it cannot overlap
    work on pages that do not exist yet.
    """

    checkpoint_ms: float
    fingerprint_ms: float
    lookup_ms: float
    base_read_ms: float
    patch_ms: float
    overlap: StageOverlap | None = None
    retry_ms: float = 0.0
    """Transient-RPC timeout/backoff latency (serial prologue; fault
    layer only — zero otherwise)."""
    retries: int = 0

    @property
    def total_ms(self) -> float:
        if self.overlap is None:
            return (
                self.checkpoint_ms
                + self.fingerprint_ms
                + self.lookup_ms
                + self.base_read_ms
                + self.patch_ms
                + self.retry_ms
            )
        stages = (
            self.fingerprint_ms / self.overlap.workers,
            self.lookup_ms,
            self.base_read_ms,
            self.patch_ms / self.overlap.workers,
        )
        return self.checkpoint_ms + self.retry_ms + pipelined_ms(
            stages, self.overlap.batches
        )


@dataclass(frozen=True)
class DedupOutcome:
    table: DedupPageTable
    timings: DedupTimings


@dataclass(frozen=True)
class RestoreTimings:
    """Phase durations of one restore op — the Figure 8 breakdown.

    With checkpoint tiering, a recorded-working-set restore issues its
    base reads as one prefetch that overlaps patch application, so the
    total charges ``max(base_read, compute)`` plus a serial demand-miss
    read; first-touch restores keep the serial sum.
    """

    base_read_ms: float
    """'Dedup: base page reading'."""
    compute_ms: float
    """'Dedup: original page computing' (patch application)."""
    restore_ms: float
    """'Dedup: sandbox restoration' (checkpoint resume)."""
    prefetched: bool = False
    """Base reads overlapped compute (recorded working set)."""
    miss_read_ms: float = 0.0
    """Serial read of pages the recorded working set lacked."""
    prefetch_hit_pages: int = 0
    prefetch_miss_pages: int = 0
    overlap: StageOverlap | None = None
    """Stage-overlap accounting (parallel data plane): patch apply
    divides across workers and pipelines against the base reads."""
    retry_ms: float = 0.0
    """Transient-RPC timeout/backoff latency (serial prologue; fault
    layer only — zero otherwise)."""
    retries: int = 0

    @property
    def total_ms(self) -> float:
        compute_ms = self.compute_ms
        if self.overlap is not None:
            compute_ms /= self.overlap.workers
        if self.prefetched:
            # Recorded-working-set restores already overlap the one
            # batched prefetch with compute; overlap only divides the
            # compute side further.
            fetch = max(self.base_read_ms, compute_ms) + self.miss_read_ms
        elif self.overlap is not None:
            fetch = (
                pipelined_ms((self.base_read_ms, compute_ms), self.overlap.batches)
                + self.miss_read_ms
            )
        else:
            fetch = self.base_read_ms + compute_ms
        return fetch + self.restore_ms + self.retry_ms


@dataclass(frozen=True)
class RestoreOutcome:
    image: MemoryImage
    timings: RestoreTimings


@dataclass(frozen=True)
class TemplatizeOutcome:
    """Result of parking a sandbox as a template delta (DESIGN.md §14)."""

    table: TemplateDeltaTable
    duration_ms: float
    publish_ms: float
    """Charged pool write for newly published segments (0.0 on hits)."""
    segments_created: int
    segments_shared: int
    """Shareable regions served by already-published segments."""
    published_bytes: int
    retry_ms: float = 0.0
    retries: int = 0


@dataclass(frozen=True)
class ForkTimings:
    """Phase durations of one template fork (full-scale ms)."""

    promote_ms: float
    """Pool read materializing missing node replicas (0.0 once warm)."""
    apply_ms: float
    """Delta application over the replicas (patches + literal pages)."""
    restore_ms: float
    """Checkpoint resume (same fixed cost as a dedup restore)."""
    retry_ms: float = 0.0
    """Transient-RPC timeout/backoff latency on the promote read."""
    retries: int = 0

    @property
    def total_ms(self) -> float:
        return self.promote_ms + self.apply_ms + self.restore_ms + self.retry_ms


@dataclass(frozen=True)
class ForkOutcome:
    image: MemoryImage
    timings: ForkTimings
    promoted: tuple
    """Segments whose replica this fork created on the node (the
    controller pins their DRAM charge)."""
    promoted_bytes: int


class DedupAgent:
    """The dedup/restore executor of one node."""

    def __init__(
        self,
        node_id: int,
        *,
        registry: FingerprintRegistry,
        store: CheckpointStore,
        fabric: RdmaFabric,
        costs: CostModel,
        content_scale: float,
        fingerprint_config: FingerprintConfig | None = None,
        patch_level: int = 1,
        unique_threshold: float = UNIQUE_THRESHOLD,
        base_page_cache_pages: int = BASE_PAGE_CACHE_PAGES,
        anchor_index_cache_pages: int = ANCHOR_INDEX_CACHE_PAGES,
        recorder: WorkingSetRecorder | None = None,
        overlap_costs: ParallelConfig | None = None,
        transients: TransientFaults | None = None,
        templates: TemplateCatalog | None = None,
    ):
        if not 0 < content_scale <= 1:
            raise ValueError("content_scale must be in (0, 1]")
        self.node_id = node_id
        self.registry = registry
        self.store = store
        self.fabric = fabric
        self.costs = costs
        self.content_scale = content_scale
        self.recorder = recorder
        """Restore working-set recorder, shared cluster-wide (tiering
        with prefetch only; None disables recording)."""
        self.fingerprint_config = fingerprint_config or FingerprintConfig()
        self.patch_level = patch_level
        self.unique_threshold = unique_threshold
        self.overlap_costs = overlap_costs
        """Charge dedup/restore timings with stage-overlap accounting
        for this parallel shape (None = serial stage sums)."""
        self.transients = transients or TransientFaults(0.0, RetryPolicy(), seed=0)
        """Seeded transient-RPC failure model (fault layer; the default
        never fails).  Registry lookups and remote base-page fetches draw
        a retry plan from it, charge the timeout/backoff latency into the
        op's timings, and surface :class:`RegistryUnavailable` /
        :class:`RetryExhausted` when every attempt fails."""
        self.templates = templates
        """Cluster-wide template catalog (DESIGN.md §14; None unless
        ``template_sharing`` is on)."""
        self.dedup_ops = 0
        self.restore_ops = 0
        self.templatize_ops = 0
        self.fork_ops = 0
        # Decoded base pages keyed by (checkpoint_id, page_index).
        # Checkpoint ids are never reused, so a retired checkpoint's
        # entries can only waste capacity until LRU evicts them — they
        # can never serve stale content.
        self.base_page_cache: LruCache[tuple[int, int], bytes] = LruCache(
            base_page_cache_pages
        )
        # Prebuilt anchor indexes keyed by (checkpoint_id, page_index);
        # same staleness argument as the page cache above.
        self.anchor_index_cache: LruCache[tuple[int, int], AnchorIndex] = LruCache(
            anchor_index_cache_pages
        )

    # ---------------------------------------------------------------- dedup

    def _full_pages(self, pages: int) -> int:
        return max(1, round(pages / self.content_scale))

    def _base_page_bytes(self, checkpoint: BaseCheckpoint, page_index: int) -> bytes:
        """A base page's content through the per-agent LRU cache."""
        key = (checkpoint.checkpoint_id, page_index)
        cached = self.base_page_cache.get(key)
        if cached is None:
            cached = checkpoint.page_bytes(page_index)
            self.base_page_cache.put(key, cached)
        return cached

    def dedup(self, sandbox: Sandbox) -> DedupOutcome:
        """Run the dedup op on a warm sandbox's image (batched pipeline).

        One vectorized pass classifies zero pages, one marker scan
        fingerprints every nonzero page, one registry round-trip picks
        every base page, and base-page fetches are grouped by checkpoint
        through the agent's LRU cache.  Produces a page table identical
        to :meth:`dedup_reference` (property-tested).

        Side effects: acquires refcounts on every base checkpoint the new
        page table references.  The caller (controller) is responsible
        for swapping the sandbox's image for the returned table and for
        the corresponding lifecycle transitions.
        """
        image = sandbox.image
        if image is None:
            raise RuntimeError(f"sandbox {sandbox.sandbox_id} has no image to dedup")

        page_size = image.page_size
        data = image.data
        unique_cap = int(self.unique_threshold * page_size)
        base_refs: Counter[int] = Counter()
        reads_by_peer: Counter[int] = Counter()
        unique_pages = patched_pages = 0
        same_fn = cross_fn = 0

        nonzero = nonzero_page_mask(data, page_size)
        nonzero_indices = np.flatnonzero(nonzero)
        zero_pages = image.num_pages - int(nonzero_indices.size)
        saved = zero_pages * page_size
        zero_entry = PageEntry(kind=PageKind.ZERO)
        entries: list[PageEntry | None] = [
            None if nz else zero_entry for nz in nonzero
        ]

        def keep_unique(index: int) -> None:
            nonlocal unique_pages
            start = index * page_size
            entries[index] = PageEntry(
                kind=PageKind.UNIQUE, raw=data[start : start + page_size].tobytes()
            )
            unique_pages += 1

        fingerprints = batch_page_fingerprints(
            data, page_size, self.fingerprint_config, pages=nonzero_indices
        )
        choices = self.registry.choose_base_pages(
            fingerprints, self.node_id, sandbox.domain
        )

        # Classify pages, deferring base-page content to a grouped fetch.
        chosen: list[tuple[int, PageRef]] = []
        for index, choice in zip(nonzero_indices.tolist(), choices):
            if choice is None:
                keep_unique(index)
                continue
            ref, _overlap = choice
            if ref.node_id != self.node_id and not self.fabric.peer_available(ref.node_id):
                # The base's node is unreachable: keep the page unique
                # rather than depend on state we cannot read back.
                keep_unique(index)
                continue
            reads_by_peer[ref.node_id] += 1
            chosen.append((index, ref))

        # One checkpoint resolution per distinct base checkpoint; page
        # content flows through the LRU cache.
        by_checkpoint: dict[int, list[tuple[int, PageRef]]] = defaultdict(list)
        for index, ref in chosen:
            by_checkpoint[ref.checkpoint_id].append((index, ref))
        base_pages: dict[int, bytes] = {}
        checkpoint_functions: dict[int, str] = {}
        for checkpoint_id, group in by_checkpoint.items():
            checkpoint = self.store.get(checkpoint_id)
            checkpoint_functions[checkpoint_id] = checkpoint.function
            base_pages.update(
                (index, self._base_page_bytes(checkpoint, ref.page_index))
                for index, ref in group
            )

        # Patch every chosen page in one batched pass: the aligned diff
        # runs as a single 2-D numpy operation over the whole batch, and
        # pages falling back to anchor matching reuse cached base-page
        # anchor indexes (built lazily, only when a fallback needs one).
        targets = [
            data[index * page_size : (index + 1) * page_size] for index, _ in chosen
        ]
        bases = [base_pages[index] for index, _ in chosen]

        def anchor_index_for(j: int) -> AnchorIndex:
            ref = chosen[j][1]
            key = (ref.checkpoint_id, ref.page_index)
            cached = self.anchor_index_cache.get(key)
            if cached is None:
                cached = build_anchor_index(bases[j], self.patch_level)
                self.anchor_index_cache.put(key, cached)
            return cached

        patches = compute_patches(
            targets, bases, level=self.patch_level, index_provider=anchor_index_for
        )
        for (index, ref), patch in zip(chosen, patches):
            if patch.size_bytes >= unique_cap:
                keep_unique(index)
                continue
            entries[index] = PageEntry(kind=PageKind.PATCHED, base=ref, patch=patch)
            patched_pages += 1
            saved += page_size - patch.size_bytes
            base_refs[ref.checkpoint_id] += 1
            if checkpoint_functions[ref.checkpoint_id] == sandbox.function:
                same_fn += 1
            else:
                cross_fn += 1

        assert all(entry is not None for entry in entries)
        return self._finish_dedup(
            sandbox,
            image,
            entries,  # type: ignore[arg-type]
            base_refs=base_refs,
            reads_by_peer=reads_by_peer,
            zero_pages=zero_pages,
            unique_pages=unique_pages,
            patched_pages=patched_pages,
            same_fn=same_fn,
            cross_fn=cross_fn,
            saved=saved,
        )

    def dedup_reference(self, sandbox: Sandbox) -> DedupOutcome:
        """The page-at-a-time dedup op (reference implementation).

        Semantically identical to :meth:`dedup` — per-page fingerprints,
        per-page registry calls, per-page base fetches straight from the
        store — kept as the ground truth the batched pipeline is
        property-tested against, and as the benchmark baseline.
        """
        image = sandbox.image
        if image is None:
            raise RuntimeError(f"sandbox {sandbox.sandbox_id} has no image to dedup")

        page_size = image.page_size
        unique_cap = int(self.unique_threshold * page_size)
        entries: list[PageEntry] = []
        base_refs: Counter[int] = Counter()
        reads_by_peer: Counter[int] = Counter()
        zero_pages = unique_pages = patched_pages = 0
        same_fn = cross_fn = 0
        saved = 0

        for index in range(image.num_pages):
            page = image.page(index)
            if not page.any():
                entries.append(PageEntry(kind=PageKind.ZERO))
                zero_pages += 1
                saved += page_size
                continue
            fingerprint = page_fingerprint(page, self.fingerprint_config)
            choice = self.registry.choose_base_page(
                fingerprint, self.node_id, sandbox.domain
            )
            if choice is None:
                entries.append(PageEntry(kind=PageKind.UNIQUE, raw=page.tobytes()))
                unique_pages += 1
                continue
            ref, _overlap = choice
            if ref.node_id != self.node_id and not self.fabric.peer_available(ref.node_id):
                # The base's node is unreachable: keep the page unique
                # rather than depend on state we cannot read back.
                entries.append(PageEntry(kind=PageKind.UNIQUE, raw=page.tobytes()))
                unique_pages += 1
                continue
            reads_by_peer[ref.node_id] += 1
            base_page = self.store.get(ref.checkpoint_id).page_bytes(ref.page_index)
            patch = compute_patch_reference(page, base_page, level=self.patch_level)
            if patch.size_bytes >= unique_cap:
                entries.append(PageEntry(kind=PageKind.UNIQUE, raw=page.tobytes()))
                unique_pages += 1
                continue
            entries.append(PageEntry(kind=PageKind.PATCHED, base=ref, patch=patch))
            patched_pages += 1
            saved += page_size - patch.size_bytes
            base_refs[ref.checkpoint_id] += 1
            if self.store.get(ref.checkpoint_id).function == sandbox.function:
                same_fn += 1
            else:
                cross_fn += 1

        return self._finish_dedup(
            sandbox,
            image,
            entries,
            base_refs=base_refs,
            reads_by_peer=reads_by_peer,
            zero_pages=zero_pages,
            unique_pages=unique_pages,
            patched_pages=patched_pages,
            same_fn=same_fn,
            cross_fn=cross_fn,
            saved=saved,
        )

    def _finish_dedup(
        self,
        sandbox: Sandbox,
        image: MemoryImage,
        entries: list[PageEntry],
        *,
        base_refs: Counter[int],
        reads_by_peer: Counter[int],
        zero_pages: int,
        unique_pages: int,
        patched_pages: int,
        same_fn: int,
        cross_fn: int,
        saved: int,
    ) -> DedupOutcome:
        """Shared tail of both dedup paths: refcounts, table, timings."""
        # Resolve the registry RPC's transient-fault plan BEFORE touching
        # refcounts: an exhausted op must leave no state behind.
        plan = self.transients.plan("registry-lookup")
        if not plan.succeeded:
            raise RegistryUnavailable(
                f"registry lookup for sandbox {sandbox.sandbox_id}: "
                f"all {plan.attempts} attempts timed out"
            )
        for checkpoint_id, count in base_refs.items():
            self.store.get(checkpoint_id).acquire(count)

        stats = DedupStats(
            total_pages=image.num_pages,
            zero_pages=zero_pages,
            unique_pages=unique_pages,
            patched_pages=patched_pages,
            same_function_pages=same_fn,
            cross_function_pages=cross_fn,
            saved_content_bytes=saved,
            image_content_bytes=image.nbytes,
        )
        table = DedupPageTable(
            function=sandbox.function,
            instance_seed=image.instance_seed,
            page_size=image.page_size,
            content_scale=self.content_scale,
            aslr=image.aslr,
            regions=image.regions,
            entries=tuple(entries),
            original_checksum=image.checksum(),
            full_size_bytes=sandbox.profile.memory_bytes,
            stats=stats,
            base_refs=base_refs,
        )

        full_pages = self._full_pages(image.num_pages)
        scale_up = full_pages / max(1, image.num_pages)
        read_plan = {
            peer: (int(count * scale_up), int(count * scale_up) * image.page_size)
            for peer, count in reads_by_peer.items()
        }
        overlap = self._stage_overlap(full_pages)
        if overlap is None:
            lookup_ms = self.costs.lookup_ms(full_pages)
        else:
            # Batched registry front end: one RPC per batch, table work
            # per page (Section 4.3's batched registry traffic).
            lookup_ms = self.costs.lookup_batched_ms(full_pages, overlap.batches)
        timings = DedupTimings(
            checkpoint_ms=self.costs.checkpoint_ms(full_pages),
            fingerprint_ms=self.costs.fingerprint_ms(full_pages),
            lookup_ms=lookup_ms,
            base_read_ms=self.fabric.batch_read_ms(read_plan, local_peer=self.node_id),
            patch_ms=self.costs.patch_compute_ms(
                max(1, round(patched_pages * scale_up))
            ),
            overlap=overlap,
            retry_ms=plan.charged_ms,
            retries=plan.attempts,
        )
        self.dedup_ops += 1
        return DedupOutcome(table=table, timings=timings)

    def _stage_overlap(self, full_pages: int) -> StageOverlap | None:
        """The op's stage-overlap shape under ``overlap_costs`` (or None)."""
        if self.overlap_costs is None:
            return None
        batches = max(1, math.ceil(full_pages / self.overlap_costs.batch_pages))
        return StageOverlap(workers=self.overlap_costs.workers, batches=batches)

    # -------------------------------------------------------------- restore

    def restore(self, table: DedupPageTable, *, verify: bool = False) -> RestoreOutcome:
        """Run the restore op: rebuild the original image from the table.

        Base-page fetches are grouped by checkpoint and served through
        the agent's LRU cache; the output buffer starts zeroed so zero
        pages cost nothing to materialize.

        Does *not* release base refcounts — the controller does that once
        the sandbox is warm again (the base pages must stay pinned until
        the restore completes).
        """
        page_size = table.page_size
        reads_by_peer: Counter[int] = Counter()
        by_checkpoint: dict[int, list[int]] = defaultdict(list)
        patched = 0
        for index, entry in enumerate(table.entries):
            if entry.kind is PageKind.PATCHED:
                assert entry.base is not None
                reads_by_peer[entry.base.node_id] += 1
                by_checkpoint[entry.base.checkpoint_id].append(index)
                patched += 1

        # Resolve the base-fetch RPC's transient-fault plan before any
        # cost is charged: exhausted retries surface RetryExhausted and
        # the controller takes the next rung of the fallback ladder.
        # Entirely-local fetches involve no RPC and never fail this way.
        retry_ms = 0.0
        retries = 0
        if any(peer != self.node_id for peer in reads_by_peer):
            plan = self.transients.plan("restore-fetch")
            if not plan.succeeded:
                raise RetryExhausted("restore-fetch", plan.attempts, plan.charged_ms)
            retry_ms = plan.charged_ms
            retries = plan.attempts

        # Fetch the base pages first: an unreachable peer raises
        # PeerUnavailable *before* any reconstruction work, and the
        # controller falls back to a cold start.
        full_pages = self._full_pages(len(table.entries))
        scale_up = full_pages / max(1, len(table.entries))
        if isinstance(self.store, TieredCheckpointStore):
            (
                base_read_ms,
                prefetched,
                miss_read_ms,
                hit_pages,
                miss_pages,
            ) = self._tiered_base_read(table, page_size, scale_up)
        else:
            read_plan = {
                peer: (int(count * scale_up), int(count * scale_up) * page_size)
                for peer, count in reads_by_peer.items()
            }
            base_read_ms = self.fabric.batch_read_ms(read_plan, local_peer=self.node_id)
            prefetched = False
            miss_read_ms = 0.0
            hit_pages = miss_pages = 0

        data = self._reconstruct(table, by_checkpoint)

        image = MemoryImage(
            function=table.function,
            instance_seed=table.instance_seed,
            data=data,
            page_size=page_size,
            regions=table.regions,
            aslr=table.aslr,
        )
        if verify and image.checksum() != table.original_checksum:
            raise RuntimeError(
                f"restore of {table.function} produced a corrupted image "
                f"({image.checksum()} != {table.original_checksum})"
            )

        timings = RestoreTimings(
            base_read_ms=base_read_ms,
            compute_ms=self.costs.patch_apply_ms(max(1, round(patched * scale_up))),
            restore_ms=self.costs.restore_fixed_ms,
            prefetched=prefetched,
            miss_read_ms=miss_read_ms,
            prefetch_hit_pages=hit_pages,
            prefetch_miss_pages=miss_pages,
            overlap=self._stage_overlap(max(1, round(patched * scale_up))),
            retry_ms=retry_ms,
            retries=retries,
        )
        self.restore_ops += 1
        return RestoreOutcome(image=image, timings=timings)

    def _reconstruct(
        self, table: DedupPageTable, by_checkpoint: dict[int, list[int]]
    ) -> np.ndarray:
        """Content reconstruction of ``table`` (restore op body)."""
        page_size = table.page_size
        # Zero-initialized buffer: zero pages are already materialized.
        data = np.zeros(len(table.entries) * page_size, dtype=np.uint8)
        for index, entry in enumerate(table.entries):
            if entry.kind is PageKind.UNIQUE:
                assert entry.raw is not None
                start = index * page_size
                data[start : start + len(entry.raw)] = np.frombuffer(
                    entry.raw, dtype=np.uint8
                )
        for checkpoint_id, indices in by_checkpoint.items():
            checkpoint = self.store.get(checkpoint_id)
            for index in indices:
                entry = table.entries[index]
                assert entry.base is not None and entry.patch is not None
                base_page = self._base_page_bytes(checkpoint, entry.base.page_index)
                original = apply_patch(entry.patch, base_page)
                start = index * page_size
                data[start : start + len(original)] = np.frombuffer(
                    original, dtype=np.uint8
                )
        return data

    # ---------------------------------------------------- template forks

    def templatize(self, sandbox: Sandbox) -> TemplatizeOutcome:
        """Park a warm sandbox as a delta against shared template segments.

        Ensures the catalog holds a segment per shareable RUNTIME/LIBRARY
        region (publishing missing ones to the remote-DRAM pool — one
        charged write, all-or-nothing), factors the image into segment
        patches plus private pages, and acquires a catalog reference per
        segment.  No registry traffic, no fingerprinting, no base-page
        fetches: the segments *are* the bases.

        Raises :class:`repro.templates.catalog.TemplatePoolFull` (pool
        cannot fit the new segments) or :class:`RetryExhausted` (pool
        write's transient-RPC plan failed) *before* any state is created;
        the controller then falls back to the dedup path.
        """
        catalog = self.templates
        if catalog is None:
            raise RuntimeError("agent has no template catalog")
        image = sandbox.image
        if image is None:
            raise RuntimeError(
                f"sandbox {sandbox.sandbox_id} has no image to templatize"
            )
        # Resolve the pool write's transient-fault plan BEFORE publishing
        # anything: an exhausted op must leave no state behind.
        plan = self.transients.plan("template-publish")
        if not plan.succeeded:
            raise RetryExhausted("template-publish", plan.attempts, plan.charged_ms)

        segments, created, publish_ms = catalog.ensure_segments(
            image.regions, sandbox.domain
        )
        table = build_delta_table(
            image,
            {segment.key: segment.content for segment in segments},
            content_scale=self.content_scale,
            full_size_bytes=sandbox.profile.memory_bytes,
            level=catalog.config.patch_level,
            domain=sandbox.domain,
        )
        catalog.acquire(table.segment_keys)

        full_pages = self._full_pages(image.num_pages)
        scale_up = full_pages / max(1, image.num_pages)
        duration_ms = (
            self.costs.checkpoint_ms(full_pages)
            + self.costs.patch_compute_ms(
                max(1, round(table.patched_pages * scale_up))
            )
            + publish_ms
            + plan.charged_ms
        )
        self.templatize_ops += 1
        return TemplatizeOutcome(
            table=table,
            duration_ms=duration_ms,
            publish_ms=publish_ms,
            segments_created=len(created),
            segments_shared=len(segments) - len(created),
            published_bytes=sum(segment.full_bytes for segment in created),
            retry_ms=plan.charged_ms,
            retries=plan.attempts,
        )

    def fork_restore(
        self, table: TemplateDeltaTable, *, now: float, verify: bool = False
    ) -> ForkOutcome:
        """Fork a parked template sandbox back to a byte-exact image.

        Promotes any segment the node lacks a replica of (one batched
        pool read — the charged promote of a template's first local
        fork; later forks on the node move no bytes), applies the delta
        over the replicas, and resumes the checkpoint.  Does *not*
        release the table's catalog references — the controller does
        that once the sandbox is warm again.
        """
        catalog = self.templates
        if catalog is None:
            raise RuntimeError("agent has no template catalog")
        keys = table.segment_keys
        # Forks served entirely from local replicas involve no RPC and
        # never fail transiently; a promote is a remote-pool read and
        # resolves its retry plan before any side effects.
        retry_ms = 0.0
        retries = 0
        if catalog.missing_on(self.node_id, keys):
            plan = self.transients.plan("template-fork")
            if not plan.succeeded:
                raise RetryExhausted("template-fork", plan.attempts, plan.charged_ms)
            retry_ms = plan.charged_ms
            retries = plan.attempts

        promoted, promoted_bytes, promote_ms = catalog.promote(
            self.node_id, keys, now
        )
        image = reconstruct_image(
            table,
            {segment.key: segment.content for segment in catalog.segments_for(keys)},
            verify=verify,
        )

        full_pages = self._full_pages(table.num_pages)
        scale_up = full_pages / max(1, table.num_pages)
        timings = ForkTimings(
            promote_ms=promote_ms,
            apply_ms=self.costs.patch_apply_ms(
                max(1, round(table.patched_pages * scale_up))
            ),
            restore_ms=self.costs.restore_fixed_ms,
            retry_ms=retry_ms,
            retries=retries,
        )
        self.fork_ops += 1
        return ForkOutcome(
            image=image,
            timings=timings,
            promoted=tuple(promoted),
            promoted_bytes=promoted_bytes,
        )

    # ------------------------------------------------------ tiered reads

    def _tiered_base_read(
        self, table: DedupPageTable, page_size: int, scale_up: float
    ) -> tuple[float, bool, float, int, int]:
        """Base-read costing under checkpoint tiering (DESIGN.md §9).

        Returns ``(base_read_ms, prefetched, miss_read_ms, hit_pages,
        miss_pages)``.  On the first restore of a (function, base set)
        key, every base page is demand-read serially and the exact set
        of fetched pages is recorded; later restores issue the recorded
        set as one batched prefetch (``base_read_ms`` overlaps patch
        compute) and only demand-read the recording's misses.
        """
        assert isinstance(self.store, TieredCheckpointStore)
        needed_cids = sorted(table.base_refs.keys())
        # Validate every involved node's reachability up front: a restore
        # either proceeds in full or fails fast to the cold fallback,
        # with no cost charged — SSD-resident state shares its owning
        # node's failure domain, the far-memory pool has none.
        for checkpoint_id in needed_cids:
            checkpoint = self.store.get(checkpoint_id)
            if (
                checkpoint.tier is not StorageTier.REMOTE_DRAM
                and checkpoint.node_id != self.node_id
            ):
                self.fabric.require_peer(checkpoint.node_id)

        recorded = None
        key = None
        if self.recorder is not None:
            key = WorkingSetRecorder.key_for(table.function, needed_cids)
            recorded = self.recorder.lookup(key)

        hit_by_checkpoint: Counter[int] = Counter()
        miss_by_checkpoint: Counter[int] = Counter()
        for entry in table.entries:
            if entry.kind is not PageKind.PATCHED:
                continue
            assert entry.base is not None
            address = (entry.base.checkpoint_id, entry.base.page_index)
            if recorded is not None and address in recorded:
                hit_by_checkpoint[entry.base.checkpoint_id] += 1
            else:
                miss_by_checkpoint[entry.base.checkpoint_id] += 1

        if recorded is None:
            # First touch: one serial demand read, then record the set.
            base_read_ms = self._channel_read_ms(
                miss_by_checkpoint, page_size, scale_up
            )
            if self.recorder is not None and key is not None:
                self.recorder.record(
                    key,
                    frozenset(
                        (entry.base.checkpoint_id, entry.base.page_index)
                        for entry in table.entries
                        if entry.kind is PageKind.PATCHED and entry.base is not None
                    ),
                )
            return base_read_ms, False, 0.0, 0, 0

        base_read_ms = self._channel_read_ms(hit_by_checkpoint, page_size, scale_up)
        miss_read_ms = self._channel_read_ms(miss_by_checkpoint, page_size, scale_up)
        hit_pages = int(sum(hit_by_checkpoint.values()) * scale_up)
        miss_pages = int(sum(miss_by_checkpoint.values()) * scale_up)
        assert self.recorder is not None
        self.recorder.note_prefetch(hit_pages, miss_pages)
        return base_read_ms, True, miss_read_ms, hit_pages, miss_pages

    def _channel_read_ms(
        self, counts_by_checkpoint: Counter[int], page_size: int, scale_up: float
    ) -> float:
        """One batched multi-channel fetch of base pages by residency.

        Node-DRAM pages go over the RDMA fabric (pipelined per peer),
        far-memory pages over the pool link, SSD pages through each
        owning node's drive; the channels proceed in parallel, so the
        cost is the slowest channel — the same shape as
        :meth:`RdmaFabric.batch_read_ms`.
        """
        assert isinstance(self.store, TieredCheckpointStore)
        config = self.store.config
        fabric_plan: dict[int, tuple[int, int]] = {}
        remote_dram_bytes = 0
        ssd_bytes: Counter[int] = Counter()
        for checkpoint_id in sorted(counts_by_checkpoint):
            checkpoint = self.store.get(checkpoint_id)
            ops = int(counts_by_checkpoint[checkpoint_id] * scale_up)
            nbytes = ops * page_size
            if checkpoint.tier is StorageTier.NODE_DRAM:
                prev_ops, prev_bytes = fabric_plan.get(checkpoint.node_id, (0, 0))
                fabric_plan[checkpoint.node_id] = (prev_ops + ops, prev_bytes + nbytes)
            elif checkpoint.tier is StorageTier.REMOTE_DRAM:
                remote_dram_bytes += nbytes
            else:
                ssd_bytes[checkpoint.node_id] += nbytes
        cost = self.fabric.batch_read_ms(fabric_plan, local_peer=self.node_id)
        if remote_dram_bytes:
            cost = max(cost, config.remote_dram_read_ms(remote_dram_bytes))
        for node_id in sorted(ssd_bytes):
            cost = max(cost, config.ssd_read_ms(ssd_bytes[node_id]))
        return cost
