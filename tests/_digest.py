"""A SHA-256 fingerprint of a whole run's ``RunMetrics``.

Equivalence tests pin a run to ``(duration_ms, metrics_digest(metrics))``
recorded on earlier code: one 64-hex-digit value covers every result the
run exposes, so a refactor that perturbs a single float, counter or
timeline sample anywhere in the run changes the digest.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import fields

import repro.sandbox.checkpoint as checkpoint_module
import repro.sandbox.sandbox as sandbox_module
from repro.platform.metrics import (
    CompletionSample,
    MemorySample,
    TemplateSample,
    TierSample,
)
from repro.platform.platform import build_platform

#: The array-backed timelines of ``RunMetrics`` and their sample types.
TIMELINES = {
    "memory_timeline": MemorySample,
    "tier_timeline": TierSample,
    "completion_timeline": CompletionSample,
    "template_timeline": TemplateSample,
}

#: Every result ``RunMetrics`` exposes, read by attribute name, so a
#: counter may move between a field and a property derived from the op
#: records without changing the digest.
DIGEST_ATTRIBUTES = (
    "platform_name", "requests", "dedup_ops", "restore_ops", "base_ops",
    "memory_timeline", "evictions", "eviction_candidates_scanned",
    "prewarm_spawns", "sandboxes_created", "bases_created", "tier_ops",
    "tier_timeline", "checkpoint_demotions", "checkpoint_promotions",
    "table_demotions", "table_promotions", "prefetch_recordings",
    "prefetched_restores", "prefetch_hit_pages", "prefetch_miss_pages",
    "base_page_cache_hits", "base_page_cache_misses", "anchor_index_cache_hits",
    "anchor_index_cache_misses", "outstanding_requests", "fault_events",
    "availability_timeline", "rpc_retries", "retry_backoff_ms",
    "rpc_exhausted_ops", "restore_replica_fallbacks", "cross_domain_replica_skips",
    "restore_cold_fallbacks", "dedup_deferrals", "requests_rescheduled",
    "crash_purged_sandboxes", "crash_reconciled_refs", "shard_rebuilds",
    "shard_rebuild_ms", "completion_timeline", "template_ops", "template_forks",
    "template_timeline", "template_segments_created", "template_segments_shared",
    "template_promotions", "template_promote_bytes", "template_replica_evictions",
    "template_fork_fallbacks", "template_pool_rejections", "template_evict_parks",
    "template_delta_spills", "template_delta_spill_bytes",
    "template_delta_unspill_bytes",
)


def metrics_digest(metrics) -> str:
    """SHA-256 over every result in :data:`DIGEST_ATTRIBUTES`.

    Timelines contribute the raw bytes of each column (sliced to the
    sample count); every other attribute contributes its ``repr``, which
    round-trips floats exactly.
    """
    digest = hashlib.sha256()
    for name in DIGEST_ATTRIBUTES:
        value = getattr(metrics, name)
        digest.update(name.encode())
        sample_type = TIMELINES.get(name)
        if sample_type is None:
            digest.update(repr(value).encode())
            continue
        for spec in fields(sample_type):
            digest.update(value.column(spec.name).tobytes())
    return digest.hexdigest()


def run_fresh(kind, config, suite, trace, **build_kwargs):
    """One platform run with the process-global id counters reset, so
    the sandbox and checkpoint ids embedded in op records are the same
    whatever ran earlier in the process."""
    sandbox_module._sandbox_ids = itertools.count(1)
    checkpoint_module._checkpoint_ids = itertools.count(1)
    return build_platform(kind, config, suite, **build_kwargs).run(trace)
