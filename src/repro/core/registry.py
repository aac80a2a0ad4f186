"""The global fingerprint registry (controller-side, Section 3.1 / 4.1).

The registry is a hash table from chunk digests (RSC hashes) to the base
pages containing them.  Only *base sandboxes'* pages populate it
(Section 4.1.3), which keeps its footprint proportional to the number of
base checkpoints rather than the number of sandboxes.

Lookups serve the dedup op: given a page's value-sampled fingerprint,
the registry returns candidate base pages scored by how many of the
sampled chunks they share; the dedup agent picks the best candidate
(ties prefer pages local to the requesting node) as the page's *base
page* (Section 4.1.2).

Two API tiers exist:

* per-page (``register_page`` / ``lookup`` / ``choose_base_page``) — the
  reference path, one call per page;
* batch (``register_pages`` / ``lookup_batch`` / ``choose_base_pages``)
  — one call per *image*, modelling a single controller round-trip.
  The sharded registry additionally groups a batch's digests per shard
  before fanning out, so each shard is visited once per batch rather
  than once per digest.

Stats discipline: page-level counters (``pages_registered``,
``page_lookups``, ``hits``) count *pages*, digest-level counters count
digests — on both registry variants, so the sharding ablation compares
like with like.

Tenancy (DESIGN.md §15): every table is partitioned by *dedup domain* —
registrations and lookups carry the requester's domain string, and a
lookup can only ever see refs registered under the same domain.  The
partition is structural (separate nested tables per domain), so a
cross-domain :class:`PageRef` cannot leak out of a lookup by
construction; a checkpoint claiming two different domains raises.  The
default :data:`~repro.tenancy.domains.GLOBAL_DOMAIN` ("" everywhere)
collapses to a single partition and reproduces the pre-tenancy registry
bit-identically.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.memory.fingerprint import FingerprintConfig, PageFingerprint
from repro.tenancy.domains import GLOBAL_DOMAIN

#: Reference size used for the registry's own memory accounting: digest
#: (8 B) + per-ref (node, checkpoint, page ~ 12 B) in a compact table.
_DIGEST_BYTES = 8
_REF_BYTES = 12

#: Shared immutable empty partition, so lookups against a domain that
#: never registered anything allocate nothing.
_EMPTY_PARTITION: Mapping[int, list["PageRef"]] = {}


@dataclass(frozen=True)
class PageRef:
    """Cluster-wide address of one base page."""

    checkpoint_id: int
    node_id: int
    page_index: int

    def __post_init__(self) -> None:
        # Refs are hashed constantly (bucket membership, candidate
        # counting); precomputing beats re-tupling the fields each time.
        object.__setattr__(
            self, "_hash", hash((self.checkpoint_id, self.node_id, self.page_index))
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]


@dataclass
class RegistryStats:
    """Counters for the Section-7.7 overhead analysis."""

    pages_registered: int = 0
    digests_registered: int = 0
    page_lookups: int = 0
    digest_lookups: int = 0
    hits: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of page lookups that found at least one candidate."""
        if self.page_lookups == 0:
            return 0.0
        return self.hits / self.page_lookups


def _best_candidate(
    counts: Counter[PageRef], local_node_id: int
) -> tuple[PageRef, int] | None:
    """Selection rule shared by every registry variant.

    The candidate with the maximum sampled-chunk overlap wins; among
    equals, a page local to ``local_node_id`` is preferred (avoiding a
    remote read), then the lowest address for determinism.
    """
    if not counts:
        return None
    best = min(
        counts.items(),
        key=lambda item: (
            -item[1],
            item[0].node_id != local_node_id,
            item[0].checkpoint_id,
            item[0].page_index,
        ),
    )
    return best[0], best[1]


class FingerprintRegistry:
    """Chunk-digest -> base-page index with bounded, domain-partitioned
    buckets."""

    def __init__(
        self,
        config: FingerprintConfig | None = None,
        *,
        max_refs_per_digest: int = 8,
    ):
        if max_refs_per_digest <= 0:
            raise ValueError("max_refs_per_digest must be positive")
        self.config = config or FingerprintConfig()
        self.max_refs_per_digest = max_refs_per_digest
        #: domain -> digest -> refs.  The nested shape is the isolation
        #: mechanism: a lookup indexes its own domain's table and cannot
        #: observe another partition at all.
        self._partitions: dict[str, dict[int, list[PageRef]]] = {}
        self._by_checkpoint: dict[int, list[tuple[str, int, PageRef]]] = defaultdict(
            list
        )
        # Full-page content digests -> byte-identical base pages, also
        # per domain.  This replica index backs the fault-recovery
        # re-homing path: a patch computed against a dead base page
        # applies unchanged against any replica listed here — but only
        # replicas of the *same domain* are ever listed together, so
        # re-homing cannot cross a tenancy boundary either.
        self._page_locations: dict[str, dict[int, list[PageRef]]] = {}
        self._location_of: dict[PageRef, tuple[str, int]] = {}
        self._locations_by_checkpoint: dict[
            int, list[tuple[str, int, PageRef]]
        ] = defaultdict(list)
        #: checkpoint -> the single domain it registered under (the
        #: tenancy tripwire: claiming a second domain raises).
        self._checkpoint_domain: dict[int, str] = {}
        self.stats = RegistryStats()

    def _claim_domain(self, checkpoint_id: int, domain: str) -> None:
        existing = self._checkpoint_domain.setdefault(checkpoint_id, domain)
        if existing != domain:
            raise ValueError(
                f"checkpoint {checkpoint_id} is registered in domain "
                f"{existing!r}; refusing registration under {domain!r}"
            )

    # ------------------------------------------------------- digest level
    # These update only digest-level counters; page-level accounting is
    # the caller's job (this registry's page APIs, or a sharding front
    # end that must count each page exactly once across shards).

    def register_digest(
        self, ref: PageRef, digest: int, domain: str = GLOBAL_DOMAIN
    ) -> int:
        """Insert one digest of a base page; returns 1 if stored."""
        self._claim_domain(ref.checkpoint_id, domain)
        buckets = self._partitions.setdefault(domain, {})
        bucket = buckets.setdefault(digest, [])
        if ref in bucket or len(bucket) >= self.max_refs_per_digest:
            return 0
        bucket.append(ref)
        self._by_checkpoint[ref.checkpoint_id].append((domain, digest, ref))
        self.stats.digests_registered += 1
        return 1

    def resolve_digests(
        self, digests: Iterable[int], domain: str = GLOBAL_DOMAIN
    ) -> dict[int, tuple[PageRef, ...]]:
        """Bucket contents for each digest (digest-level lookup)."""
        buckets = self._partitions.get(domain, _EMPTY_PARTITION)
        result: dict[int, tuple[PageRef, ...]] = {}
        for digest in digests:
            self.stats.digest_lookups += 1
            result[digest] = tuple(buckets.get(digest, ()))
        return result

    # --------------------------------------------------------- page level

    def register_page(
        self, ref: PageRef, fingerprint: PageFingerprint, domain: str = GLOBAL_DOMAIN
    ) -> int:
        """Insert a base page's sampled digests; returns digests stored."""
        stored = 0
        for digest in fingerprint.digest_set:
            stored += self.register_digest(ref, digest, domain)
        self.stats.pages_registered += 1
        return stored

    def register_pages(
        self,
        refs: Sequence[PageRef],
        fingerprints: Sequence[PageFingerprint],
        domain: str = GLOBAL_DOMAIN,
    ) -> int:
        """Batch insert (one controller round-trip per image)."""
        if len(refs) != len(fingerprints):
            raise ValueError("refs/fingerprints length mismatch")
        return sum(
            self.register_page(ref, fingerprint, domain)
            for ref, fingerprint in zip(refs, fingerprints)
        )

    def deregister_checkpoint(self, checkpoint_id: int) -> int:
        """Remove every digest of a retired base checkpoint."""
        removed = 0
        for domain, digest, ref in self._by_checkpoint.pop(checkpoint_id, []):
            buckets = self._partitions.get(domain)
            if buckets is None:
                continue
            bucket = buckets.get(digest)
            if bucket is None:
                continue
            try:
                bucket.remove(ref)
                removed += 1
            except ValueError:
                pass
            if not bucket:
                del buckets[digest]
                if not buckets:
                    del self._partitions[domain]
        for domain, page_digest, ref in self._locations_by_checkpoint.pop(
            checkpoint_id, []
        ):
            self._location_of.pop(ref, None)
            buckets = self._page_locations.get(domain)
            if buckets is None:
                continue
            bucket = buckets.get(page_digest)
            if bucket is None:
                continue
            try:
                bucket.remove(ref)
            except ValueError:
                pass
            if not bucket:
                del buckets[page_digest]
                if not buckets:
                    del self._page_locations[domain]
        self._checkpoint_domain.pop(checkpoint_id, None)
        return removed

    # ----------------------------------------------------- page locations

    def register_page_location(
        self, ref: PageRef, page_digest: int, domain: str = GLOBAL_DOMAIN
    ) -> bool:
        """Index a base page's full-content digest for replica lookup.

        Idempotent; buckets are capped at ``max_refs_per_digest`` like
        fingerprint buckets.  Returns True when the ref was stored.
        """
        self._claim_domain(ref.checkpoint_id, domain)
        buckets = self._page_locations.setdefault(domain, {})
        bucket = buckets.setdefault(page_digest, [])
        if ref in bucket or len(bucket) >= self.max_refs_per_digest:
            if not bucket:
                del buckets[page_digest]
                if not buckets:
                    del self._page_locations[domain]
            return False
        bucket.append(ref)
        self._location_of[ref] = (domain, page_digest)
        self._locations_by_checkpoint[ref.checkpoint_id].append(
            (domain, page_digest, ref)
        )
        return True

    def page_replicas(
        self, page_digest: int, domain: str = GLOBAL_DOMAIN
    ) -> tuple[PageRef, ...]:
        """Registered base pages of ``domain`` whose content hashes to
        ``page_digest`` (never another domain's — re-homing must not
        leak a byte-identical page across a tenancy boundary)."""
        return tuple(
            self._page_locations.get(domain, _EMPTY_PARTITION).get(page_digest, ())
        )

    def replicas_for(self, ref: PageRef) -> tuple[PageRef, ...]:
        """Byte-identical same-domain alternatives to ``ref``."""
        entry = self._location_of.get(ref)
        if entry is None:
            return ()
        domain, page_digest = entry
        return tuple(r for r in self.page_replicas(page_digest, domain) if r != ref)

    # ------------------------------------------------------- fault domain

    @property
    def n_shards(self) -> int:
        """A plain registry is a single shard."""
        return 1

    def drop_state(self) -> None:
        """Forget every table entry, simulating shard data loss.

        Stats survive — they are observability counters, not shard
        state — and callers rebuild the tables by re-registering the
        surviving base checkpoints (idempotently, under their original
        domains)."""
        self._partitions.clear()
        self._by_checkpoint.clear()
        self._page_locations.clear()
        self._location_of.clear()
        self._locations_by_checkpoint.clear()
        self._checkpoint_domain.clear()

    def drop_shard(self, index: int) -> None:
        """Shard-indexed data loss; a plain registry has only shard 0."""
        if index != 0:
            raise ValueError("unsharded registry has only shard 0")
        self.drop_state()

    def lookup(
        self, fingerprint: PageFingerprint, domain: str = GLOBAL_DOMAIN
    ) -> Counter[PageRef]:
        """Candidate base pages of ``domain`` scored by chunk overlap."""
        stats = self.stats
        stats.page_lookups += 1
        digest_set = fingerprint.digest_set
        stats.digest_lookups += len(digest_set)
        counts: Counter[PageRef] = Counter()
        buckets_get = self._partitions.get(domain, _EMPTY_PARTITION).get
        for digest in digest_set:
            bucket = buckets_get(digest)
            if bucket:
                counts.update(bucket)
        if counts:
            stats.hits += 1
        return counts

    def lookup_batch(
        self, fingerprints: Sequence[PageFingerprint], domain: str = GLOBAL_DOMAIN
    ) -> list[Counter[PageRef]]:
        """Candidates for a whole image's pages in one round-trip.

        The batch front end resolves each distinct digest against the
        table once — pages of one image share digests heavily (that is
        what makes them dedupable), so the memo touches the bucket map
        far fewer times than page-at-a-time lookups would.  Results and
        page-/digest-level stats advance exactly as the equivalent
        sequence of per-page :meth:`lookup` calls.
        """
        stats = self.stats
        buckets_get = self._partitions.get(domain, _EMPTY_PARTITION).get
        resolved: dict[int, list[PageRef] | None] = {}
        results: list[Counter[PageRef]] = []
        for fingerprint in fingerprints:
            stats.page_lookups += 1
            digest_set = fingerprint.digest_set
            stats.digest_lookups += len(digest_set)
            counts: Counter[PageRef] = Counter()
            for digest in digest_set:
                try:
                    bucket = resolved[digest]
                except KeyError:
                    bucket = resolved[digest] = buckets_get(digest)
                if bucket:
                    counts.update(bucket)
            if counts:
                stats.hits += 1
            results.append(counts)
        return results

    def choose_base_page(
        self,
        fingerprint: PageFingerprint,
        local_node_id: int,
        domain: str = GLOBAL_DOMAIN,
    ) -> tuple[PageRef, int] | None:
        """Pick the best base page for a dedup candidate page.

        Returns ``(ref, overlap)`` or None when no candidate exists.
        """
        return _best_candidate(self.lookup(fingerprint, domain), local_node_id)

    def choose_base_pages(
        self,
        fingerprints: Sequence[PageFingerprint],
        local_node_id: int,
        domain: str = GLOBAL_DOMAIN,
    ) -> list[tuple[PageRef, int] | None]:
        """Batch :meth:`choose_base_page` — one result per fingerprint."""
        return [
            _best_candidate(counts, local_node_id)
            for counts in self.lookup_batch(fingerprints, domain)
        ]

    # --------------------------------------------------- domain inspection

    def domains(self) -> tuple[str, ...]:
        """Domains with any registered state (sorted; tests/recovery)."""
        return tuple(sorted(set(self._partitions) | set(self._page_locations)))

    def domain_digests(self, domain: str) -> dict[int, tuple[PageRef, ...]]:
        """One domain's digest partition as an immutable snapshot."""
        return {
            digest: tuple(refs)
            for digest, refs in self._partitions.get(
                domain, _EMPTY_PARTITION
            ).items()
        }

    def domain_locations(self, domain: str) -> dict[int, tuple[PageRef, ...]]:
        """One domain's replica-index partition as an immutable snapshot."""
        return {
            digest: tuple(refs)
            for digest, refs in self._page_locations.get(
                domain, _EMPTY_PARTITION
            ).items()
        }

    def checkpoint_domain(self, checkpoint_id: int) -> str | None:
        """The domain a checkpoint registered under (None if absent)."""
        return self._checkpoint_domain.get(checkpoint_id)

    @property
    def digest_count(self) -> int:
        return sum(len(buckets) for buckets in self._partitions.values())

    def memory_bytes(self) -> int:
        """Estimated registry footprint (for controller-overhead reporting)."""
        refs = sum(
            len(bucket)
            for buckets in self._partitions.values()
            for bucket in buckets.values()
        )
        location_digests = sum(
            len(buckets) for buckets in self._page_locations.values()
        )
        location_refs = sum(
            len(bucket)
            for buckets in self._page_locations.values()
            for bucket in buckets.values()
        )
        return (
            (self.digest_count + location_digests) * _DIGEST_BYTES
            + (refs + location_refs) * _REF_BYTES
        )


class ShardedFingerprintRegistry:
    """A key-partitioned fingerprint registry (paper Section 4.3).

    Accesses to the registry are independent per-digest lookups, so the
    controller can be distributed by sharding the digest space across
    controller nodes.  This class is API-compatible with
    :class:`FingerprintRegistry`: each digest routes to
    ``shard_for(digest)``; page-level operations fan out and merge, and
    the batch APIs group a whole image's digests per shard so each shard
    is visited once per batch.

    Page-level stats (pages registered / page lookups / hits) are kept
    by this front end — counting each page exactly once regardless of
    how many shards its digests span — while digest-level stats live in
    the shards; :attr:`stats` merges the two views.

    Tenancy: the domain partition lives *inside* each shard (sharding is
    by digest, orthogonal to domains), so a rebuilt shard reconstructs
    its per-domain tables exactly by re-registering surviving
    checkpoints under their recorded domains.
    """

    def __init__(
        self,
        n_shards: int,
        config: FingerprintConfig | None = None,
        *,
        max_refs_per_digest: int = 8,
    ):
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        self.config = config or FingerprintConfig()
        self.n_shards = n_shards
        self.shards = [
            FingerprintRegistry(self.config, max_refs_per_digest=max_refs_per_digest)
            for _ in range(n_shards)
        ]
        self._page_stats = RegistryStats()
        # Front-end routing metadata for the replica index: which
        # (domain, page digest) holds a ref's page-location entry.
        # Deliberately *not* shard state — it survives shard loss so
        # recovery can still route.
        self._location_route: dict[PageRef, tuple[str, int]] = {}
        self._route_by_checkpoint: dict[int, list[PageRef]] = defaultdict(list)

    def shard_for(self, digest: int) -> int:
        """Key-partitioned shard placement (the Section 4.3 scaling path).

        Orthogonal to tenancy: a digest routes to the same shard whatever
        its domain, and the domain partition lives inside each shard.
        """
        return digest % self.n_shards

    # --------------------------------------------------------- page level

    def register_page(
        self, ref: PageRef, fingerprint: PageFingerprint, domain: str = GLOBAL_DOMAIN
    ) -> int:
        stored = 0
        for digest in fingerprint.digest_set:
            stored += self.shards[self.shard_for(digest)].register_digest(
                ref, digest, domain
            )
        self._page_stats.pages_registered += 1
        return stored

    def register_pages(
        self,
        refs: Sequence[PageRef],
        fingerprints: Sequence[PageFingerprint],
        domain: str = GLOBAL_DOMAIN,
    ) -> int:
        if len(refs) != len(fingerprints):
            raise ValueError("refs/fingerprints length mismatch")
        return sum(
            self.register_page(ref, fingerprint, domain)
            for ref, fingerprint in zip(refs, fingerprints)
        )

    def deregister_checkpoint(self, checkpoint_id: int) -> int:
        for ref in self._route_by_checkpoint.pop(checkpoint_id, []):
            self._location_route.pop(ref, None)
        return sum(shard.deregister_checkpoint(checkpoint_id) for shard in self.shards)

    # ----------------------------------------------------- page locations

    def register_page_location(
        self, ref: PageRef, page_digest: int, domain: str = GLOBAL_DOMAIN
    ) -> bool:
        """Route the replica-index entry to its shard (idempotent)."""
        if ref not in self._location_route:
            self._location_route[ref] = (domain, page_digest)
            self._route_by_checkpoint[ref.checkpoint_id].append(ref)
        return self.shards[self.shard_for(page_digest)].register_page_location(
            ref, page_digest, domain
        )

    def page_replicas(
        self, page_digest: int, domain: str = GLOBAL_DOMAIN
    ) -> tuple[PageRef, ...]:
        return self.shards[self.shard_for(page_digest)].page_replicas(
            page_digest, domain
        )

    def replicas_for(self, ref: PageRef) -> tuple[PageRef, ...]:
        route = self._location_route.get(ref)
        if route is None:
            return ()
        domain, page_digest = route
        return tuple(r for r in self.page_replicas(page_digest, domain) if r != ref)

    # ------------------------------------------------------- fault domain

    def drop_shard(self, index: int) -> None:
        """Lose one shard's table content (front-end routing survives)."""
        self.shards[index].drop_state()

    def _merge(
        self,
        fingerprint: PageFingerprint,
        refs_by_digest: dict[int, tuple[PageRef, ...]],
    ) -> Counter[PageRef]:
        """Merge per-digest shard answers into one page's candidate set."""
        self._page_stats.page_lookups += 1
        counts: Counter[PageRef] = Counter()
        for digest in fingerprint.digest_set:
            for ref in refs_by_digest.get(digest, ()):
                counts[ref] += 1
        if counts:
            self._page_stats.hits += 1
        return counts

    def _resolve_grouped(
        self, fingerprints: Sequence[PageFingerprint], domain: str
    ) -> dict[int, tuple[PageRef, ...]]:
        """Resolve all digests of a batch, one fan-out visit per shard."""
        by_shard: dict[int, set[int]] = defaultdict(set)
        for fingerprint in fingerprints:
            for digest in fingerprint.digest_set:
                by_shard[self.shard_for(digest)].add(digest)
        refs_by_digest: dict[int, tuple[PageRef, ...]] = {}
        for shard_index, digests in by_shard.items():
            refs_by_digest.update(
                self.shards[shard_index].resolve_digests(digests, domain)
            )
        return refs_by_digest

    def lookup(
        self, fingerprint: PageFingerprint, domain: str = GLOBAL_DOMAIN
    ) -> Counter[PageRef]:
        return self._merge(fingerprint, self._resolve_grouped([fingerprint], domain))

    def lookup_batch(
        self, fingerprints: Sequence[PageFingerprint], domain: str = GLOBAL_DOMAIN
    ) -> list[Counter[PageRef]]:
        """Batch lookup: digests grouped per shard before fanning out.

        Note digest-level stats count each *unique* digest of the batch
        once per shard visit — the communication the sharded controller
        actually performs — while page-level stats count every page.
        """
        refs_by_digest = self._resolve_grouped(fingerprints, domain)
        return [self._merge(fingerprint, refs_by_digest) for fingerprint in fingerprints]

    def choose_base_page(
        self,
        fingerprint: PageFingerprint,
        local_node_id: int,
        domain: str = GLOBAL_DOMAIN,
    ) -> tuple[PageRef, int] | None:
        """Same selection rule as the single registry, over merged shards."""
        return _best_candidate(self.lookup(fingerprint, domain), local_node_id)

    def choose_base_pages(
        self,
        fingerprints: Sequence[PageFingerprint],
        local_node_id: int,
        domain: str = GLOBAL_DOMAIN,
    ) -> list[tuple[PageRef, int] | None]:
        return [
            _best_candidate(counts, local_node_id)
            for counts in self.lookup_batch(fingerprints, domain)
        ]

    # --------------------------------------------------- domain inspection

    def domains(self) -> tuple[str, ...]:
        """Domains with any registered state, merged across shards."""
        seen: set[str] = set()
        for shard in self.shards:
            seen.update(shard.domains())
        return tuple(sorted(seen))

    def domain_digests(self, domain: str) -> dict[int, tuple[PageRef, ...]]:
        """One domain's digest partition, merged across shards (digests
        are disjoint between shards, so the merge is a plain union)."""
        merged: dict[int, tuple[PageRef, ...]] = {}
        for shard in self.shards:
            merged.update(shard.domain_digests(domain))
        return merged

    def domain_locations(self, domain: str) -> dict[int, tuple[PageRef, ...]]:
        """One domain's replica-index partition, merged across shards."""
        merged: dict[int, tuple[PageRef, ...]] = {}
        for shard in self.shards:
            merged.update(shard.domain_locations(domain))
        return merged

    def checkpoint_domain(self, checkpoint_id: int) -> str | None:
        """The domain a checkpoint registered under (None if absent)."""
        for shard in self.shards:
            domain = shard.checkpoint_domain(checkpoint_id)
            if domain is not None:
                return domain
        return None

    @property
    def digest_count(self) -> int:
        return sum(shard.digest_count for shard in self.shards)

    def memory_bytes(self) -> int:
        """Total footprint across shards."""
        return sum(shard.memory_bytes() for shard in self.shards)

    def load_imbalance(self) -> float:
        """Max-shard / mean-shard digest load (1.0 = perfectly even)."""
        loads = [shard.digest_count for shard in self.shards]
        mean = sum(loads) / len(loads)
        if mean == 0:
            return 1.0
        return max(loads) / mean

    @property
    def stats(self) -> RegistryStats:
        """Page-level front-end counters merged with shard digest counters."""
        total = RegistryStats(
            pages_registered=self._page_stats.pages_registered,
            page_lookups=self._page_stats.page_lookups,
            hits=self._page_stats.hits,
        )
        for shard in self.shards:
            total.pages_registered += shard.stats.pages_registered
            total.digests_registered += shard.stats.digests_registered
            total.page_lookups += shard.stats.page_lookups
            total.digest_lookups += shard.stats.digest_lookups
            total.hits += shard.stats.hits
        return total
