"""Value-sampled page fingerprints (paper Section 4.1.2).

A page fingerprint is a small unordered set of chunk digests chosen by
*value sampling*: the page is scanned with a rolling 64-byte window and a
chunk is selected whenever the last two bytes of the window match a fixed
marker pattern.  Five such chunks (the *fingerprint set cardinality*)
represent the page; the number of digests two pages share estimates
their similarity.  This keeps both the computational cost (one linear
scan + a 2-byte comparison) and the controller communication per page
tiny, which is the crux of Medes' scalability argument.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro._util import (
    gather_chunks,
    hash_bytes,
    hash_rows_sha1,
    poly_hash_bytes,
    poly_hash_rows,
    rng_for,
)
from repro.memory.chunks import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_DIGEST_BITS,
    batch_enforce_spacing,
    batch_marker_ends,
    enforce_spacing,
    marker_positions,
)


class SamplingStrategy(enum.Enum):
    """How the fingerprint's chunks are chosen within a page.

    ``VALUE_SAMPLED`` is Medes' scheme (EndRE-style content markers):
    sampled positions travel with the content, so two pages holding the
    same bytes at different intra-page offsets still share digests.
    ``FIXED_OFFSETS`` models Difference Engine's approach (Section 8):
    chunks at fixed, randomly-drawn page offsets — cheap, but any
    sub-page shift of the content (ASLR'd stacks, relocated objects)
    desynchronizes the sample.  The ablation benchmark contrasts them.
    """

    VALUE_SAMPLED = "value-sampled"
    FIXED_OFFSETS = "fixed-offsets"


class HashKind(enum.Enum):
    """Which digest function hashes the sampled chunks.

    ``SHA1`` is the paper's choice and the default: cryptographic, so an
    adversarial tenant cannot engineer chunk collisions.  ``POLY64`` is
    a fully vectorised polynomial digest (one integer matmul over the
    gathered chunk matrix, no per-chunk Python or C-hashlib calls) — an
    opt-in throughput/collision trade-off for trusted single-tenant
    deployments, ablated by ``benchmarks/bench_fingerprint_kernel.py``.
    The two kinds produce disjoint digest spaces in practice, so a
    registry must be populated and queried with one consistent config.
    """

    SHA1 = "sha1"
    POLY64 = "poly64"

#: Marker: sample when the low byte of the 2-byte window tail equals 0x77.
#: With uniform content this samples ~1/256 positions, i.e. ~16 candidate
#: chunks per 4 KiB page — comfortably above the default cardinality of 5.
MARKER_MASK = 0x00FF
MARKER_VALUE = 0x0077

#: Default fingerprint set cardinality (number of chunk digests per page).
DEFAULT_CARDINALITY = 5


@dataclass(frozen=True)
class FingerprintConfig:
    """Tunables of the fingerprinting scheme (Section 7.8 sensitivity)."""

    chunk_size: int = DEFAULT_CHUNK_SIZE
    cardinality: int = DEFAULT_CARDINALITY
    digest_bits: int = DEFAULT_DIGEST_BITS
    marker_mask: int = MARKER_MASK
    marker_value: int = MARKER_VALUE
    strategy: SamplingStrategy = SamplingStrategy.VALUE_SAMPLED
    hash_kind: HashKind = HashKind.SHA1

    def __post_init__(self) -> None:
        if self.chunk_size <= 2:
            raise ValueError("chunk_size must exceed the 2-byte marker")
        if self.cardinality <= 0:
            raise ValueError("cardinality must be positive")
        if not 1 <= self.digest_bits <= 160:
            raise ValueError("digest_bits must be in [1, 160]")
        if self.hash_kind is HashKind.POLY64 and self.digest_bits > 64:
            raise ValueError("POLY64 digests are at most 64 bits wide")


@dataclass(frozen=True)
class PageFingerprint:
    """Fingerprint of one page: sampled chunk digests and their offsets."""

    digests: tuple[int, ...]
    offsets: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.digests) != len(self.offsets):
            raise ValueError("digests/offsets length mismatch")

    @cached_property
    def digest_set(self) -> frozenset[int]:
        """The unordered digest set used for similarity estimation."""
        return frozenset(self.digests)

    def overlap(self, other: "PageFingerprint") -> int:
        """Number of shared digests with ``other`` (similarity estimate)."""
        return len(self.digest_set & other.digest_set)


def _fixed_offsets(page_len: int, config: FingerprintConfig) -> np.ndarray:
    """Difference-Engine-style sampling: chunks at fixed page offsets.

    The offsets are drawn once per (page length, cardinality) from a
    global seed — the same positions on every page, like DE's
    boot-time-randomized offsets — so identical pages still match but
    shifted content does not.
    """
    max_start = page_len - config.chunk_size
    if max_start < 0:
        return np.empty(0, dtype=np.int64)
    rng = rng_for("de-fixed-offsets", page_len, config.chunk_size, config.cardinality)
    count = min(config.cardinality, max_start + 1)
    starts = rng.choice(max_start + 1, size=count, replace=False)
    return np.sort(starts).astype(np.int64)


def sample_chunk_offsets(page: np.ndarray, config: FingerprintConfig) -> np.ndarray:
    """Start offsets of the sampled chunks of ``page``.

    Value sampling: window-end positions matching the marker are thinned
    to non-overlapping chunks and capped at the configured cardinality.
    A page with fewer marker hits than the cardinality (e.g. a zero
    page, whose windows never match) simply yields fewer chunks.
    """
    if config.strategy is SamplingStrategy.FIXED_OFFSETS:
        return _fixed_offsets(len(page), config)
    ends = marker_positions(
        page,
        mask=config.marker_mask,
        value=config.marker_value,
        min_position=config.chunk_size - 1,
    )
    ends = enforce_spacing(ends, config.chunk_size)
    starts = ends[: config.cardinality] - (config.chunk_size - 1)
    return starts.astype(np.int64)


def _hash_chunk_scalar(chunk: bytes, cfg: FingerprintConfig) -> int:
    """One chunk's digest on the scalar (per-page oracle) path."""
    if cfg.hash_kind is HashKind.POLY64:
        return poly_hash_bytes(chunk, cfg.digest_bits)
    return hash_bytes(chunk, cfg.digest_bits)


def page_fingerprint(page: np.ndarray, config: FingerprintConfig | None = None) -> PageFingerprint:
    """Compute the value-sampled fingerprint of one page.

    The page-at-a-time reference implementation: chunk selection and
    hashing run scalar (big-int SHA-1 / pure-Python polynomial), kept
    deliberately independent of the batch kernel it serves as the
    bit-identical oracle for.
    """
    cfg = config or FingerprintConfig()
    raw = page.tobytes()
    starts = sample_chunk_offsets(page, cfg)
    digests = tuple(
        _hash_chunk_scalar(raw[int(s) : int(s) + cfg.chunk_size], cfg) for s in starts
    )
    return PageFingerprint(digests=digests, offsets=tuple(int(s) for s in starts))


def image_fingerprints(
    image_pages: "list[np.ndarray] | object",
    config: FingerprintConfig | None = None,
) -> list[PageFingerprint]:
    """Fingerprints for every page of an image (or list of page arrays)."""
    cfg = config or FingerprintConfig()
    if hasattr(image_pages, "iter_pages"):
        pages = (page for _, page in image_pages.iter_pages())
    else:
        pages = iter(image_pages)
    return [page_fingerprint(page, cfg) for page in pages]


# ------------------------------------------------------------------ batch path


def nonzero_page_mask(data: np.ndarray, page_size: int) -> np.ndarray:
    """Boolean mask of pages containing any nonzero byte, vectorized."""
    if len(data) % page_size != 0:
        raise ValueError("buffer length must be a multiple of page_size")
    if len(data) == 0:
        return np.zeros(0, dtype=bool)
    return data.reshape(-1, page_size).any(axis=1)


def batch_sample_chunk_starts(
    data: np.ndarray,
    page_size: int,
    config: FingerprintConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Every page's sampled chunk starts as flat arrays, no Python loops.

    Returns ``(starts, counts)``: ``starts`` are *absolute* buffer
    offsets sorted page-major (exactly the concatenation of each page's
    :func:`sample_chunk_offsets`, shifted by the page base), ``counts``
    is the per-page chunk count (length ``num_pages``).  The marker scan
    runs once over the whole buffer and the greedy spacing/cardinality
    thinning resolves in ``cardinality`` vectorised rounds
    (:func:`~repro.memory.chunks.batch_enforce_spacing`) — no per-hit
    Python loop remains.
    """
    cfg = config or FingerprintConfig()
    num_pages = len(data) // page_size
    if cfg.strategy is SamplingStrategy.FIXED_OFFSETS:
        # Fixed offsets depend only on the page length: one draw serves
        # every page of the image.
        offsets = _fixed_offsets(page_size, cfg)
        starts = (
            np.arange(num_pages, dtype=np.int64)[:, None] * page_size + offsets[None, :]
        ).reshape(-1)
        counts = np.full(num_pages, len(offsets), dtype=np.int64)
        return starts, counts
    ends = batch_marker_ends(
        data,
        page_size,
        mask=cfg.marker_mask,
        value=cfg.marker_value,
        min_position=cfg.chunk_size - 1,
    )
    kept = batch_enforce_spacing(
        ends, page_size, cfg.chunk_size, cap=cfg.cardinality
    )
    counts = np.bincount(kept // page_size, minlength=num_pages).astype(np.int64)
    return kept - (cfg.chunk_size - 1), counts


def batch_sample_chunk_offsets(
    data: np.ndarray,
    page_size: int,
    config: FingerprintConfig | None = None,
) -> list[list[int]]:
    """Per-page chunk start offsets (page-relative) from one buffer scan.

    List-of-lists view over :func:`batch_sample_chunk_starts`, matching
    :func:`sample_chunk_offsets` page by page.  Every returned list is
    an independent object, including on the ``FIXED_OFFSETS`` path where
    each page samples the same offsets — callers may mutate one page's
    list without aliasing the rest.
    """
    num_pages = len(data) // page_size
    starts, counts = batch_sample_chunk_starts(data, page_size, config)
    rel = starts - np.repeat(np.arange(num_pages, dtype=np.int64) * page_size, counts)
    rel_list = rel.tolist()
    out: list[list[int]] = []
    cursor = 0
    for count in counts.tolist():
        out.append(rel_list[cursor : cursor + count])
        cursor += count
    return out


def _concat_ranges(range_starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices ``[s0, s0+1, ..), (s1, ..), ...`` concatenated, vectorised."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.repeat(range_starts - (np.cumsum(lengths) - lengths), lengths)
    return np.arange(total, dtype=np.int64) + offsets


def batch_fingerprint_arrays(
    data: np.ndarray,
    page_size: int,
    config: FingerprintConfig | None = None,
    *,
    pages: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fingerprint kernel's flat-array form (``digest_bits <= 64``).

    Returns ``(digests, offsets, counts)``: uint64 chunk digests and
    page-relative int64 chunk offsets, concatenated page-major over the
    requested ``pages`` (default: all), plus the per-page counts that
    delimit them.  This is the whole dedup-op fingerprint stage as four
    array passes — marker scan, segmented thinning, one fancy-indexed
    gather into a ``(n_chunks, chunk_size)`` matrix, one batched digest
    — with no per-page tuple built until
    :func:`fingerprints_from_arrays`.
    """
    cfg = config or FingerprintConfig()
    if cfg.digest_bits > 64:
        raise ValueError("flat fingerprint arrays require digest_bits <= 64")
    all_starts, all_counts = batch_sample_chunk_starts(data, page_size, cfg)
    if pages is None:
        starts = all_starts
        counts = all_counts
        page_bases = np.repeat(
            np.arange(len(all_counts), dtype=np.int64) * page_size, counts
        )
    else:
        indices = np.asarray(pages, dtype=np.int64)
        bounds = np.concatenate(([0], np.cumsum(all_counts)))
        counts = all_counts[indices]
        starts = all_starts[_concat_ranges(bounds[indices], counts)]
        page_bases = np.repeat(indices * page_size, counts)
    matrix = gather_chunks(data, starts, cfg.chunk_size)
    if cfg.hash_kind is HashKind.POLY64:
        digests = poly_hash_rows(matrix, cfg.digest_bits)
    else:
        digests = hash_rows_sha1(matrix, cfg.digest_bits)
    return digests, starts - page_bases, counts


def batch_page_fingerprints(
    data: np.ndarray,
    page_size: int,
    config: FingerprintConfig | None = None,
    *,
    pages: np.ndarray | None = None,
) -> list[PageFingerprint]:
    """Fingerprints of ``pages`` (default: all) of a flat image buffer.

    Identical digests/offsets to the per-page :func:`page_fingerprint`
    reference (property-tested); the marker scan, thinning, chunk gather
    and digest batch each happen once for the whole buffer.  ``pages``
    restricts hashing to the given page indices (the dedup op skips zero
    pages, for instance) — the returned list is aligned with it.
    """
    cfg = config or FingerprintConfig()
    if cfg.digest_bits > 64:
        return _wide_digest_fingerprints(data, page_size, cfg, pages)
    digests, offsets, counts = batch_fingerprint_arrays(
        data, page_size, cfg, pages=pages
    )
    return fingerprints_from_arrays(digests, offsets, counts)


def fingerprints_from_arrays(
    digests: np.ndarray, offsets: np.ndarray, counts: np.ndarray
) -> list[PageFingerprint]:
    """Materialize :class:`PageFingerprint` objects from the flat form."""
    digest_list = digests.tolist()
    offset_list = offsets.tolist()
    result: list[PageFingerprint] = []
    cursor = 0
    for count in counts.tolist():
        result.append(
            PageFingerprint(
                digests=tuple(digest_list[cursor : cursor + count]),
                offsets=tuple(offset_list[cursor : cursor + count]),
            )
        )
        cursor += count
    return result


def _wide_digest_fingerprints(
    data: np.ndarray,
    page_size: int,
    cfg: FingerprintConfig,
    pages: np.ndarray | None,
) -> list[PageFingerprint]:
    """Batch fingerprints for ``digest_bits > 64`` (experiment-only).

    Wide digests exceed the uint64 array dtype, so each gathered chunk
    is digested through the scalar big-int :func:`hash_bytes`; chunk
    selection and the gather still run vectorised.
    """
    num_pages = len(data) // page_size
    all_starts, all_counts = batch_sample_chunk_starts(data, page_size, cfg)
    if pages is None:
        indices = np.arange(num_pages, dtype=np.int64)
        counts = all_counts
        starts = all_starts
    else:
        indices = np.asarray(pages, dtype=np.int64)
        bounds = np.concatenate(([0], np.cumsum(all_counts)))
        counts = all_counts[indices]
        starts = all_starts[_concat_ranges(bounds[indices], counts)]
    matrix = gather_chunks(data, starts, cfg.chunk_size)
    flat = [hash_bytes(row.tobytes(), cfg.digest_bits) for row in matrix]
    rel = (starts - np.repeat(indices * page_size, counts)).tolist()
    result: list[PageFingerprint] = []
    cursor = 0
    for count in counts.tolist():
        result.append(
            PageFingerprint(
                digests=tuple(flat[cursor : cursor + count]),
                offsets=tuple(rel[cursor : cursor + count]),
            )
        )
        cursor += count
    return result
