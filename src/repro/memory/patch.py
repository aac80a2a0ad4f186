"""Binary delta codec (the reproduction's stand-in for xdelta3).

A patch expresses a *target* buffer as a sequence of COPY ops (byte
ranges of a *base* buffer) and INSERT ops (literal bytes).  For similar
pages the patch is far smaller than the page; for unrelated pages it
degenerates to one big INSERT, which the dedup agent detects and stores
as a unique page instead.

Two matching strategies are combined:

* an *aligned* fast path for equal-sized buffers (the overwhelmingly
  common page-vs-base-page case), fully vectorised with numpy; and
* an *anchor-hash* path (greedy, xdelta-style) that finds shifted
  matches, used when the aligned diff is poor — e.g. stack pages whose
  content ASLR shifted by a non-page amount.

``level`` mirrors xdelta3's compression levels loosely: the paper runs
level 1 to keep restores fast, which here maps to a sparser anchor index
and a larger minimum match.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_MAGIC = b"MP"
_VERSION = 1
_HEADER = struct.Struct("<2sBBIII")  # magic, version, flags, target_len, base_len, op_count
_COPY = struct.Struct("<BII")  # tag, src_off, length
_INSERT_HDR = struct.Struct("<BI")  # tag, length
_TAG_COPY = 0x01
_TAG_INSERT = 0x02

#: Minimum run of equal bytes worth a COPY op on the aligned path.  A COPY
#: costs 9 bytes of op encoding, so shorter runs are cheaper as literals.
MIN_COPY_RUN = 12
#: Anchor width for the shifted-match index.
ANCHOR_SIZE = 16
#: Minimum shifted match worth emitting.
MIN_ANCHOR_MATCH = 24
#: If the aligned patch exceeds this fraction of the target, try anchors.
ALIGNED_FALLBACK_RATIO = 0.25


@dataclass(frozen=True)
class CopyOp:
    """Copy ``length`` bytes from ``src_off`` in the base buffer."""

    src_off: int
    length: int


@dataclass(frozen=True)
class InsertOp:
    """Insert literal bytes."""

    data: bytes

    @property
    def length(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class Patch:
    """A delta from a base buffer to a target buffer."""

    ops: tuple[CopyOp | InsertOp, ...]
    target_len: int
    base_len: int

    def __post_init__(self) -> None:
        produced = sum(op.length for op in self.ops)
        if produced != self.target_len:
            raise ValueError(f"ops produce {produced} bytes, target is {self.target_len}")

    @cached_property
    def size_bytes(self) -> int:
        """Encoded patch size — the memory cost of keeping this page deduped.

        Cached: the dedup agent consults it repeatedly (fallback checks,
        unique-page cutoffs, retained-bytes accounting) and the ops are
        immutable.  The cache lands in the instance ``__dict__`` directly,
        which a frozen dataclass permits and ``__eq__`` ignores.
        """
        size = _HEADER.size
        for op in self.ops:
            if isinstance(op, CopyOp):
                size += _COPY.size
            else:
                size += _INSERT_HDR.size + op.length
        return size

    @property
    def copied_bytes(self) -> int:
        """Bytes sourced from the base buffer (the deduplicated volume)."""
        return sum(op.length for op in self.ops if isinstance(op, CopyOp))

    @property
    def literal_bytes(self) -> int:
        """Bytes carried literally inside the patch."""
        return sum(op.length for op in self.ops if isinstance(op, InsertOp))

    def serialize(self) -> bytes:
        """Encode to the on-wire/in-memory byte format."""
        parts = [_HEADER.pack(_MAGIC, _VERSION, 0, self.target_len, self.base_len, len(self.ops))]
        for op in self.ops:
            if isinstance(op, CopyOp):
                parts.append(_COPY.pack(_TAG_COPY, op.src_off, op.length))
            else:
                parts.append(_INSERT_HDR.pack(_TAG_INSERT, op.length))
                parts.append(op.data)
        return b"".join(parts)

    @classmethod
    def deserialize(cls, blob: bytes) -> "Patch":
        """Decode a patch previously produced by :meth:`serialize`.

        Raises :class:`ValueError` for any malformed input — truncation at
        any boundary, a bad magic/version, an unknown op tag, or ops that
        do not reconstruct ``target_len`` bytes — never ``IndexError`` or
        ``struct.error``.
        """
        if len(blob) < _HEADER.size:
            raise ValueError("patch blob truncated: missing header")
        magic, version, _flags, target_len, base_len, op_count = _HEADER.unpack_from(blob, 0)
        if magic != _MAGIC or version != _VERSION:
            raise ValueError("not a valid patch blob")
        pos = _HEADER.size
        ops: list[CopyOp | InsertOp] = []
        for _ in range(op_count):
            if pos >= len(blob):
                raise ValueError("patch blob truncated: missing op tag")
            tag = blob[pos]
            if tag == _TAG_COPY:
                if pos + _COPY.size > len(blob):
                    raise ValueError("patch blob truncated: partial COPY op")
                _, src_off, length = _COPY.unpack_from(blob, pos)
                ops.append(CopyOp(src_off=src_off, length=length))
                pos += _COPY.size
            elif tag == _TAG_INSERT:
                if pos + _INSERT_HDR.size > len(blob):
                    raise ValueError("patch blob truncated: partial INSERT header")
                _, length = _INSERT_HDR.unpack_from(blob, pos)
                pos += _INSERT_HDR.size
                if pos + length > len(blob):
                    raise ValueError("patch blob truncated: partial INSERT data")
                ops.append(InsertOp(data=bytes(blob[pos : pos + length])))
                pos += length
            else:
                raise ValueError(f"unknown op tag {tag:#x}")
        try:
            patch = cls(ops=tuple(ops), target_len=target_len, base_len=base_len)
        except ValueError as exc:
            raise ValueError(f"inconsistent patch blob: {exc}") from exc
        return patch


def _as_array(buf: bytes | np.ndarray) -> np.ndarray:
    if isinstance(buf, np.ndarray):
        if buf.dtype != np.uint8:
            raise ValueError("expected uint8 array")
        return buf
    return np.frombuffer(buf, dtype=np.uint8)


def _ops_from_aligned_runs(
    target_bytes: bytes, first_unequal: bool, bounds: list[int]
) -> list[CopyOp | InsertOp]:
    """Build aligned ops from precomputed equal/unequal run boundaries.

    Runs strictly alternate equal/unequal, so only the first run's kind
    is needed.  Pending literal runs are contiguous between COPY
    emissions, so they flush as one slice of the target bytes.
    """
    ops: list[CopyOp | InsertOp] = []
    pend_start = -1
    pend_end = 0
    run_equal = not first_unequal
    for start, end in zip(bounds[:-1], bounds[1:]):
        if run_equal and end - start >= MIN_COPY_RUN:
            if pend_start >= 0:
                ops.append(InsertOp(data=target_bytes[pend_start:pend_end]))
                pend_start = -1
            ops.append(CopyOp(src_off=start, length=end - start))
        else:
            if pend_start < 0:
                pend_start = start
            pend_end = end
        run_equal = not run_equal
    if pend_start >= 0:
        ops.append(InsertOp(data=target_bytes[pend_start:pend_end]))
    return ops


def _aligned_ops(target: np.ndarray, base: np.ndarray) -> list[CopyOp | InsertOp]:
    """Ops for equal-length buffers using a vectorised same-offset diff."""
    n = len(target)
    if n == 0:
        return []
    neq = target != base
    # Boundaries of equal/unequal runs.
    change = np.flatnonzero(np.diff(neq.astype(np.int8)))
    bounds = [0, *(change + 1).tolist(), n]
    return _ops_from_aligned_runs(target.tobytes(), bool(neq[0]), bounds)


def _batch_aligned_runs(
    targets: np.ndarray, bases: np.ndarray
) -> list[tuple[bool, list[int]]]:
    """Equal/unequal run boundaries for many equal-length pairs at once.

    ``targets`` and ``bases`` are ``(k, n)`` uint8 arrays; row ``j``'s
    ``(first_unequal, bounds)`` describes the same alternating runs that
    :func:`_aligned_ops` derives, but the byte compare and run-boundary
    extraction happen once over the whole stack (the boolean XOR of
    adjacent columns skips the int8 widening an ``np.diff`` would need).
    """
    k, n = targets.shape
    neq = targets != bases
    rows, cols = np.nonzero(neq[:, 1:] != neq[:, :-1])
    splits = np.searchsorted(rows, np.arange(1, k))
    first_unequal = neq[:, 0].tolist()
    return [
        (first_unequal[j], [0, *(change + 1).tolist(), n])
        for j, change in enumerate(np.split(cols, splits))
    ]


def _aligned_size_from_runs(first_unequal: bool, bounds: list[int]) -> int:
    """Encoded size of the aligned patch, without materializing its ops.

    Mirrors :func:`_ops_from_aligned_runs` exactly: short equal runs fold
    into the pending literal, contiguous literals flush as one INSERT.
    Lets the batch path defer op construction until a pair's winner is
    known (most pairs that reach the anchor fallback never need the
    aligned ops themselves, just this size for the comparison).
    """
    size = _HEADER.size
    pend = 0
    run_equal = not first_unequal
    for start, end in zip(bounds[:-1], bounds[1:]):
        if run_equal and end - start >= MIN_COPY_RUN:
            if pend:
                size += _INSERT_HDR.size + pend
                pend = 0
            size += _COPY.size
        else:
            pend += end - start
        run_equal = not run_equal
    if pend:
        size += _INSERT_HDR.size + pend
    return size


def _match_len(a: np.ndarray, b: np.ndarray) -> int:
    """Length of the common prefix of ``a`` and ``b``."""
    n = min(len(a), len(b))
    if n == 0:
        return 0
    neq = np.flatnonzero(a[:n] != b[:n])
    return int(neq[0]) if neq.size else n


def _back_match_len(target: np.ndarray, base: np.ndarray, i: int, src: int, limit: int) -> int:
    """Length of the common suffix of ``target[:i]`` and ``base[:src]``, capped.

    ``limit`` additionally bounds the extension (the greedy scan must not
    back up into bytes already consumed by earlier ops).
    """
    m = min(limit, src)
    if m <= 0:
        return 0
    neq = np.flatnonzero(target[i - m : i] != base[src - m : src])
    return m - (int(neq[-1]) + 1) if neq.size else m


def _window_values(target_bytes: bytes) -> np.ndarray:
    """Little-endian u64 window value at every byte offset (length n-7).

    Eight strided writes from the eight aligned ``frombuffer`` views —
    one pass over the buffer instead of one view per probe residue.
    """
    n = len(target_bytes)
    vals = np.empty(n - 7, dtype="<u8")
    for r in range(8):
        part = np.frombuffer(target_bytes, dtype="<u8", offset=r, count=(n - r) // 8)
        vals[r::8] = part[: len(range(r, n - 7, 8))]
    return vals


def batch_window_values(matrix: np.ndarray) -> np.ndarray:
    """:func:`_window_values` of every row of a ``(k, n)`` uint8 matrix.

    Row ``j`` equals ``_window_values(matrix[j].tobytes())``; the values
    build up as eight shifted-column accumulations over the whole stack,
    so probing ``k`` fallback targets costs ``k`` times fewer numpy
    dispatches than per-target calls.  Requires ``n >= 8``.
    """
    if matrix.ndim != 2 or matrix.dtype != np.uint8:
        raise ValueError("expected a (k, n) uint8 matrix")
    k, n = matrix.shape
    if n < 8:
        raise ValueError("rows must hold at least one 8-byte window")
    vals = np.zeros((k, n - 7), dtype=np.uint64)
    for b in range(8):
        vals |= matrix[:, b : n - 7 + b].astype(np.uint64) << np.uint64(8 * b)
    return vals


@dataclass(frozen=True)
class AnchorIndex:
    """Prebuilt anchor index over a base buffer.

    Each indexed window is keyed by its exact 16 bytes, packed as two
    little-endian uint64 halves (``a``, ``b``) so lookups are native
    integer searchsorted instead of byte-string hashing.  Entries are
    sorted by ``(a, b)`` with duplicate windows collapsed to their
    smallest base offset — a leftmost binary search therefore reproduces
    the first-offset-wins semantics of a dict built with ``setdefault``.

    Building the index is the expensive half of anchor matching and
    depends only on the base bytes and the level, so callers patching
    many targets against the same base — the dedup agent's batch path,
    where hot base pages recur across ops — build it once and reuse it.
    """

    base_len: int
    level: int
    a: np.ndarray
    b: np.ndarray
    srcs: np.ndarray
    has_dup_a: bool
    #: Right boundary of the run of equal ``a`` values starting at each
    #: position (a leftmost search always lands on a run start, so this
    #: replaces the ``side="right"`` search at query time).
    aend: np.ndarray
    #: 4096-entry membership table over mixed bits of ``a`` — a probe
    #: whose slot is unset cannot match, which filters the ~99% of probe
    #: positions that miss before any binary search runs.
    seen: np.ndarray


_SEEN_SLOTS = 4096


def _seen_slots(a: np.ndarray) -> np.ndarray:
    """Table slots for key halves ``a``: xor-folded low bits."""
    folded = a ^ (a >> np.uint64(17)) ^ (a >> np.uint64(41))
    return folded & np.uint64(_SEEN_SLOTS - 1)


def build_anchor_index(base: bytes | np.ndarray, level: int = 1) -> AnchorIndex:
    """Index the anchor windows of ``base`` for :func:`compute_patch`."""
    b_arr = _as_array(base)
    step = max(1, ANCHOR_SIZE // 2) if level <= 1 else max(1, ANCHOR_SIZE // 4)
    m = len(b_arr) - ANCHOR_SIZE + 1
    if m <= 0:
        empty = np.empty(0, dtype=np.uint64)
        return AnchorIndex(
            base_len=len(b_arr),
            level=level,
            a=empty,
            b=empty,
            srcs=np.empty(0, dtype=np.int64),
            has_dup_a=False,
            aend=np.empty(0, dtype=np.int64),
            seen=np.zeros(_SEEN_SLOTS, dtype=bool),
        )
    base_bytes = b_arr.tobytes()
    offs = np.arange(0, m, step, dtype=np.int64)
    # One window-value pass serves both key halves (offs + 8 is at most
    # the last window start, m - 1 + 8 <= len - 8).
    vals = _window_values(base_bytes)
    a = vals[offs]
    b = vals[offs + 8]
    order = np.lexsort((offs, b, a))
    a, b, offs = a[order], b[order], offs[order]
    if len(a) > 1:
        keep = np.concatenate(([True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])))
        a, b, offs = a[keep], b[keep], offs[keep]
    has_dup_a = bool((a[1:] == a[:-1]).any()) if len(a) > 1 else False
    aend = np.searchsorted(a, a, side="right")
    seen = np.zeros(_SEEN_SLOTS, dtype=bool)
    seen[_seen_slots(a)] = True
    return AnchorIndex(
        base_len=len(b_arr),
        level=level,
        a=a,
        b=b,
        srcs=offs,
        has_dup_a=has_dup_a,
        aend=aend,
        seen=seen,
    )


_EMPTY_I64 = np.empty(0, dtype=np.int64)


def _candidates_at(
    index: AnchorIndex,
    target_bytes: bytes,
    r: int,
    vals: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Matching (position, base offset) pairs at positions ``r`` mod 8.

    One strided u64 view yields both key halves of every window starting
    at ``r + 8k`` (the halves of position ``p`` are the view's elements
    ``k`` and ``k + 1``), and one searchsorted pass matches them all
    against the index.  Precomputed ``vals`` (window values, see
    :func:`batch_window_values`) replace the view with a stride-8 slice
    — ``vals[r::8]`` holds exactly the view's elements.
    """
    n = len(target_bytes)
    count = (n - r) // 8
    kmax = min(count - 1, (n - ANCHOR_SIZE - r) // 8 + 1)
    if kmax <= 0 or not len(index.a):
        return _EMPTY_I64, _EMPTY_I64
    if vals is None:
        u = np.frombuffer(target_bytes, dtype="<u8", offset=r, count=count)
    else:
        u = vals[r::8]
    all_a = u[:kmax]
    sel = index.seen[_seen_slots(all_a)].nonzero()[0]
    if not sel.size:
        return _EMPTY_I64, _EMPTY_I64
    ta = all_a[sel]
    tb = u[sel + 1]
    ks, srcs = _match_candidates(index, ta, tb, sel)
    return r + 8 * ks, srcs


def _candidates_all(
    index: AnchorIndex,
    target_bytes: bytes,
    vals: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Matching (position, base offset) pairs at *every* byte position.

    The dense-probe (``probe_step == 1``) counterpart of
    :func:`_candidates_at`: instead of eight residue sweeps concatenated
    and re-sorted, one window-value pass covers all positions, and the
    ``seen`` prefilter output is already in position order.  A batch
    caller passes precomputed ``vals`` to skip even that pass.
    """
    n = len(target_bytes)
    kmax = n - ANCHOR_SIZE + 1
    if kmax <= 0 or not len(index.a):
        return _EMPTY_I64, _EMPTY_I64
    if vals is None:
        vals = _window_values(target_bytes)
    all_a = vals[:kmax]
    sel = index.seen[_seen_slots(all_a)].nonzero()[0]
    if not sel.size:
        return _EMPTY_I64, _EMPTY_I64
    ta = all_a[sel]
    tb = vals[sel + 8]
    return _match_candidates(index, ta, tb, sel)


def _match_candidates(
    index: AnchorIndex, ta: np.ndarray, tb: np.ndarray, sel: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``sel`` whose (ta, tb) key exists in ``index``.

    Returns ``(ks, srcs)`` sorted by position, where ``ks`` is drawn from
    ``sel`` and ``srcs`` is the matched base offset of each.
    """
    lo = np.searchsorted(index.a, ta)
    loc = np.minimum(lo, len(index.a) - 1)
    amatch = index.a[loc] == ta
    if not index.has_dup_a:
        hit = (amatch & (index.b[loc] == tb)).nonzero()[0]
        ks = sel[hit]
        srcs = index.srcs[loc[hit]]
    else:
        # A leftmost search lands on the start of the run of equal ``a``
        # values, so the run's end is just a table lookup.
        hi = index.aend[loc]
        run = hi - lo
        single = (amatch & (run == 1) & (index.b[loc] == tb)).nonzero()[0]
        ks_list = sel[single].tolist()
        srcs_list = index.srcs[loc[single]].tolist()
        for k in (amatch & (run > 1)).nonzero()[0].tolist():
            l, h = int(lo[k]), int(hi[k])
            j = l + int(np.searchsorted(index.b[l:h], tb[k]))
            if j < h and index.b[j] == tb[k]:
                ks_list.append(int(sel[k]))
                srcs_list.append(int(index.srcs[j]))
        if not ks_list:
            return _EMPTY_I64, _EMPTY_I64
        ks = np.asarray(ks_list, dtype=np.int64)
        srcs = np.asarray(srcs_list, dtype=np.int64)
        order = np.argsort(ks, kind="stable")
        ks, srcs = ks[order], srcs[order]
    return ks, srcs


def _anchor_ops(
    target: np.ndarray,
    base: np.ndarray,
    level: int,
    index: AnchorIndex | None = None,
    window_values: np.ndarray | None = None,
) -> list[CopyOp | InsertOp]:
    """Greedy xdelta-style ops using an anchor-hash index over the base.

    ``level`` trades patch size for speed, like xdelta3's compression
    levels: level 1 (the paper's choice, for fast restores) probes the
    target sparsely (every ``probe_step`` bytes) against a half-anchor-
    spaced base index; level >= 2 probes every byte.  Backward extension
    of each hit recovers bytes a sparse probe skipped over.

    The probe is vectorised: a probe from position ``p`` only ever lands
    on positions ``p + k * probe_step``, so candidate matches are
    computed per position-residue class (lazily, one searchsorted sweep
    each) and the greedy scan jumps straight to the next hit with a
    binary search instead of hashing window by window.  The resulting
    ops are byte-identical to the scalar scan's.  A prebuilt ``index``
    (see :class:`AnchorIndex`) skips re-hashing the base; a stale one
    (wrong level or base length) is ignored and rebuilt.  Precomputed
    ``window_values`` of the target (one row of
    :func:`batch_window_values` — the batch path hashes the probe
    positions of *all* its fallback targets in one call) feed the
    candidate sweeps directly.
    """
    if index is None or index.level != level or index.base_len != len(base):
        index = build_anchor_index(base, level)
    probe_step = 8 if level <= 1 else 1
    n = len(target)
    target_bytes = target.tobytes()
    ops: list[CopyOp | InsertOp] = []
    pending_start = 0

    chains: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def chain(residue: int) -> tuple[np.ndarray, np.ndarray]:
        cached = chains.get(residue)
        if cached is None:
            if probe_step == 1:
                cached = _candidates_all(index, target_bytes, window_values)
            else:
                cached = _candidates_at(index, target_bytes, residue, window_values)
            chains[residue] = cached
        return cached

    i = 0
    while True:
        # Probe forward from i for the next match >= MIN_ANCHOR_MATCH.
        accepted = None
        while True:
            cpos, csrcs = chain(i % probe_step)
            j = np.searchsorted(cpos, i)
            if j >= len(cpos):
                break
            c, src = int(cpos[j]), int(csrcs[j])
            fwd = ANCHOR_SIZE + _match_len(target[c + ANCHOR_SIZE :], base[src + ANCHOR_SIZE :])
            back = _back_match_len(target, base, c, src, c - pending_start)
            if fwd + back >= MIN_ANCHOR_MATCH:
                accepted = (c, src, fwd + back, back)
                break
            i = c + probe_step
        if accepted is None:
            break
        c, src, length, back = accepted
        lit_end = c - back
        if lit_end > pending_start:
            ops.append(InsertOp(data=target_bytes[pending_start:lit_end]))
        ops.append(CopyOp(src_off=src - back, length=length))
        i = lit_end + length
        pending_start = i
    if pending_start < n:
        ops.append(InsertOp(data=target_bytes[pending_start:]))
    return ops


def _anchor_ops_scalar(
    target: np.ndarray, base: np.ndarray, level: int
) -> list[CopyOp | InsertOp]:
    """Reference anchor matcher: the straightforward window-by-window scan.

    This is the original page-at-a-time implementation — a dict of base
    windows probed one target window at a time — kept verbatim as the
    behavioural oracle for :func:`_anchor_ops` (the vectorised scan must
    produce byte-identical ops) and as the honest baseline the batch
    pipeline's throughput is measured against.
    """
    step = max(1, ANCHOR_SIZE // 2) if level <= 1 else max(1, ANCHOR_SIZE // 4)
    probe_step = 8 if level <= 1 else 1
    base_bytes = base.tobytes()
    index: dict[bytes, int] = {}
    for off in range(0, len(base_bytes) - ANCHOR_SIZE + 1, step):
        index.setdefault(base_bytes[off : off + ANCHOR_SIZE], off)

    target_bytes = target.tobytes()
    ops: list[CopyOp | InsertOp] = []
    pending_start = 0
    i = 0
    n = len(target_bytes)
    while i <= n - ANCHOR_SIZE:
        src = index.get(target_bytes[i : i + ANCHOR_SIZE])
        if src is None:
            i += probe_step
            continue
        # Extend forward from the anchor.
        fwd = ANCHOR_SIZE + _match_len(target[i + ANCHOR_SIZE :], base[src + ANCHOR_SIZE :])
        # Extend backward into the pending literal run.
        back = 0
        while (
            i - back > pending_start
            and src - back > 0
            and target_bytes[i - back - 1] == base_bytes[src - back - 1]
        ):
            back += 1
        length = fwd + back
        if length < MIN_ANCHOR_MATCH:
            i += probe_step
            continue
        lit_end = i - back
        if lit_end > pending_start:
            ops.append(InsertOp(data=target_bytes[pending_start:lit_end]))
        ops.append(CopyOp(src_off=src - back, length=length))
        i = i - back + length
        pending_start = i
    if pending_start < n:
        ops.append(InsertOp(data=target_bytes[pending_start:]))
    return ops


def compute_patch_reference(
    target: bytes | np.ndarray,
    base: bytes | np.ndarray,
    *,
    level: int = 1,
) -> Patch:
    """Reference :func:`compute_patch`: one page at a time, no indexes.

    Same fallback policy and byte-identical output, but anchor matching
    uses the scalar window-by-window scan.  The per-page dedup path uses
    this so batch-vs-reference comparisons measure the vectorised
    pipeline against the unoptimised original, not against itself.
    """
    t = _as_array(target)
    b = _as_array(base)
    if len(t) == len(b):
        ops = _aligned_ops(t, b)
        patch = Patch(ops=tuple(ops), target_len=len(t), base_len=len(b))
        if patch.size_bytes <= max(64, int(len(t) * ALIGNED_FALLBACK_RATIO)):
            return patch
        alt = Patch(
            ops=tuple(_anchor_ops_scalar(t, b, level)),
            target_len=len(t),
            base_len=len(b),
        )
        return alt if alt.size_bytes < patch.size_bytes else patch
    ops = _anchor_ops_scalar(t, b, level)
    return Patch(ops=tuple(ops), target_len=len(t), base_len=len(b))


def compute_patch(
    target: bytes | np.ndarray,
    base: bytes | np.ndarray,
    *,
    level: int = 1,
    anchor_index: AnchorIndex | None = None,
) -> Patch:
    """Compute a delta expressing ``target`` in terms of ``base``.

    Always correct (round-trips byte-exactly); strives for small patches
    on similar inputs.  Equal-length inputs take the vectorised aligned
    path and fall back to anchor matching only when the aligned patch is
    poor; unequal lengths always use anchor matching.  ``anchor_index``
    supplies a prebuilt index of ``base`` (see :func:`build_anchor_index`)
    so repeat patches against one base skip re-indexing; a stale index
    (wrong level or base length) is ignored and rebuilt.
    """
    t = _as_array(target)
    b = _as_array(base)
    if len(t) == len(b):
        ops = _aligned_ops(t, b)
        patch = Patch(ops=tuple(ops), target_len=len(t), base_len=len(b))
        if patch.size_bytes <= max(64, int(len(t) * ALIGNED_FALLBACK_RATIO)):
            return patch
        alt = Patch(
            ops=tuple(_anchor_ops(t, b, level, index=anchor_index)),
            target_len=len(t),
            base_len=len(b),
        )
        return alt if alt.size_bytes < patch.size_bytes else patch
    ops = _anchor_ops(t, b, level, index=anchor_index)
    return Patch(ops=tuple(ops), target_len=len(t), base_len=len(b))


def compute_patches(
    targets: "list[bytes | np.ndarray]",
    bases: "list[bytes | np.ndarray]",
    *,
    level: int = 1,
    index_provider=None,
) -> list[Patch]:
    """Batched :func:`compute_patch` over pairwise ``targets``/``bases``.

    Produces exactly ``[compute_patch(t, b) for t, b in zip(...)]``, but
    equal-length pairs (the page-vs-base-page common case) are grouped by
    length and diffed in one 2-D numpy pass, so the per-pair dispatch
    overhead of the aligned path is paid once per batch.  Only pairs
    whose aligned patch is poor proceed to anchor matching.

    ``index_provider(j)`` may return a prebuilt :class:`AnchorIndex` for
    pair ``j`` (or ``None``); it is only consulted for pairs that reach
    the anchor fallback, so callers can build/cache indexes lazily.
    """
    if len(targets) != len(bases):
        raise ValueError("targets/bases length mismatch")
    t_arrs = [_as_array(t) for t in targets]
    b_arrs = [_as_array(b) for b in bases]
    patches: list[Patch | None] = [None] * len(t_arrs)

    def _index_for(j: int) -> AnchorIndex | None:
        return index_provider(j) if index_provider is not None else None

    by_len: dict[int, list[int]] = {}
    for j, (t, b) in enumerate(zip(t_arrs, b_arrs)):
        if len(t) == len(b):
            by_len.setdefault(len(t), []).append(j)
    for n, idxs in by_len.items():
        if n == 0:
            for j in idxs:
                patches[j] = Patch(ops=(), target_len=0, base_len=0)
            continue
        stack_t = np.stack([t_arrs[j] for j in idxs])
        stack_b = np.stack([b_arrs[j] for j in idxs])
        threshold = max(64, int(n * ALIGNED_FALLBACK_RATIO))
        runs = _batch_aligned_runs(stack_t, stack_b)
        # Size every aligned patch analytically first; only the winning
        # candidate's ops are ever materialized.  Pairs whose aligned
        # diff is poor fall back to anchor matching — their probe
        # positions are hashed in one batched pass over the stack rather
        # than per target.
        sizes = [_aligned_size_from_runs(fu, bounds) for fu, bounds in runs]
        fallback = [pos for pos, size in enumerate(sizes) if size > threshold]
        window_vals: dict[int, np.ndarray] = {}
        if fallback and n >= ANCHOR_SIZE:
            stacked = batch_window_values(stack_t[fallback])
            window_vals = {pos: stacked[q] for q, pos in enumerate(fallback)}
        for pos, (j, (first_unequal, bounds)) in enumerate(zip(idxs, runs)):
            aligned_size = sizes[pos]
            if aligned_size > threshold:
                alt = Patch(
                    ops=tuple(
                        _anchor_ops(
                            t_arrs[j],
                            b_arrs[j],
                            level,
                            index=_index_for(j),
                            window_values=window_vals.get(pos),
                        )
                    ),
                    target_len=n,
                    base_len=n,
                )
                if alt.size_bytes < aligned_size:
                    patches[j] = alt
                    continue
            ops = _ops_from_aligned_runs(t_arrs[j].tobytes(), first_unequal, bounds)
            patch = Patch(ops=tuple(ops), target_len=n, base_len=n)
            patch.__dict__["size_bytes"] = aligned_size  # pre-seed the cache
            patches[j] = patch
    for j, patch in enumerate(patches):
        if patch is None:  # unequal lengths: anchor matching only
            patches[j] = compute_patch(
                t_arrs[j], b_arrs[j], level=level, anchor_index=_index_for(j)
            )
    return patches  # type: ignore[return-value]


def apply_patch(patch: Patch, base: bytes | np.ndarray) -> bytes:
    """Reconstruct the target buffer from ``patch`` and ``base``."""
    b = _as_array(base)
    if len(b) != patch.base_len:
        raise ValueError(f"base length {len(b)} != patch base_len {patch.base_len}")
    out = bytearray()
    for op in patch.ops:
        if isinstance(op, CopyOp):
            if op.src_off + op.length > len(b):
                raise ValueError("COPY op out of base bounds")
            out += b[op.src_off : op.src_off + op.length].tobytes()
        else:
            out += op.data
    if len(out) != patch.target_len:
        raise AssertionError("patch application produced wrong length")
    return bytes(out)
