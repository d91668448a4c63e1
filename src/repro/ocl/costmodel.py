"""Analytic device performance model for SimCL.

The execution engines *functionally* execute every kernel and, while doing
so, fill a :class:`CostCounters` with dynamic counts: weighted ALU
operations, global/local memory traffic, memory *transactions* (derived
from the real per-warp address streams, so coalescing is measured, not
assumed), and barriers.  :func:`kernel_time` converts those counts into a
simulated execution time for a given :class:`DeviceSpec`.

The model is a standard throughput/roofline hybrid:

* **GPU**: compute time and memory time overlap, so the kernel time is
  ``max(compute, memory) + launch overhead``.  Compute throughput is
  ``compute_units x clock x ipc`` weighted-ops per second (fp64 ops are
  scaled by ``1/fp64_ratio``).  Memory time is
  ``transactions x segment_bytes / bandwidth``: scattered accesses cost
  whole segments, which is exactly why spmv sees a small fraction of the
  speedup EP sees — the first-order effect behind the spread in Figure 7.
* **CPU**: a serial/low-parallelism processor cannot overlap as deeply, so
  time is ``compute + memory`` with byte-accurate (not segment) traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .devicedb import DeviceSpec


@dataclass
class CostCounters:
    """Dynamic execution counts for one kernel launch (whole NDRange)."""

    work_items: int = 0
    work_groups: int = 0
    #: weighted ALU operations (1.0 == one fp32 add), excluding fp64
    alu_ops: float = 0.0
    #: weighted ALU operations executed in double precision
    fp64_ops: float = 0.0
    global_loads: int = 0
    global_stores: int = 0
    global_load_bytes: int = 0
    global_store_bytes: int = 0
    #: 128-byte-segment transactions measured from real address streams
    global_load_transactions: int = 0
    global_store_transactions: int = 0
    local_accesses: int = 0
    barriers: int = 0

    def merge(self, other: "CostCounters") -> None:
        """Accumulate ``other`` into ``self`` (used across launches)."""
        for f in ("alu_ops", "fp64_ops", "global_loads", "global_stores",
                  "global_load_bytes", "global_store_bytes",
                  "global_load_transactions", "global_store_transactions",
                  "local_accesses", "barriers"):
            setattr(self, f, getattr(self, f) + getattr(other, f))
        self.work_items = max(self.work_items, other.work_items)
        self.work_groups = max(self.work_groups, other.work_groups)

    @property
    def global_bytes(self) -> int:
        return self.global_load_bytes + self.global_store_bytes

    @property
    def global_transactions(self) -> int:
        return (self.global_load_transactions
                + self.global_store_transactions)

    def scaled(self, factor: float) -> "CostCounters":
        """A copy with every extensive quantity multiplied by ``factor``.

        Used to extrapolate simulated time when a benchmark runs a scaled
        problem size (see EXPERIMENTS.md).
        """
        c = CostCounters(work_items=int(self.work_items * factor),
                         work_groups=int(self.work_groups * factor))
        for f in ("alu_ops", "fp64_ops", "local_accesses", "barriers"):
            setattr(c, f, getattr(self, f) * factor)
        for f in ("global_loads", "global_stores", "global_load_bytes",
                  "global_store_bytes", "global_load_transactions",
                  "global_store_transactions"):
            setattr(c, f, int(getattr(self, f) * factor))
        return c


@dataclass
class TimeBreakdown:
    """Simulated kernel time with its components, in seconds."""

    compute: float
    memory: float
    barrier: float
    launch: float
    total: float


def kernel_time(counters: CostCounters, spec: DeviceSpec) -> TimeBreakdown:
    """Simulated execution time of one launch on ``spec``."""
    throughput = spec.compute_units * spec.clock_ghz * 1e9 * spec.ipc
    weighted_ops = counters.alu_ops
    if counters.fp64_ops:
        if spec.fp64_ratio <= 0:
            raise ValueError(
                f"{spec.name} does not support double precision")
        weighted_ops += counters.fp64_ops / spec.fp64_ratio
    # local memory traffic shares ALU issue slots
    weighted_ops += counters.local_accesses * spec.local_access_cost
    compute = weighted_ops / throughput

    bw = spec.mem_bandwidth_gbs * 1e9
    if spec.is_cpu:
        memory = counters.global_bytes / bw
    else:
        memory = counters.global_transactions * spec.segment_bytes / bw

    barrier = (counters.barriers * spec.barrier_cycles
               / (spec.clock_ghz * 1e9))
    launch = spec.launch_overhead_us * 1e-6

    if spec.is_cpu:
        total = compute + memory + barrier + launch
    else:
        total = max(compute, memory) + barrier + launch
    return TimeBreakdown(compute=compute, memory=memory, barrier=barrier,
                         launch=launch, total=total)


def transfer_time(nbytes: int, spec: DeviceSpec) -> float:
    """Simulated host<->device transfer time for ``nbytes``, seconds."""
    if nbytes <= 0:
        return spec.transfer_latency_us * 1e-6
    return (spec.transfer_latency_us * 1e-6
            + nbytes / (spec.transfer_gbs * 1e9))


# -- coalescing ----------------------------------------------------------------

def _count_segment_transactions(segments, warp_ids, warp_width: int):
    """Distinct ``(warp, segment)`` pairs for per-lane segment indices.

    ``warp_width`` is an optional caller promise that
    ``warp_ids == arange(n) // warp_width`` (every warp full, lanes
    warp-major) — the shape every engine produces when no lane is
    masked off.  It replaces the O(n log n) sort of combined keys with
    one short per-warp (axis-1) sort, or no sort at all when every
    warp's segments ascend (coalesced and strided accesses alike).
    """
    import numpy as np

    n = len(segments)
    if n == 1:
        return 1
    if segments.dtype.kind == "u":
        segments = segments.astype(np.int64, copy=False)
    if 0 < warp_width < n and n % warp_width == 0:
        seg2d = segments.reshape(n // warp_width, warp_width)
        deltas = seg2d[:, 1:] - seg2d[:, :-1]
        if not (deltas < 0).any():
            # every warp ascending: each within-warp segment change is
            # one extra transaction
            return (n // warp_width) + int(np.count_nonzero(deltas))
        rows = np.sort(seg2d, axis=1)
        return (n // warp_width) + int(
            np.count_nonzero(rows[:, 1:] != rows[:, :-1]))
    # distinct-count via sort: equivalent to np.unique(keys).size but
    # without the hash table; the sorted linear pass first because
    # already-ascending key streams are the common masked pattern
    keys = (warp_ids.astype(np.int64, copy=False) * (1 << 40)
            + segments.astype(np.int64, copy=False))
    deltas = keys[1:] - keys[:-1]
    if not (deltas < 0).any():
        return 1 + int(np.count_nonzero(deltas))
    keys.sort()
    return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))


def count_transactions(byte_addresses, warp_ids, segment_bytes: int,
                       warp_width: int = 0):
    """Number of memory transactions for a vector of accesses.

    ``byte_addresses`` and ``warp_ids`` are equal-length integer arrays:
    the byte address each active lane touches and the warp each lane
    belongs to.  A transaction is one distinct ``segment_bytes``-sized
    segment touched by one warp — the Fermi-style coalescing rule.
    """
    if len(byte_addresses) == 0:
        return 0
    return _count_segment_transactions(byte_addresses // segment_bytes,
                                       warp_ids, warp_width)


def count_index_transactions(indices, warp_ids, segment_bytes: int,
                             itemsize: int, warp_width: int = 0):
    """:func:`count_transactions` taking element indices + item size.

    Equivalent to ``count_transactions(indices * itemsize, ...)`` but,
    for the power-of-two sizes every OpenCL scalar type has, derives
    the segment of each access with a single shift instead of a
    multiply plus a divide — this runs on every load/store span of
    every launch, so the saved passes are measurable.
    """
    n = len(indices)
    if n == 0:
        return 0
    ratio = segment_bytes // itemsize
    if ratio > 0 and segment_bytes == itemsize * ratio \
            and not (ratio & (ratio - 1)):
        segments = indices >> ratio.bit_length() - 1 if ratio > 1 \
            else indices
    else:
        import numpy as np
        segments = (indices.astype(np.int64, copy=False)
                    * itemsize) // segment_bytes
    return _count_segment_transactions(segments, warp_ids, warp_width)


#: (offset residue, dims, segment, item size, warp) -> transactions;
#: see count_affine_transactions()
_AFFINE_COUNTS: dict = {}


def _lattice(offset: int, dims):
    """The element index of every lane of an affine access, lanes in
    row-major order over ``dims`` (``((extent, stride), ...)``,
    outermost first)."""
    import numpy as np

    idx = np.array([offset], dtype=np.int64)
    for extent, stride in dims:
        idx = (idx[:, None]
               + stride * np.arange(extent, dtype=np.int64)).ravel()
    return idx


def _progression_segments(first: int, step: int, lanes: int,
                          seg: int) -> int:
    """Distinct segments ``lanes`` addresses ``first + step * i`` touch,
    in units of ``seg`` per segment: a step under a segment skips no
    segment between the lowest and highest address, and a longer one
    never repeats one."""
    if step == 0 or lanes == 1:
        return 1
    if abs(step) >= seg:
        return lanes
    low = first + min(0, step * (lanes - 1))
    return (low % seg + abs(step) * (lanes - 1)) // seg + 1


def _warp_segments(first: int, dims, unit: int, seg: int) -> int:
    """Distinct segments one warp touches: its lanes are the lattice
    ``dims`` from the address ``first``, in units of ``seg`` per
    segment and ``unit`` per element."""
    if len(dims) > 1:
        import numpy as np
        return int(np.unique(
            (first + _lattice(0, dims) * unit) // seg).size)
    if not dims:
        return 1
    return _progression_segments(first, dims[0][1] * unit, dims[0][0], seg)


def count_affine_transactions(offset: int, dims, segment_bytes: int,
                              itemsize: int, warp_width: int) -> int:
    """:func:`count_index_transactions` of a full launch whose lanes
    access an affine index: lane ``l`` with row-major coordinates
    ``c`` over ``dims`` (``((extent, stride), ...)``, outermost first)
    touches element ``offset + sum(stride_k * c_k)``, and its warp is
    ``l // max(1, warp_width)``.

    The count is exact and closed-form whenever every warp but a last,
    partial one covers the same box of coordinates: the innermost
    whole dimensions and an aligned run of the next one.  A segment
    index is ``floor(bytes / segment_bytes)``, so a warp's count
    depends only on its first byte offset modulo the segment.  The
    count is one warp's pattern counted at each residue of the warp
    starts: a single residue when every outer stride is a whole number
    of segments, otherwise a histogram of the starts.  A single
    dimension is a progression with a closed form per warp.  Warps
    that straddle an outer coordinate count over the materialised
    index.  Multi-dimensional forms are memoized on everything their
    count depends on.
    """
    g = math.gcd(itemsize, segment_bytes)
    unit, seg = itemsize // g, segment_bytes // g
    if len(dims) == 1:
        # a 1-D launch's index, or a 2-D one's that steps as one: the
        # warps are runs of one progression, each closed-form
        extent, stride = dims[0]
        w = max(1, warp_width)
        step = stride * unit
        full, rest = divmod(extent, w)
        if not full:
            return extent and _progression_segments(offset * unit, step,
                                                    extent, seg)
        if w == 1 or step * w % seg == 0:
            count = full * _progression_segments(offset * unit, step, w,
                                                  seg)
            if rest:
                count += _progression_segments(
                    (offset + stride * w * full) * unit, step, rest, seg)
            return count
    key = (offset * unit % seg, dims, segment_bytes, itemsize, warp_width)
    count = _AFFINE_COUNTS.get(key)
    if count is None:
        if len(_AFFINE_COUNTS) >= 256:
            _AFFINE_COUNTS.clear()
        count = _AFFINE_COUNTS[key] = _affine_count(
            offset, [d for d in dims if d[0] != 1], unit, seg,
            segment_bytes, itemsize, warp_width)
    return count


#: (offset residue, dims, segment, item size, warp) -> key run starts or
#: None; see count_masked_affine_transactions()
_AFFINE_RUNS: dict = {}


def _key_runs(offset: int, dims, segment_bytes: int, itemsize: int,
              warp_width: int):
    """The first lane of each run of consecutive lanes that share a
    ``(warp, segment)`` key in a full launch of an affine access (lanes
    and keys as in :func:`count_affine_transactions`), or None when
    there are more runs than keys: some key then fills two runs.
    Memoized on everything the runs depend on."""
    import numpy as np

    g = math.gcd(itemsize, segment_bytes)
    unit, seg = itemsize // g, segment_bytes // g
    key = (offset * unit % seg, dims, segment_bytes, itemsize, warp_width)
    if key in _AFFINE_RUNS:
        return _AFFINE_RUNS[key]
    segments = (key[0] + _lattice(0, dims) * unit) // seg
    change = segments[1:] != segments[:-1]
    w = max(1, warp_width)
    change[w - 1::w] = True             # each warp opens a new run
    starts = np.concatenate(([0], np.flatnonzero(change) + 1))
    if starts.size != count_affine_transactions(offset, dims, segment_bytes,
                                                itemsize, warp_width):
        starts = None
    if len(_AFFINE_RUNS) >= 256:
        _AFFINE_RUNS.clear()
    _AFFINE_RUNS[key] = starts
    return starts


def count_masked_affine_transactions(mask, offset: int, dims,
                                     segment_bytes: int, itemsize: int,
                                     warp_width: int):
    """:func:`count_index_transactions` of the active lanes of an
    affine access (``mask`` over every lane of the launch; lanes, warps
    and the index as in :func:`count_affine_transactions`), or None
    when the runs of the full launch cannot give it.

    A transaction is a distinct ``(warp, segment)`` key among the
    active lanes.  When the full launch has as many runs of equal
    consecutive keys as it has distinct keys, each key fills exactly
    one contiguous run of lanes.  The keys of the active lanes are then
    the keys of the runs holding an active lane, one per run, so the
    count is the number of runs with a lane set in ``mask``.  When the
    active lanes are fewer than the runs (Floyd's masked store runs at
    a median 0.47% of its lanes), each one's run is found by binary
    search on the run starts, which costs less than reducing the mask.
    """
    import numpy as np

    starts = _key_runs(offset, dims, segment_bytes, itemsize, warp_width)
    if starts is None:
        return None
    if np.count_nonzero(mask) < starts.size:
        # active lanes ascend, so their runs do: count the changes
        runs = np.searchsorted(starts, np.flatnonzero(mask), side="right")
        return int(runs.size and 1 + np.count_nonzero(runs[1:] != runs[:-1]))
    return int(np.count_nonzero(np.logical_or.reduceat(mask, starts)))


def _affine_count(offset: int, dims: list, unit: int, seg: int,
                  segment_bytes: int, itemsize: int,
                  warp_width: int) -> int:
    """The uncached :func:`count_affine_transactions`; ``dims`` holds
    no extent of 1, and addresses are in units of ``seg`` per segment
    and ``unit`` per element."""
    import numpy as np

    w = max(1, warp_width)
    start = offset * unit
    n = 1
    for extent, _stride in dims:
        n *= extent
    if n == 0:
        return 0
    # the warp box: whole inner dimensions, then q of dimension k
    inner, k = 1, len(dims) - 1
    while k >= 0 and w % (inner * dims[k][0]) == 0:
        inner *= dims[k][0]
        k -= 1
    if k < 0:                       # one warp holds every lane
        return _warp_segments(start, dims, unit, seg)
    q = w // inner
    extent, stride = dims[k]
    full, rest = divmod(extent, q)
    if rest and k:                  # warps straddle an outer coordinate
        lanes = np.arange(n, dtype=np.int64)
        return int(count_index_transactions(
            _lattice(offset, dims), lanes // w, segment_bytes, itemsize,
            warp_width))
    count = 0
    if full:
        box = [(q, stride)] + dims[k + 1:]
        outer = [(e, s * unit) for e, s in dims[:k] + [(full, stride * q)]
                 if e > 1]
        if q * inner == 1 or not [s for _e, s in outer if s % seg]:
            # one residue, or one lane per warp (a single segment)
            count = (n - rest * inner) // w * _warp_segments(
                start, box, unit, seg)
        else:
            res = np.bincount(_lattice(start, outer) % seg, minlength=seg)
            rs = np.flatnonzero(res)
            segs = (rs[:, None] + np.sort(
                _lattice(0, box) * unit)[None, :]) // seg
            per = 1 + np.count_nonzero(segs[:, 1:] != segs[:, :-1], axis=1)
            count = int((res[rs] * per).sum())
    if rest:                        # the last, partial warp
        count += _warp_segments(start + stride * q * full * unit,
                                [(rest, stride)] + dims[1:], unit, seg)
    return count
