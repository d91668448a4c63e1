"""Kernel profiler core: per-launch collectors and per-line statistics.

Every execution engine feeds this module.  When profiling is enabled a
launch gets a :class:`LaunchCollector`; the engines call its recording
methods from the exact sites that already update
:class:`~repro.ocl.costmodel.CostCounters`, so every counted ALU op,
memory access, transaction and barrier is *also* attributed to the
kernel source line the bytecode instruction carries.  The lock-step
engine additionally records SIMT facts the serial engine cannot see:
active-lane occupancy per instruction and per-branch divergence.

When the launch finishes, :func:`build_profile` converts the raw tallies
into a :class:`KernelProfile`: per-line modeled cost (the additive form
of the device cost model, so cost fractions are well-defined per line),
the launch's :func:`~repro.ocl.costmodel.kernel_time` breakdown, and a
roofline classification — arithmetic intensity against the device's
compute and bandwidth ceilings — labeling the kernel compute- or
memory-bound.

Import discipline: this module must not import :mod:`repro.ocl` (or
hpl/benchsuite) at module level — the engines import ``repro.prof``,
so the cost model is reached through function-local imports only.
"""

from __future__ import annotations

import threading


class LineStat:
    """Everything attributed to one source line of one kernel."""

    __slots__ = ("execs", "alu_ops", "fp64_ops", "loads", "stores",
                 "mem_bytes", "transactions", "local_accesses",
                 "barriers", "lane_slots", "active_lanes", "cost_seconds")

    _FIELDS = __slots__

    def __init__(self) -> None:
        self.execs = 0          # dynamic executions (1 per work-item)
        self.alu_ops = 0.0      # weighted fp32-equivalent ALU ops
        self.fp64_ops = 0.0
        self.loads = 0          # global loads (per work-item)
        self.stores = 0
        self.mem_bytes = 0      # global bytes moved
        self.transactions = 0   # coalesced memory transactions
        self.local_accesses = 0
        self.barriers = 0
        self.lane_slots = 0     # SIMT slots offered (lock-step engine only)
        self.active_lanes = 0   # SIMT slots actually active
        self.cost_seconds = 0.0  # modeled cost (filled by build_profile)

    @property
    def ops(self) -> float:
        return self.alu_ops + self.fp64_ops

    @property
    def occupancy(self) -> float:
        """Average active-lane fraction; 1.0 when lanes were not tracked."""
        if self.lane_slots <= 0:
            return 1.0
        return self.active_lanes / self.lane_slots

    def coalescing(self, segment_bytes: int) -> float:
        """Fraction of transferred segment bytes the kernel actually used."""
        if self.transactions <= 0 or segment_bytes <= 0:
            return 1.0
        return min(1.0, self.mem_bytes / (self.transactions
                                          * segment_bytes))

    def merge(self, other: "LineStat") -> None:
        for f in self._FIELDS:
            setattr(self, f, getattr(self, f) + getattr(other, f))

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in self._FIELDS}

    @classmethod
    def from_dict(cls, row: dict) -> "LineStat":
        rec = cls()
        for f in cls._FIELDS:
            if f in row:
                setattr(rec, f, row[f])
        return rec


class BranchStat:
    """Divergence record of one masked branch (lock-step engine)."""

    __slots__ = ("events", "divergent", "active_lanes", "taken_lanes")

    def __init__(self) -> None:
        self.events = 0          # times the branch executed
        self.divergent = 0       # executions where lanes split both ways
        self.active_lanes = 0    # lanes active at the branch, summed
        self.taken_lanes = 0     # lanes that took the then-side, summed

    @property
    def taken_fraction(self) -> float:
        if self.active_lanes <= 0:
            return 0.0
        return self.taken_lanes / self.active_lanes

    def add(self, active: int, taken: int) -> None:
        self.events += 1
        if 0 < taken < active:
            self.divergent += 1
        self.active_lanes += active
        self.taken_lanes += taken

    def merge(self, other: "BranchStat") -> None:
        self.events += other.events
        self.divergent += other.divergent
        self.active_lanes += other.active_lanes
        self.taken_lanes += other.taken_lanes

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__slots__}

    @classmethod
    def from_dict(cls, row: dict) -> "BranchStat":
        rec = cls()
        for f in cls.__slots__:
            if f in row:
                setattr(rec, f, row[f])
        return rec


class LaunchCollector:
    """Raw per-line tallies of one kernel launch (one engine run).

    The recording methods are called from the engines' hot loops, but
    only while profiling is enabled — disabled launches never allocate
    a collector, so the hot-loop cost of the feature when off is a
    single ``is not None`` check on a local.
    """

    __slots__ = ("kernel", "engine", "spec", "source", "work_items",
                 "work_groups", "lines", "branches")

    def __init__(self, kernel: str, engine: str, spec, source: str,
                 work_items: int, work_groups: int) -> None:
        self.kernel = kernel
        self.engine = engine
        self.spec = spec
        self.source = source
        self.work_items = work_items
        self.work_groups = work_groups
        self.lines: dict[int, LineStat] = {}
        self.branches: dict[int, BranchStat] = {}

    def _line(self, line: int) -> LineStat:
        rec = self.lines.get(line)
        if rec is None:
            rec = self.lines[line] = LineStat()
        return rec

    # -- recording (engine hot-loop API) -----------------------------------

    def op(self, line: int, execs: int, cost: float, is_double: bool,
           slots: int = 0) -> None:
        """``execs`` ALU executions of weighted ``cost`` each."""
        rec = self._line(line)
        rec.execs += execs
        if is_double:
            rec.fp64_ops += cost * execs
        else:
            rec.alu_ops += cost * execs
        rec.lane_slots += slots
        rec.active_lanes += execs if slots else 0

    def mem(self, line: int, execs: int, nbytes: int, tx: int,
            is_store: bool, slots: int = 0) -> None:
        """``execs`` global accesses moving ``nbytes`` in ``tx``
        transactions."""
        rec = self._line(line)
        rec.execs += execs
        if is_store:
            rec.stores += execs
        else:
            rec.loads += execs
        rec.mem_bytes += nbytes
        rec.transactions += tx
        rec.lane_slots += slots
        rec.active_lanes += execs if slots else 0

    def local(self, line: int, execs: int, slots: int = 0) -> None:
        rec = self._line(line)
        rec.execs += execs
        rec.local_accesses += execs
        rec.lane_slots += slots
        rec.active_lanes += execs if slots else 0

    def barrier(self, line: int, count: int) -> None:
        rec = self._line(line)
        rec.barriers += count

    def branch(self, line: int, active: int, taken: int) -> None:
        rec = self.branches.get(line)
        if rec is None:
            rec = self.branches[line] = BranchStat()
        rec.add(active, taken)


#: fields of CostCounters snapshot kept in a profile
_COUNTER_FIELDS = ("work_items", "work_groups", "alu_ops", "fp64_ops",
                   "global_loads", "global_stores", "global_load_bytes",
                   "global_store_bytes", "global_load_transactions",
                   "global_store_transactions", "local_accesses",
                   "barriers")

_SUMMED_SCALARS = ("compute_s", "memory_s", "barrier_s", "launch_s",
                   "total_s", "weighted_ops", "bytes_moved")


class KernelProfile:
    """One kernel's profile: per-line cost, divergence and roofline."""

    __slots__ = ("kernel", "engine", "device", "is_cpu", "work_items",
                 "work_groups", "launches", "lines", "branches",
                 "counters", "compute_s", "memory_s", "barrier_s",
                 "launch_s", "total_s", "weighted_ops", "bytes_moved",
                 "compute_ceiling", "bandwidth_ceiling", "segment_bytes",
                 "source")

    def __init__(self) -> None:
        self.kernel = ""
        self.engine = ""
        self.device = ""
        self.is_cpu = False
        self.work_items = 0
        self.work_groups = 0
        self.launches = 0
        self.lines: dict[int, LineStat] = {}
        self.branches: dict[int, BranchStat] = {}
        self.counters: dict = {}
        self.compute_s = 0.0
        self.memory_s = 0.0
        self.barrier_s = 0.0
        self.launch_s = 0.0
        self.total_s = 0.0
        self.weighted_ops = 0.0   # fp32-equivalent ops (fp64 re-weighted)
        self.bytes_moved = 0.0    # segment bytes (GPU) / exact bytes (CPU)
        self.compute_ceiling = 0.0   # weighted ops / second
        self.bandwidth_ceiling = 0.0  # bytes / second
        self.segment_bytes = 0
        self.source = ""

    # -- derived -----------------------------------------------------------

    @property
    def key(self) -> tuple:
        return (self.kernel, self.engine, self.device)

    @property
    def arithmetic_intensity(self) -> float:
        """Weighted ops per byte of global traffic."""
        if self.bytes_moved <= 0:
            return float("inf")
        return self.weighted_ops / self.bytes_moved

    @property
    def ridge_point(self) -> float:
        """AI at which the roofline's two ceilings meet (ops/byte)."""
        if self.bandwidth_ceiling <= 0:
            return float("inf")
        return self.compute_ceiling / self.bandwidth_ceiling

    @property
    def bound(self) -> str:
        """``"compute"`` or ``"memory"`` — which ceiling binds."""
        return "compute" if self.compute_s >= self.memory_s else "memory"

    def line_cost_total(self) -> float:
        return sum(rec.cost_seconds for rec in self.lines.values())

    def attributed_fraction(self) -> float:
        """Fraction of modeled per-line cost on real (non-zero) lines."""
        total = self.line_cost_total()
        if total <= 0:
            return 1.0
        attributed = sum(rec.cost_seconds
                         for line, rec in self.lines.items() if line > 0)
        return attributed / total

    def divergent_branches(self) -> list[tuple[int, BranchStat]]:
        """(line, stat) of branches that actually split lanes, worst
        first (by divergent executions, then by lane imbalance)."""
        out = [(line, rec) for line, rec in self.branches.items()
               if rec.divergent > 0]
        out.sort(key=lambda kv: (-kv[1].divergent,
                                 abs(kv[1].taken_fraction - 0.5)))
        return out

    # -- aggregation -------------------------------------------------------

    def merge(self, other: "KernelProfile") -> None:
        """Fold another launch of the same kernel into this profile."""
        self.launches += other.launches
        self.work_items = max(self.work_items, other.work_items)
        self.work_groups = max(self.work_groups, other.work_groups)
        for f in _SUMMED_SCALARS:
            setattr(self, f, getattr(self, f) + getattr(other, f))
        for name, value in other.counters.items():
            if name in ("work_items", "work_groups"):
                self.counters[name] = max(self.counters.get(name, 0), value)
            else:
                self.counters[name] = self.counters.get(name, 0) + value
        for line, rec in other.lines.items():
            mine = self.lines.get(line)
            if mine is None:
                self.lines[line] = LineStat.from_dict(rec.to_dict())
            else:
                mine.merge(rec)
        for line, rec in other.branches.items():
            mine = self.branches.get(line)
            if mine is None:
                self.branches[line] = BranchStat.from_dict(rec.to_dict())
            else:
                mine.merge(rec)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel, "engine": self.engine,
            "device": self.device, "is_cpu": self.is_cpu,
            "work_items": self.work_items,
            "work_groups": self.work_groups, "launches": self.launches,
            "counters": dict(self.counters),
            **{f: getattr(self, f) for f in _SUMMED_SCALARS},
            "compute_ceiling": self.compute_ceiling,
            "bandwidth_ceiling": self.bandwidth_ceiling,
            "segment_bytes": self.segment_bytes,
            "arithmetic_intensity": self.arithmetic_intensity
            if self.bytes_moved > 0 else None,
            "ridge_point": self.ridge_point,
            "bound": self.bound,
            "attributed_fraction": self.attributed_fraction(),
            "lines": {str(line): rec.to_dict()
                      for line, rec in sorted(self.lines.items())},
            "branches": {str(line): rec.to_dict()
                         for line, rec in sorted(self.branches.items())},
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, row: dict) -> "KernelProfile":
        p = cls()
        for f in ("kernel", "engine", "device", "is_cpu", "work_items",
                  "work_groups", "launches", "compute_ceiling",
                  "bandwidth_ceiling", "segment_bytes", "source"):
            if f in row:
                setattr(p, f, row[f])
        for f in _SUMMED_SCALARS:
            setattr(p, f, row.get(f, 0.0))
        p.counters = dict(row.get("counters") or {})
        p.lines = {int(line): LineStat.from_dict(rec)
                   for line, rec in (row.get("lines") or {}).items()}
        p.branches = {int(line): BranchStat.from_dict(rec)
                      for line, rec in (row.get("branches") or {}).items()}
        return p


def build_profile(col: LaunchCollector, counters) -> KernelProfile:
    """Finalize one launch: per-line modeled cost + roofline numbers."""
    from ..ocl.costmodel import kernel_time

    spec = col.spec
    p = KernelProfile()
    p.kernel = col.kernel
    p.engine = col.engine
    p.device = spec.name
    p.is_cpu = bool(spec.is_cpu)
    p.work_items = col.work_items
    p.work_groups = col.work_groups
    p.launches = 1
    p.lines = col.lines
    p.branches = col.branches
    p.counters = {f: getattr(counters, f) for f in _COUNTER_FIELDS}
    p.source = col.source
    p.segment_bytes = spec.segment_bytes

    clock_hz = spec.clock_ghz * 1e9
    p.compute_ceiling = spec.compute_units * clock_hz * spec.ipc
    p.bandwidth_ceiling = spec.mem_bandwidth_gbs * 1e9
    fp64_weight = 1.0 / spec.fp64_ratio if spec.fp64_ratio > 0 else 1.0
    barrier_s = spec.barrier_cycles / clock_hz

    p.weighted_ops = (counters.alu_ops + counters.fp64_ops * fp64_weight
                      + counters.local_accesses * spec.local_access_cost)
    if spec.is_cpu:
        p.bytes_moved = float(counters.global_bytes)
    else:
        p.bytes_moved = float(counters.global_transactions
                              * spec.segment_bytes)

    try:
        breakdown = kernel_time(counters, spec)
        p.compute_s = breakdown.compute
        p.memory_s = breakdown.memory
        p.barrier_s = breakdown.barrier
        p.launch_s = breakdown.launch
        p.total_s = breakdown.total
    except ValueError:
        # device can't model these counters (e.g. fp64 on a device
        # without it) — keep the raw tallies, leave times at zero
        pass

    for rec in p.lines.values():
        w = (rec.alu_ops + rec.fp64_ops * fp64_weight
             + rec.local_accesses * spec.local_access_cost)
        mem_bytes = (rec.mem_bytes if spec.is_cpu
                     else rec.transactions * spec.segment_bytes)
        rec.cost_seconds = (w / p.compute_ceiling
                            + mem_bytes / p.bandwidth_ceiling
                            + rec.barriers * barrier_s)
    return p


def merge_profiles(profiles) -> list[KernelProfile]:
    """Aggregate launches by (kernel, engine, device), insertion order."""
    merged: dict[tuple, KernelProfile] = {}
    for p in profiles:
        mine = merged.get(p.key)
        if mine is None:
            clone = KernelProfile.from_dict(p.to_dict())
            merged[p.key] = clone
        else:
            mine.merge(p)
    return list(merged.values())


class Profiler:
    """Process-global profile store; disabled by default."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._profiles: list[KernelProfile] = []

    # -- engine API --------------------------------------------------------

    def begin_launch(self, kernel: str, engine: str, spec, source: str,
                     work_items: int, work_groups: int):
        """A collector for the launch, or ``None`` while disabled."""
        if not self.enabled:
            return None
        return LaunchCollector(kernel, engine, spec, source,
                               work_items, work_groups)

    def finish_launch(self, col: LaunchCollector | None, counters):
        """Finalize a collector into a stored :class:`KernelProfile`.

        Also attaches a summary to the current trace span (when tracing
        is on) and bumps the ``prof.*`` metrics.
        """
        if col is None:
            return None
        from .. import trace

        profile = build_profile(col, counters)
        with self._lock:
            self._profiles.append(profile)

        span = trace.current_span()
        if span is not None:
            hot = max(profile.lines.items(),
                      key=lambda kv: kv[1].cost_seconds,
                      default=(0, None))[0]
            span.set_attrs(prof_bound=profile.bound,
                           prof_total_seconds=profile.total_s,
                           prof_hot_line=hot,
                           prof_attributed=round(
                               profile.attributed_fraction(), 4))
        registry = trace.get_registry()
        registry.counter("prof.launches").inc()
        registry.counter("prof.divergent_branches").inc(
            sum(1 for _line, rec in profile.branches.items()
                if rec.divergent))
        registry.gauge("prof.kernels").set(
            len({p.key for p in self._profiles}))
        return profile

    # -- results -----------------------------------------------------------

    def profiles(self) -> list[KernelProfile]:
        with self._lock:
            return list(self._profiles)

    def merged(self) -> list[KernelProfile]:
        return merge_profiles(self.profiles())

    def clear(self) -> None:
        with self._lock:
            self._profiles.clear()

    def drain(self) -> list[KernelProfile]:
        """Snapshot and clear (the benchsuite's per-target consumption)."""
        with self._lock:
            out = list(self._profiles)
            self._profiles.clear()
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._profiles)
