"""Multi-device / distributed-memory execution (§VII future work).

The paper closes by planning "to extend the high-productivity features
of HPL to handle distributed memory parallelism by running HPL on a
cluster of SMP nodes in which each node can contain multiple
heterogeneous computing devices".  This module implements that layer on
top of the simulated platform:

* a :class:`Cluster` is an ordered set of devices (possibly spanning the
  simulated "nodes" — every SimCL device has its own memory, so device
  boundaries already model node boundaries for data-movement purposes);
* :class:`DistributedArray` block-partitions a 1-D HPL Array across the
  cluster along its first dimension;
* :func:`cluster_eval` runs an elementwise-style kernel on every
  partition concurrently (owner-computes), giving each device its slice
  of every distributed argument plus the partition offset;
* a pluggable :class:`Scheduler` decides *how much* of the index space
  each device computes.  On a heterogeneous mix a uniform block split
  pins the makespan to the slowest device; the
  :class:`WeightedScheduler` sizes blocks from per-device throughput
  (device specs, refined by measured history — a self-calibrating
  feedback loop), and the :class:`DynamicScheduler` cuts the index
  space into guided chunks handed to devices as their event graphs
  drain, EngineCL-HGuided style.  See ``docs/cluster.md``.

Communication is staged through host memory (the "interconnect"), with
per-transfer costs accounted by each device's PCIe model — exactly how a
one-host multi-GPU OpenCL program moves data.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .. import trace
from ..errors import (ClusterExecutionError, DeadlineExceeded,
                      DeviceNotAvailable, DomainError, HPLError,
                      OutOfResources)
from ..ocl.faults import active_plan
from .array import Array
from .checkpoint import CheckpointStore
from .dtypes import HPLType
from .evaluator import prepare
from .runtime import HPLDevice, get_runtime
from .scalars import Int


def _block_bounds(n: int, k: int) -> list[tuple[int, int]]:
    """Contiguous near-even split of ``n`` elements into ``k`` blocks.

    With ``n < k`` the first ``n`` blocks get one element each and the
    rest are empty — callers skip empty partitions instead of failing.
    """
    if n < 0:
        raise DomainError(f"cannot partition {n} element(s)")
    if n < k:
        return [(min(i, n), min(i + 1, n)) for i in range(k)]
    base, extra = divmod(n, k)
    bounds = []
    start = 0
    for rank in range(k):
        size = base + (1 if rank < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


class Cluster:
    """An ordered group of HPL devices acting as one execution target."""

    def __init__(self, devices=None) -> None:
        if devices is None:
            devices = [d for d in get_runtime().devices if not d.is_cpu]
            if not devices:
                devices = list(get_runtime().devices)
        devices = list(devices)
        if not devices:
            raise HPLError("a Cluster needs at least one device")
        for d in devices:
            if not isinstance(d, HPLDevice):
                raise HPLError(f"{d!r} is not an HPL device")
        self.devices = devices
        #: devices removed from the rotation by :meth:`quarantine`
        self.lost: list = []

    def __len__(self) -> int:
        return len(self.devices)

    def __repr__(self) -> str:
        lost = f", {len(self.lost)} lost" if self.lost else ""
        return f"<Cluster of {len(self.devices)} device(s){lost}>"

    def quarantine(self, device: HPLDevice) -> None:
        """Remove a permanently failed device from the rotation.

        Called by :func:`cluster_eval`'s recovery path; subsequent
        plans see only the survivors.  Quarantining the last device
        raises :class:`ClusterExecutionError` — there is nobody left
        to compute."""
        if device not in self.devices:
            return
        if len(self.devices) == 1:
            raise ClusterExecutionError(
                f"device {device.label!r} failed permanently and no "
                "other device remains in the cluster")
        self.devices.remove(device)
        self.lost.append(device)

    def readmit(self, device: HPLDevice) -> None:
        """Return a quarantined device to the rotation.

        Called by :func:`cluster_eval`'s probation path after a health
        probe succeeds; no-op when the device was never quarantined.
        The device rejoins at the end of the roster (its old rank may
        have been reassigned while it was out)."""
        if device not in self.lost:
            return
        self.lost.remove(device)
        self.devices.append(device)

    def partition_bounds(self, n: int) -> list[tuple[int, int]]:
        """Contiguous block partition of ``n`` elements over the devices.

        When ``n`` is smaller than the cluster, the first ``n`` devices
        get one element each and the remaining partitions are empty
        (``lo == hi``); :func:`cluster_eval` skips empty partitions.
        """
        return _block_bounds(n, len(self.devices))


# -- scheduling -----------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """One contiguous block of the index space, owned by one device.

    ``rank`` is the owning device's position in the cluster.  Only
    schedulers that cut up front make partitions: a dynamic plan is
    empty, and its chunks are cut on demand for whichever device drains
    first.
    """

    lo: int
    hi: int
    rank: int

    @property
    def size(self) -> int:
        return self.hi - self.lo


def device_throughput(spec) -> float:
    """Spec-derived relative throughput estimate of one device.

    A pure compute proxy (``compute_units x clock x ipc``): exact for
    compute-bound kernels, pessimistic about memory-bound ones — which
    is why the weighted scheduler prefers *measured* per-kernel
    throughput once :class:`CalibrationStore` has seen the kernel run.
    """
    return spec.compute_units * spec.clock_ghz * spec.ipc


class CalibrationStore:
    """Measured per-(kernel, device) throughput history.

    Every :func:`cluster_eval` records, for each launch it made, the
    observed ``items / simulated second`` of that kernel on that device
    (an exponential moving average, so the estimate tracks the current
    problem regime).  The :class:`WeightedScheduler` consults this
    store before falling back to spec-derived estimates — closing the
    profiler -> cost-model -> scheduler feedback loop.

    Entries are keyed by device *identity* — the ``name#index`` label —
    never by bare model name: two same-model devices run at the same
    nominal speed but may see very different regimes (one behind a slow
    link, one quarantined and restored, one straggling under a fault
    plan), and merging their EMAs would corrupt both estimates.
    """

    #: EMA smoothing: weight of the newest observation
    ALPHA = 0.5

    def __init__(self) -> None:
        self._tput: dict = {}       # (kernel_name, device_label) -> it/s
        self._samples: dict = {}    # same key -> observation count

    @staticmethod
    def _label_of(device) -> str:
        """Accept an :class:`HPLDevice` or its ``name#index`` label."""
        return device if isinstance(device, str) else device.label

    def record(self, kernel_name: str, device,
               items: int, seconds: float) -> None:
        if items <= 0 or seconds <= 0.0:
            return
        key = (kernel_name, self._label_of(device))
        observed = items / seconds
        prev = self._tput.get(key)
        self._tput[key] = observed if prev is None \
            else self.ALPHA * observed + (1.0 - self.ALPHA) * prev
        self._samples[key] = self._samples.get(key, 0) + 1

    def throughput(self, kernel_name: str, device):
        """Measured items/second, or ``None`` if never observed.

        ``device`` is an :class:`HPLDevice` or its unique label
        (``name#index``)."""
        return self._tput.get((kernel_name, self._label_of(device)))

    def samples(self, kernel_name: str, device) -> int:
        return self._samples.get(
            (kernel_name, self._label_of(device)), 0)

    def decay(self, kernel_name: str, device, factor: float) -> None:
        """Scale the measured throughput down by ``factor``.

        Used when a quarantined device is readmitted on probation: its
        history predates the failure, so the estimate is discounted and
        the device must re-earn its weight through fresh observations
        (the EMA recovers in a few samples if it really is healthy)."""
        key = (kernel_name, self._label_of(device))
        if key in self._tput:
            self._tput[key] *= factor

    def reset(self) -> None:
        self._tput.clear()
        self._samples.clear()


#: process-wide store; survives ``reset_runtime()`` on purpose — device
#: labels are stable across runtime resets (the roster keeps its
#: order), so measured speeds carry over
_CALIBRATION = CalibrationStore()


def calibration() -> CalibrationStore:
    """The process-wide scheduler calibration store."""
    return _CALIBRATION


class Scheduler:
    """Partitioning policy interface used by ``cluster_eval(schedule=)``.

    Every scheduler emits chunks.  :meth:`plan` returns the chunks cut
    up front, each a :class:`Partition` bound to a device rank; a
    scheduler whose plan is empty (the :class:`DynamicScheduler`)
    instead cuts chunks on demand through ``next_chunk``, sized for
    whichever device's event graph drains first.  :func:`cluster_eval`
    runs both through one dispatch and recovery policy.
    """

    name = "?"
    #: explicit per-device weights (None: measured, else spec-derived)
    weights = None
    #: consult the :class:`CalibrationStore` for measured weights
    calibrate = True

    def plan(self, n: int, cluster: Cluster,
             kernel_name: str | None = None) -> list[Partition]:
        raise NotImplementedError

    def weights_for(self, cluster: Cluster,
                    kernel_name: str | None = None
                    ) -> tuple[list[float], str]:
        """Per-device throughput weights and their source
        (``explicit`` | ``calibrated`` | ``spec``).

        Explicit weights win; else measured per-kernel throughputs from
        the :class:`CalibrationStore` (only when *all* devices of the
        cluster have history for this kernel, so measured and estimated
        numbers never mix); else :func:`device_throughput` of the specs.
        """
        if self.weights is not None:
            if len(self.weights) != len(cluster.devices):
                raise HPLError(
                    f"{len(self.weights)} weight(s) for a "
                    f"{len(cluster.devices)}-device cluster")
            return list(self.weights), "explicit"
        if self.calibrate and kernel_name is not None:
            measured = [_CALIBRATION.throughput(kernel_name, d.label)
                        for d in cluster.devices]
            if all(t is not None for t in measured):
                return list(measured), "calibrated"
        return [device_throughput(d.ocl.spec)
                for d in cluster.devices], "spec"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class UniformScheduler(Scheduler):
    """Near-even block partition — one block per device, sizes within
    one element of each other.  The right choice for homogeneous
    clusters; on skewed mixes the makespan is pinned to the slowest
    device."""

    name = "uniform"

    def plan(self, n, cluster, kernel_name=None):
        return [Partition(lo, hi, rank)
                for rank, (lo, hi)
                in enumerate(_block_bounds(n, len(cluster.devices)))]


class WeightedScheduler(Scheduler):
    """Static weighted partition: each device's block is proportional to
    its throughput.

    Weights come from, in order of preference: the explicit ``weights``
    argument; the :class:`CalibrationStore` (measured items/second of
    this kernel on every device model of the cluster — used only when
    *all* devices have history, so measured and estimated numbers never
    mix); else :func:`device_throughput` of each device's spec.
    """

    name = "weighted"

    def __init__(self, weights=None, calibrate: bool = True) -> None:
        if weights is not None:
            weights = [float(w) for w in weights]
            if any(w < 0 for w in weights):
                raise HPLError("scheduler weights must be >= 0")
            if sum(weights) <= 0:
                raise HPLError("scheduler weights must sum to > 0")
        self.weights = weights
        self.calibrate = calibrate

    def plan(self, n, cluster, kernel_name=None):
        weights, _source = self.weights_for(cluster, kernel_name)
        total = sum(weights)
        quotas = [n * w / total for w in weights]
        sizes = [int(q) for q in quotas]
        shortfall = n - sum(sizes)
        # largest-remainder rounding, fastest devices first on ties
        order = sorted(range(len(sizes)),
                       key=lambda i: (quotas[i] - sizes[i], weights[i]),
                       reverse=True)
        for i in order[:shortfall]:
            sizes[i] += 1
        partitions = []
        start = 0
        for rank, size in enumerate(sizes):
            partitions.append(Partition(start, start + size, rank))
            start += size
        return partitions


class DynamicScheduler(Scheduler):
    """Dynamic chunk scheduler (EngineCL's "HGuided" policy).

    The index space is cut into contiguous chunks *on demand*: whenever
    a device's event graph drains, it is handed the next chunk, sized
    ``remaining x weight_share / factor`` — the device's throughput
    share of the remaining work, damped by ``factor`` so the tail
    shrinks geometrically and keeps the finish times tight.  Fast
    devices therefore pull big chunks early and often; slow devices
    nibble ``min_chunk``-sized pieces they are guaranteed to finish
    quickly.  Unlike the static :class:`WeightedScheduler` this needs no
    accurate model up front — mis-estimates only cost a chunk, not the
    whole partition — at the price of one launch (and its transfers)
    per chunk.

    ``chunk_size`` switches to fixed-size self-scheduling (every chunk
    the same size regardless of device); ``min_chunk`` floors the
    guided sizes (default ``n / (16 x devices)``).  Weights come from
    :meth:`Scheduler.weights_for`: measured when every device has
    history for the kernel, else spec-derived.
    """

    name = "dynamic"
    #: the HGuided damping of each chunk's share of the remaining work
    factor = 2

    def __init__(self, chunk_size: int | None = None,
                 min_chunk: int | None = None) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise HPLError(f"chunk_size must be >= 1, got {chunk_size}")
        if min_chunk is not None and min_chunk < 1:
            raise HPLError(f"min_chunk must be >= 1, got {min_chunk}")
        self.chunk_size = chunk_size
        self.min_chunk = min_chunk

    def min_chunk_for(self, n: int, n_devices: int) -> int:
        if self.min_chunk is not None:
            return self.min_chunk
        return max(1, n // (16 * n_devices))

    def next_chunk(self, remaining: int, n_devices: int,
                   weight_share: float, min_chunk: int = 1) -> int:
        """Size of the next chunk handed to a requesting device.

        ``weight_share`` is the requesting device's fraction of the
        cluster's total throughput weight."""
        if self.chunk_size is not None:
            return min(int(self.chunk_size), remaining)
        size = int(remaining * weight_share / self.factor)
        size = max(size, min_chunk)
        return min(size, remaining)

    def plan(self, n, cluster, kernel_name=None):
        """No chunk is cut up front: all of them are cut on demand."""
        return []


#: schedule-name -> scheduler class, for ``cluster_eval(schedule="...")``
SCHEDULERS = {
    "uniform": UniformScheduler,
    "weighted": WeightedScheduler,
    "dynamic": DynamicScheduler,
}


def get_scheduler(spec) -> Scheduler | None:
    """Resolve a ``schedule=`` argument: None, a policy name, or a
    :class:`Scheduler` instance."""
    if spec is None or isinstance(spec, Scheduler):
        return spec
    if isinstance(spec, str):
        try:
            return SCHEDULERS[spec]()
        except KeyError:
            raise HPLError(
                f"unknown schedule {spec!r}; available: "
                + ", ".join(sorted(SCHEDULERS))) from None
    raise HPLError(f"schedule must be None, a name or a Scheduler, "
                   f"got {spec!r}")


# -- distributed data -----------------------------------------------------------


class DistributedArray:
    """A 1-D array block-partitioned across a :class:`Cluster`.

    The full contents live in one host buffer; each partition is an
    ordinary HPL :class:`Array` *viewing* its slice (so repartitioning
    never copies host memory), owned by one device.  :meth:`gather`
    assembles the full contents on the host, overlapping the per-device
    d2h transfers on the simulated timeline.  Empty partitions are
    represented as ``None`` and skipped everywhere.  The partitions are
    the block table :func:`cluster_eval` launches on; a dynamic
    schedule cuts them in place as it hands out chunks.
    """

    def __init__(self, dtype: HPLType, n: int, cluster: Cluster,
                 data: np.ndarray | None = None,
                 bounds=None) -> None:
        self.dtype = dtype
        self.n = int(n)
        if self.n < 1:
            raise HPLError("a DistributedArray needs at least 1 element")
        self.cluster = cluster
        self._full = np.zeros(self.n, dtype=dtype.np_dtype)
        if data is not None:
            data = np.asarray(data, dtype=dtype.np_dtype)
            if data.size != self.n:
                raise HPLError(
                    f"provided {data.size} element(s) for a "
                    f"{self.n}-element DistributedArray")
            self._full[:] = data.reshape(self.n)
        bounds = cluster.partition_bounds(self.n) if bounds is None \
            else [(int(lo), int(hi)) for lo, hi in bounds]
        self._check_bounds(bounds)
        self.bounds = bounds
        self.parts = self._make_parts(bounds)
        #: d2h events of the most recent :meth:`gather`, for timelines
        self.last_gather_events: list = []

    def _check_bounds(self, bounds) -> None:
        if not bounds or bounds[0][0] != 0 or bounds[-1][1] != self.n:
            raise HPLError(f"partition bounds {bounds} do not cover "
                           f"[0, {self.n})")
        for (alo, ahi), (blo, bhi) in zip(bounds, bounds[1:]):
            if ahi != blo or alo > ahi or blo > bhi:
                raise HPLError(
                    f"partition bounds {bounds} are not a contiguous "
                    "non-overlapping cover")

    def _make_parts(self, bounds) -> list:
        full, dtype = self._full, self.dtype
        return [Array._view(dtype, full[lo:hi]) if hi > lo else None
                for lo, hi in bounds]

    def _block(self, lo: int, hi: int):
        """The part holding exactly ``[lo, hi)``, or None."""
        i = bisect.bisect_left(self.bounds, (lo, hi))
        if i < len(self.bounds) and self.bounds[i] == (lo, hi):
            return self.parts[i]
        return None

    def _cut(self, lo: int, hi: int) -> None:
        """Split the never-launched block starting at ``lo`` at ``hi``
        into fresh views over the host buffer."""
        i = bisect.bisect_left(self.bounds, (lo, lo))
        end = self.bounds[i][1]
        if hi < end:
            self.bounds[i:i + 1] = [(lo, hi), (hi, end)]
            self.parts[i:i + 1] = self._make_parts(self.bounds[i:i + 2])

    @property
    def size(self) -> int:
        return self.n

    def repartition(self, bounds) -> "DistributedArray":
        """Re-slice the array along new partition bounds.

        Device-resident partitions are first synchronised back to the
        host (their d2h copies overlap across devices); the new parts
        start host-valid, so the next launch pays the h2d copies of the
        new layout — the real cost of re-balancing data.
        """
        bounds = [(int(lo), int(hi)) for lo, hi in bounds]
        if bounds == self.bounds:
            return self
        self._check_bounds(bounds)
        self._sync_parts()
        self.bounds = bounds
        self.parts = self._make_parts(bounds)
        return self

    def _sync_parts(self) -> list:
        """Refresh the host copy of every partition.

        All stale partitions' d2h copies are *enqueued* before any is
        waited on, so transfers from different devices overlap on the
        simulated timeline instead of serializing with the host loop.
        Returns the transfer events (one per partition that needed one).
        """
        events = []
        for part in self.parts:
            if part is None:
                continue
            event = part.enqueue_host_sync()
            if event is not None:
                events.append(event)
        for event in events:
            event.wait()
        return events

    def gather(self) -> np.ndarray:
        """Assemble the full array on the host (device->host transfers).

        The per-device transfers overlap on the simulated timeline;
        their events are kept in :attr:`last_gather_events` so
        :func:`timeline_of` can measure the overlap.  Empty (``None``)
        partitions — common after a :meth:`repartition` with more
        blocks than elements — are skipped, and the event list holds
        only real transfer events (one per partition that needed a
        copy), never placeholder holes.
        """
        self.last_gather_events = self._sync_parts()
        return self._full.copy()

    def scatter(self, data: np.ndarray) -> None:
        """Replace the contents from a host array.

        Writes go through the *full* host buffer — the single source of
        truth every partition views — never through a partition's
        ``data`` accessor: the old contents are about to be overwritten
        wholesale, so pulling them back from the devices first (which
        ``part.data`` does) would be pure waste, and any stale
        pre-``repartition`` view someone kept alive must not receive
        the new contents.  Device copies are invalidated so the next
        launch re-uploads the new data.
        """
        data = np.asarray(data, dtype=self.dtype.np_dtype)
        if data.size != self.n:
            raise HPLError(
                f"scatter of {data.size} element(s) into a "
                f"{self.n}-element DistributedArray")
        self._full[:] = data.reshape(self.n)
        for part in self.parts:
            if part is not None:
                part._invalidate_devices()

    def __repr__(self) -> str:
        return (f"<DistributedArray {self.dtype}[{self.n}] over "
                f"{len(self.cluster)} device(s), "
                f"{sum(p is not None for p in self.parts)} partition(s)>")


# -- evaluation -----------------------------------------------------------------


def _local_args(args, lo: int, hi: int) -> list:
    """Per-chunk argument list: each DistributedArray swapped for its
    block ``[lo, hi)``, offset/count appended."""
    local = [a._block(lo, hi) if isinstance(a, DistributedArray) else a
             for a in args]
    local.append(Int(lo))
    local.append(Int(hi - lo))
    return local


def _check_broadcast_writes(kernel, args, local_args) -> None:
    """Reject kernels that write a broadcast plain :class:`Array`.

    Each rank writing its own copy would invalidate the other ranks'
    copies mid-loop, making the final contents depend on rank order —
    an error, not a race the user should debug.  Called once per
    :func:`cluster_eval`, with the first chunk's local arguments: within
    one call the capture key cannot change (every block is a 1-D Array,
    whose signature leaves out its length, offset and count are Ints,
    and no host code runs between chunks).
    """
    captured = get_runtime().get_captured(kernel, local_args)
    for (name, _proxy), arg in zip(captured.params, args):
        if isinstance(arg, Array) and captured.info.writes(name):
            raise HPLError(
                f"kernel {captured.kernel_name!r} writes its broadcast "
                f"Array argument {name!r}; every device would invalidate "
                "the other devices' copies, leaving the result dependent "
                "on execution order.  Partition it as a DistributedArray "
                "(or make the kernel read-only on it) instead")


def _record_calibration(kernel_name: str, launches) -> None:
    """Feed observed throughputs back into the calibration store."""
    for chunk, result in launches:
        _CALIBRATION.record(kernel_name, chunk.device.label,
                            chunk.hi - chunk.lo, result.kernel_event.duration)


# -- failure recovery -----------------------------------------------------------


@dataclass
class FailureSummary:
    """What recovery had to do during one :func:`cluster_eval`.

    Attached to the returned :class:`ClusterResult` as ``.failures``;
    all-zero (``clean``) on a healthy run.
    """

    #: individual command/launch failures classified as transient
    transient_failures: int = 0
    #: retry attempts made (each adds a capped-exponential backoff)
    retries: int = 0
    #: labels of devices quarantined mid-run, in quarantine order
    devices_lost: list = field(default_factory=list)
    #: index-space items whose blocks had to be re-run elsewhere
    requeued_items: int = 0
    #: total simulated backoff delay injected into device clocks
    backoff_seconds: float = 0.0
    #: straggler chunks won by a speculative duplicate (the original
    #: launch was cancelled without running)
    speculative_wins: int = 0
    #: the run hit ``cluster_eval(deadline=)`` and was aborted
    deadline_missed: bool = False
    #: blocks restored from a checkpoint instead of recomputed
    resumed_blocks: int = 0
    #: labels of quarantined devices readmitted after a health probe
    readmitted: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no fault touched the run."""
        return not (self.transient_failures or self.devices_lost
                    or self.requeued_items or self.speculative_wins
                    or self.deadline_missed or self.resumed_blocks)

    def as_dict(self) -> dict:
        """JSON-friendly snapshot (benchsuite ``--json`` metadata)."""
        return {
            "transient_failures": self.transient_failures,
            "retries": self.retries,
            "devices_lost": list(self.devices_lost),
            "requeued_items": self.requeued_items,
            "backoff_seconds": self.backoff_seconds,
            "speculative_wins": self.speculative_wins,
            "deadline_missed": self.deadline_missed,
            "resumed_blocks": self.resumed_blocks,
            "readmitted": list(self.readmitted),
            "clean": self.clean,
        }


class ClusterResult(list):
    """The per-partition :class:`EvalResult` list of one
    :func:`cluster_eval`, with the recovery record on ``.failures``.

    A plain ``list`` subclass: existing call sites that index, iterate
    or ``+=`` the result keep working unchanged.
    """

    def __init__(self, results, failures: FailureSummary) -> None:
        super().__init__(results)
        self.failures = failures


#: the FailureSummary of the most recent cluster_eval in this process,
#: recorded even when the run aborted (deadline, all devices lost)
_LAST_SUMMARY: FailureSummary | None = None


def last_failure_summary() -> FailureSummary | None:
    """The :class:`FailureSummary` of the most recent
    :func:`cluster_eval` (``None`` before the first one).  Recorded
    even for aborted runs, so tooling — e.g. the benchsuite's
    ``--json`` metadata — can report what recovery had to do."""
    return _LAST_SUMMARY


#: backoff doubles per attempt, capped at base * 2**_BACKOFF_CAP
_BACKOFF_CAP = 3


def _jitter(key: tuple) -> float:
    """Deterministic uniform draw in [0, 1) for a retry site.

    Derived by hashing the fault-plan seed (0 when no plan is active)
    with the caller's key, so identical runs reproduce identical
    delays bit-for-bit while distinct retry sites decorrelate."""
    plan = active_plan()
    seed = plan.seed if plan is not None else 0
    token = hashlib.sha256(repr((seed,) + tuple(key)).encode()).digest()
    return int.from_bytes(token[:8], "big") / 2.0 ** 64


def _backoff_delay(base: float, attempt: int, key: tuple = ()) -> float:
    """Capped exponential backoff for retry ``attempt`` (0-based).

    With a ``key`` (device label, block bounds, attempt) the delay gets
    deterministic *full jitter* — scaled by a seeded uniform draw in
    (0, 1] — so simultaneous transient failures on multiple devices
    retry staggered instead of in lockstep, while runs stay
    bit-reproducible.  Without a key the delay is the bare cap."""
    delay = base * (2 ** min(attempt, _BACKOFF_CAP))
    if not key:
        return delay
    return delay * (1.0 - _jitter(key))


def _failure_kind(error) -> str:
    """Classify a launch/command failure for the recovery policy.

    ``permanent`` (device gone — quarantine, no retry), ``transient``
    (resource hiccup — retry with backoff), or ``fatal`` (a genuine
    bug such as a kernel trap: re-raise, recovery would only mask it).
    """
    if isinstance(error, DeviceNotAvailable):
        return "permanent"
    if isinstance(error, OutOfResources):
        return "transient"
    return "fatal"


# -- resilience: watchdog, probation, deadline, checkpoint ----------------------


class _Watchdog:
    """Per-chunk expected-duration model driving speculative re-execution.

    Built from the :class:`CalibrationStore` at run start: for every
    device it snapshots the measured items/second of this kernel.  A
    chunk is speculated when (a) its assigned device's calibrated
    throughput trails the best healthy device's by more than ``factor``
    and (b) some other device is predicted to *complete* the chunk —
    queue drain included — more than ``factor`` times sooner.  The
    second condition is what keeps a merely-slower device in a healthy
    heterogeneous cluster un-speculated: its chunks are already sized
    down by the scheduler, so rerouting them wins little, whereas a
    genuine straggler's minimum-size chunk still takes orders of
    magnitude longer than any peer would need.  First predicted
    completion wins — decided on the model the way a real watchdog
    decides on wall-clock observations.  Devices without calibration
    history are never flagged (no expectation, no watchdog).
    """

    def __init__(self, kernel_name: str, devices, factor: float) -> None:
        self.factor = float(factor)
        self.tput = [_CALIBRATION.throughput(kernel_name, d.label)
                     for d in devices]

    def pick(self, rank: int, size: int, active, avail_ns: int,
             devices) -> int | None:
        """Rank to speculatively duplicate a straggling chunk onto.

        None when the chunk is within budget on its assigned device,
        when no expectation exists, or when no healthy candidate is
        predicted to finish before the assigned device would.
        """
        mine = self.tput[rank] if rank < len(self.tput) else None
        if not mine:
            return None
        best = max((self.tput[r] for r in active
                    if r < len(self.tput) and self.tput[r]), default=None)
        if not best or mine * self.factor > best:
            return None             # within budget of the best device
        predicted_end = avail_ns + size / mine * 1e9
        best_rank, best_end = None, predicted_end
        for r in active:
            if r == rank or r >= len(self.tput) or not self.tput[r]:
                continue
            start = max(int(devices[r].queue.clock * 1e9), avail_ns)
            end = start + size / self.tput[r] * 1e9
            if end < best_end:
                best_rank, best_end = r, end
        if best_rank is None:
            return None
        # the reroute must win by the same margin: time-to-completion
        # measured from now, queue drain included
        if (best_end - avail_ns) * self.factor > predicted_end - avail_ns:
            return None
        return best_rank


#: snapshot after this many newly completed blocks
CHECKPOINT_EVERY = 1

#: transient-failure retries per block before its device counts as dead
MAX_RETRIES = 3

#: probe quarantined devices after this many completed chunks
PROBE_INTERVAL = 1

#: calibration decay applied to a device readmitted on probation
PROBATION_DECAY = 0.5


def _merge_ranges(ranges) -> list:
    """Sorted union of (lo, hi) ranges, adjacent/overlapping merged."""
    merged: list = []
    for lo, hi in sorted((int(lo), int(hi)) for lo, hi in ranges):
        if hi <= lo:
            continue
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _gaps(merged, n: int) -> list:
    """The (lo, hi) ranges of [0, n) *not* covered by ``merged``."""
    gaps = []
    cursor = 0
    for lo, hi in merged:
        if lo > cursor:
            gaps.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < n:
        gaps.append((cursor, n))
    return gaps


def _probe_device(device, kernel_name: str) -> bool:
    """One health probe: a tiny marker launch, driven to a terminal
    state.  True when the device completed it (fault plans fail probes
    on devices that are still dead)."""
    trace.get_registry().counter("cluster.probes").inc()
    event = device.queue.enqueue_marker(wait_for=[])
    event.drive()
    healthy = event.is_complete
    with trace.span("probe", category="cluster", kernel=kernel_name,
                    device=device.label, healthy=healthy):
        pass
    return healthy


def _sync_blocks(dist_args, completed) -> list:
    """Drive d2h syncs for completed blocks; the blocks whose data
    actually reached the host (a device dying between completion and
    checkpoint drops its block, which then simply re-runs on resume)."""
    good = []
    for key in completed:
        ok = True
        for a in dist_args:
            part = a._block(*key)
            event = None if part is None else part.enqueue_host_sync()
            if event is None:
                continue
            event.drive()
            if event.is_failed:
                ok = False
        if ok:
            good.append(key)
    return good


def _stranded(part, dead) -> bool:
    """Do the only valid copies of ``part`` sit on ``dead`` devices?"""
    if part is None or part._host_valid:
        return False
    holders = [d for d, ok in part._device_valid.items() if ok]
    return bool(holders) and all(d in dead for d in holders)


def _note_retry(summary, delay: float, **attrs) -> None:
    """Account one transient failure retried after ``delay`` seconds
    of simulated backoff."""
    summary.transient_failures += 1
    summary.retries += 1
    summary.backoff_seconds += delay
    trace.get_registry().counter("cluster.retries").inc()
    with trace.span("recover", category="cluster", action="retry",
                    backoff_seconds=delay, **attrs):
        pass


def _relayout(dist_args, bounds, backoff, summary) -> None:
    """The layout step before the dispatch loop: lay every array out
    along ``bounds``, retrying transient sync failures.

    ``bounds=None`` keeps the partitions and only refreshes their host
    copies, so chunks cut during the run read current data.  Otherwise
    only arrays that move are synced, so device-resident blocks of an
    unchanged layout are reused.  Every moving array is synced before
    any is re-sliced, so a failure leaves all of them in one layout;
    already-synced parts are skipped, so a retry only redoes the
    failed work.  A *permanent* failure here means a device died
    holding the only copy of a previous call's results — unrecoverable
    by re-running blocks, so it surfaces as
    :class:`ClusterExecutionError`.
    """
    attempt = 0
    while True:
        try:
            for a in dist_args:
                if bounds is None or a.bounds != bounds:
                    a._sync_parts()
            if bounds is not None:
                for a in dist_args:
                    a.repartition(bounds)
            return
        except DeviceNotAvailable as exc:
            raise ClusterExecutionError(
                "a device died while re-balancing partitions; its "
                "unsynchronised contents are unrecoverable") from exc
        except OutOfResources:
            if attempt >= MAX_RETRIES:
                raise
            delay = _backoff_delay(backoff, attempt,
                                   key=("repartition", attempt))
            attempt += 1
            _note_retry(summary, delay, op="repartition", attempt=attempt)


@dataclass
class _Chunk:
    """One unit of dispatch: the block ``[lo, hi)`` bound to a device.

    A chunk is either planned up front for the device at ``rank`` or
    handed out by the ready-heap to the device that became ready at
    ``avail_ns`` (a fresh cut or a requeued block).  Either way a
    permanent failure returns its block whole to the requeue.
    ``origin`` is the rank the watchdog rerouted one from.
    """

    lo: int
    hi: int
    device: HPLDevice
    rank: int
    avail_ns: int = 0
    origin: int | None = None

    @property
    def key(self) -> tuple[int, int]:
        return (self.lo, self.hi)


class _Runner:
    """The dispatch loop of one :func:`cluster_eval`.

    The loop runs in *dispatch rounds*, one policy for every schedule.
    A round opens with the probe step (see :meth:`_probe`).  It then
    takes a batch — all pending work in order (planned blocks, then
    transient retries), or else one chunk for the earliest-ready device
    (a requeued block first, else a freshly cut one) — checks each
    chunk's device against the deadline, launches the whole batch, then
    drives it, so healthy chunks keep overlapping while a doomed one
    fails.  It then classifies the results: a transient failure is
    retried on the same device after a simulated-clock backoff; a
    permanent one goes through :meth:`_quarantine`, which returns the
    block whole to the requeue.  Each round ends with the checkpoint
    cadence and the post-round deadline check.

    The ready-heap holds the idle active ranks: at the start those
    without a planned chunk, then every device whose chunk completes,
    stamped with the chunk's simulated end.  So requeued blocks and
    fresh cuts go to devices in the order of their simulated clocks — a
    real work-stealing host thread — not host-loop order, and only the
    chunks the heap hands out are offered to the watchdog.  Launch
    order is part of the contract: fault plans draw from seeded RNG
    streams, so it decides which launch fails.
    """

    def __init__(self, kernel, cluster, args, dist_args, plan, cutter,
                 kernel_name, summary, *, deferred, backoff, watchdog,
                 deadline, checkpoint, resume, probation) -> None:
        self.kernel, self.cluster, self.args = kernel, cluster, args
        self.dist_args, self.cutter = dist_args, cutter
        self.kernel_name, self.summary = kernel_name, summary
        self.deferred, self.backoff = deferred, backoff
        self.probation = bool(probation)
        self.registry = trace.get_registry()
        self.restore: list = []     # (readmitted device, deferred flag)
        self.watchdog = None
        if watchdog and deferred:   # eager launches cannot be cancelled
            factor = 4.0 if watchdog is True else float(watchdog)
            self.watchdog = _Watchdog(kernel_name, cluster.devices, factor)
        self.deadline_ns = None     # absolute cutoff on the simulated clock
        if deadline is not None:
            start_ns = min(int(d.queue.clock * 1e9)
                           for d in cluster.devices)
            self.deadline_ns = start_ns + int(float(deadline) * 1e9)
        n = dist_args[0].n
        self.store = None
        self.resumed: list = []     # merged ranges restored from a snapshot
        if checkpoint is not None:
            self.store = CheckpointStore(checkpoint)
            self.run_id = {"kernel": kernel_name, "n": int(n),
                           "arrays": [str(a.dtype) for a in dist_args]}
            if resume:
                self._resume()
        self.roster = list(cluster.devices)  # stable ranks across quarantine
        self.active = set(range(len(self.roster)))
        # planned chunks of the first round, then transient retries;
        # skip empty blocks and blocks restored from a checkpoint
        self.pending: list = [
            _Chunk(p.lo, p.hi, self.roster[p.rank], p.rank)
            for p in plan if p.size > 0 and not any(
                lo <= p.lo and p.hi <= hi for lo, hi in self.resumed)]
        busy = {c.rank for c in self.pending}
        self.ready = [(int(d.queue.clock * 1e9), rank)
                      for rank, d in enumerate(self.roster)
                      if rank not in busy]
        heapq.heapify(self.ready)
        self.done: dict = {}        # (lo, hi) -> (chunk, result)
        #: device -> the kernel resolved for it in this call; a failed
        #: resolution is not kept, so the device's next chunk redraws it
        self.prepared: dict = {}
        self.checked = False        # the broadcast-write check ran
        self.attempts: dict = {}    # (lo, hi) -> transient retries used
        self.requeue: deque = deque()   # (lo, hi) awaiting a device
        self.unsaved = 0            # completions since the last snapshot
        self.since_probe = 0        # completions since the last probe
        self.segments: deque = deque()  # index space not yet cut
        self.remaining = 0
        self.weights = self.source = None
        #: parts whose only copies predate the run: no host slice holds
        #: their contents, so losing their device is unrecoverable
        self.resident = {id(p): p for a in dist_args for p in a.parts
                         if p is not None and not p._host_valid}
        if cutter is None:
            return
        self.weights, self.source = cutter.weights_for(cluster, kernel_name)
        self.total_w = sum(self.weights)
        if self.total_w <= 0:
            raise HPLError("scheduler weights must sum to > 0")
        self.min_chunk = cutter.min_chunk_for(n, len(self.roster))
        # checkpoint-restored ranges are ready-made blocks; the gaps
        # between them are cut in place as chunks are handed out
        gaps = _gaps(self.resumed, n)
        bounds = sorted(self.resumed + gaps)
        for a in dist_args:
            a.bounds, a.parts = list(bounds), a._make_parts(bounds)
        self.segments = deque([lo, hi] for lo, hi in gaps)
        self.remaining = sum(hi - lo for lo, hi in gaps)

    def _resume(self) -> None:
        """Restore a matching snapshot's completed ranges."""
        with trace.span("checkpoint_load", category="cluster",
                        kernel=self.kernel_name) as sp:
            loaded = self.store.load(self.run_id)
            if loaded is not None:
                snaps, completed = loaded
                self.resumed = _merge_ranges(completed)
                for a, snap in zip(self.dist_args, snaps):
                    for rlo, rhi in self.resumed:
                        a._full[rlo:rhi] = snap[rlo:rhi]
                    a.scatter(a._full)
                self.summary.resumed_blocks = len(completed)
                self.registry.counter("cluster.resumed_blocks").inc(
                    len(completed))
            sp.set_attr("blocks", self.summary.resumed_blocks)

    def _launches(self) -> list:
        return [self.done[key] for key in sorted(self.done)]

    # -- the loop ----------------------------------------------------------

    def run(self) -> list:
        """Dispatch until every block is done; the (chunk, result)
        launches in index order."""
        while self.pending or self.requeue or self.remaining:
            if self.probation and self.cluster.lost \
                    and self.since_probe >= PROBE_INTERVAL:
                self._probe()
            fresh = not self.pending
            batch = self.pending or [self._next_chunk()]
            self.pending = []
            if self.deadline_ns is not None:
                # a device is ready at its heap stamp or its queue
                # clock (a retry's backoff), whichever is later
                ready_ns = max(max(c.avail_ns, int(c.device.queue.clock
                                                   * 1e9)) for c in batch)
                if ready_ns > self.deadline_ns:
                    self._deadline_abort(ready_ns)
            launched = [self._launch(chunk, fresh) for chunk in batch]
            # drive everything before classifying anything: one failure
            # must not keep its siblings' overlapping work from running
            for _chunk, result, _error in launched:
                if result is not None:
                    result.drive()
            lost = self._classify(launched)
            if lost:
                self._quarantine(lost)
            if self.store is not None and self.unsaved >= CHECKPOINT_EVERY:
                self._checkpoint()
            if self.deadline_ns is not None and self.done:
                end_ns = max(e.end_ns for _c, r in self.done.values()
                             for e in r.events)
                if end_ns > self.deadline_ns:
                    self._deadline_abort(end_ns)
        if self.store is not None and self.unsaved:
            self._checkpoint()
        return self._launches()

    def _next_chunk(self) -> _Chunk:
        """The chunk for the earliest-ready device: a requeued block,
        else one freshly cut from the remaining index space."""
        while True:
            if not self.ready:
                raise ClusterExecutionError(
                    "no device left to serve the remaining work")
            avail_ns, rank = heapq.heappop(self.ready)
            if rank in self.active:
                break
        if self.requeue:
            lo, hi = self.requeue.popleft()
        else:
            seg = self.segments[0]
            size = self.cutter.next_chunk(
                self.remaining, len(self.active),
                self.weights[rank] / self.total_w, self.min_chunk)
            lo, hi = seg[0], seg[0] + min(size, seg[1] - seg[0])
            for a in self.dist_args:
                a._cut(lo, hi)
            seg[0] = hi
            if seg[0] >= seg[1]:
                self.segments.popleft()
            self.remaining -= hi - lo
        return _Chunk(lo, hi, self.roster[rank], rank, avail_ns)

    def _launch(self, chunk: _Chunk, fresh: bool):
        local = _local_args(self.args, chunk.lo, chunk.hi)
        if not self.checked:
            _check_broadcast_writes(self.kernel, self.args, local)
            self.checked = True
        if fresh and self.watchdog is not None:
            self._speculate(chunk, local)
        result, error = None, None
        with trace.span("cluster_chunk", category="cluster",
                        kernel=self.kernel_name, device=chunk.device.label,
                        rank=chunk.rank, lo=chunk.lo, hi=chunk.hi,
                        weights=self.source):
            try:
                result = self._run(chunk, local)
            except (DeviceNotAvailable, OutOfResources) as exc:
                error = exc     # e.g. an injected build failure
        return chunk, result, error

    def _run(self, chunk: _Chunk, local):
        """Bind ``chunk``'s blocks and launch them on its device,
        resolving the kernel for the device on its first chunk."""
        device = chunk.device
        prepared = self.prepared.get(device)
        if prepared is None:
            prepared = prepare(self.kernel, local, device)
            self.prepared[device] = prepared
        transfers, dep_events = prepared.bind(local)
        return prepared.launch(local, transfers, dep_events,
                               (chunk.hi - chunk.lo,))

    def _speculate(self, chunk: _Chunk, local) -> None:
        """Reroute a chunk the watchdog predicts to straggle.

        The loser's launch is built and its event graph cancelled
        before any payload runs, so its buffers are never touched — a
        real watchdog makes the same call from wall-clock observations,
        ours makes it from the model those observations would feed.
        """
        target = self.watchdog.pick(chunk.rank, chunk.hi - chunk.lo,
                                    self.active, chunk.avail_ns,
                                    self.roster)
        if target is None:
            return
        device = chunk.device
        with trace.span("watchdog", category="cluster",
                        kernel=self.kernel_name, device=device.label,
                        lo=chunk.lo, hi=chunk.hi,
                        factor=self.watchdog.factor):
            doomed = None
            try:
                doomed = self._run(chunk, local)
            except (DeviceNotAvailable, OutOfResources):
                pass            # abandoning this device anyway
        cancelled = 0
        if doomed is not None:
            for e in doomed.events:
                e.cancel()
            cancelled = sum(1 for e in doomed.events if e.is_cancelled)
        # sweep coherence commands a partially-built graph may have left
        # pending on the loser's queue
        cancelled += device.queue.cancel_pending()
        self.registry.counter("cluster.cancelled_events").inc(cancelled)
        self.registry.counter("cluster.speculative_launches").inc()
        with trace.span("speculate", category="cluster",
                        kernel=self.kernel_name, lo=chunk.lo, hi=chunk.hi,
                        from_device=device.label,
                        to_device=self.roster[target].label,
                        cancelled_events=cancelled):
            pass
        chunk.origin, chunk.rank = chunk.rank, target
        chunk.device = self.roster[target]

    # -- outcomes ----------------------------------------------------------

    def _classify(self, launched) -> dict:
        """Book successes and schedule transient retries; returns the
        permanently failed chunks as ``id(device) -> (device, chunks)``."""
        lost: dict = {}
        for chunk, result, error in launched:
            if error is None:
                failed = result.failed_event
                if failed is None:
                    self._complete(chunk, result)
                    continue
                error = failed.error
            kind = _failure_kind(error)
            if kind == "fatal":
                raise error
            used = self.attempts.get(chunk.key, 0)
            if kind == "transient" and used < MAX_RETRIES:
                # retry on the SAME device: chunks are sized for their
                # device, so migrating a large chunk to a slower
                # survivor would turn a hiccup into a makespan cliff.
                # Only quarantine moves work.
                self.attempts[chunk.key] = used + 1
                delay = _backoff_delay(
                    self.backoff, used,
                    key=(chunk.device.label, chunk.lo, chunk.hi, used))
                chunk.device.queue.clock += delay
                _note_retry(self.summary, delay, kernel=self.kernel_name,
                            device=chunk.device.label, lo=chunk.lo,
                            hi=chunk.hi, attempt=used + 1)
                self.pending.append(chunk)
                continue
            if kind == "transient":     # retries exhausted: treat as dead
                self.summary.transient_failures += 1
            lost.setdefault(id(chunk.device), (chunk.device, []))[1] \
                .append(chunk)
        return lost

    def _complete(self, chunk: _Chunk, result) -> None:
        event = result.kernel_event
        seconds = event.duration    # a queue without profiling raises
        self.done[chunk.key] = (chunk, result)
        self.unsaved += 1
        label, items = chunk.device.label, chunk.hi - chunk.lo
        registry = self.registry
        registry.counter("cluster.chunks_dispatched").inc()
        registry.counter("cluster.chunk_items").inc(items)
        registry.counter(f"cluster.chunks[{label}]").inc()
        registry.counter(f"cluster.chunk_items[{label}]").inc(items)
        registry.histogram("cluster.chunk_seconds").observe(seconds)
        heapq.heappush(self.ready, (event.end_ns, chunk.rank))
        self.since_probe += 1
        if chunk.origin is not None:
            # the speculated copy won; the origin is free again at the
            # winner's completion stamp
            self.summary.speculative_wins += 1
            registry.counter("cluster.speculation_wins").inc()
            if chunk.origin in self.active:
                heapq.heappush(self.ready, (event.end_ns, chunk.origin))

    def _quarantine(self, lost: dict) -> None:
        """Quarantine dead devices and requeue their work.

        Blocks whose only valid copy was stranded on a dead device —
        including blocks that *succeeded* earlier, whose results are
        dropped — are rolled back to the (pre-launch) host data and
        requeued with the failed chunks.  Every one goes back whole to
        the requeue, which serves the earliest-ready survivor before
        new index space is cut; the layout never changes mid-run.
        """
        for chunk in self.pending:  # retries on a dying device die too
            if id(chunk.device) in lost:
                lost[id(chunk.device)][1].append(chunk)
        self.pending = [c for c in self.pending if id(c.device) not in lost]
        requeued = []
        for device, chunks in lost.values():
            for chunk in chunks:
                if chunk.origin is not None and chunk.origin in self.active:
                    heapq.heappush(self.ready,
                                   (chunk.avail_ns, chunk.origin))
            try:
                self.cluster.quarantine(device)  # raises if nobody is left
            except ClusterExecutionError:
                # last chance: probe the quarantined for a survivor
                if not (self.probation and self._probe()):
                    raise
                self.cluster.quarantine(device)
            self.active.discard(self.roster.index(device))
            self.summary.devices_lost.append(device.label)
            self.registry.counter("cluster.device_lost").inc()
            with trace.span("recover", category="cluster",
                            action="quarantine", kernel=self.kernel_name,
                            device=device.label, failed_blocks=len(chunks)):
                pass
            requeued.extend(chunks)
        self._reweigh()
        dead = {device for device, _chunks in lost.values()}
        for i, (lo, hi) in enumerate(self.dist_args[0].bounds):
            stranded = [a.parts[i] for a in self.dist_args
                        if _stranded(a.parts[i], dead)]
            if any(id(p) in self.resident for p in stranded):
                raise ClusterExecutionError(
                    f"block [{lo}, {hi}) was resident only on "
                    f"{', '.join(sorted(d.label for d in dead))} since "
                    "before this run; its contents died with the device")
            for p in stranded:
                # no copy can be fetched, but the host slice still holds
                # the pre-launch contents: the block simply re-runs
                p._invalidate_devices()
            if stranded and (lo, hi) in self.done:
                requeued.append(self.done.pop((lo, hi))[0])
        items = sum(c.hi - c.lo for c in requeued)
        self.summary.requeued_items += items
        self.registry.counter("cluster.requeued_items").inc(items)
        with trace.span("recover", category="cluster", action="requeue",
                        kernel=self.kernel_name, items=items,
                        chunks=len(requeued),
                        survivors=len(self.cluster.devices)):
            for chunk in requeued:
                # the retry budget is per device: a survivor starts afresh
                self.attempts.pop(chunk.key, None)
                self.requeue.append(chunk.key)

    # -- probation ---------------------------------------------------------

    def _probe(self) -> list:
        """The probe step: probe the quarantined devices and fold the
        healthy ones back in, ready at the earliest heap stamp.

        Runs at the head of a dispatch round once ``PROBE_INTERVAL``
        chunks completed since the last probe, and as a last chance
        before the final device is quarantined; returns the revived
        devices."""
        self.since_probe = 0
        frontier_ns = self.ready[0][0] if self.ready else 0
        revived = self._readmit()
        for device in revived:
            self._integrate(device, frontier_ns)
        return revived

    def _readmit(self) -> list:
        """Probe every quarantined device; readmit the healthy ones.

        Readmitted devices come back with their calibration decayed
        (they must re-earn their weight) and the run's deferred flag
        applied; ``cluster_eval`` restores the flag afterwards.
        """
        revived = []
        for device in list(self.cluster.lost):
            if not _probe_device(device, self.kernel_name):
                continue
            self.cluster.readmit(device)
            _CALIBRATION.decay(self.kernel_name, device.label,
                               PROBATION_DECAY)
            self.restore.append((device, device.deferred))
            device.set_deferred(self.deferred)
            self.summary.readmitted.append(device.label)
            self.registry.counter("cluster.readmitted").inc()
            with trace.span("recover", category="cluster",
                            action="readmit", kernel=self.kernel_name,
                            device=device.label,
                            calibration_decay=PROBATION_DECAY):
                pass
            revived.append(device)
        return revived

    def _integrate(self, device, at_ns: int) -> None:
        """Fold a readmitted device into the ranks/weights/heap."""
        if device in self.roster:
            rank = self.roster.index(device)    # keeps its own weight
        else:
            self.roster.append(device)
            rank = len(self.roster) - 1
            if self.weights is not None:
                # in the run's own units: the (decayed) measured
                # throughput when the weights are measured ones
                measured = _CALIBRATION.throughput(
                    self.kernel_name, device.label) \
                    if self.source == "calibrated" else None
                self.weights.append(
                    measured or device_throughput(device.ocl.spec))
            if self.watchdog is not None:
                self.watchdog.tput.append(
                    _CALIBRATION.throughput(self.kernel_name, device.label))
        if rank not in self.active:
            self.active.add(rank)
            heapq.heappush(self.ready, (at_ns, rank))
            self._reweigh()

    def _reweigh(self) -> None:
        if self.weights is not None:
            self.total_w = sum(self.weights[r] for r in self.active)

    # -- checkpoint + deadline ---------------------------------------------

    def _checkpoint(self) -> None:
        """Snapshot the host buffers + completed blocks atomically."""
        good = _sync_blocks(self.dist_args,
                            sorted(list(self.resumed) + list(self.done)))
        with trace.span("checkpoint_write", category="cluster",
                        blocks=len(good)) as sp:
            written = self.store.save(
                self.run_id, [a._full for a in self.dist_args], good)
            sp.set_attr("bytes", written)
        self.registry.counter("cluster.checkpoint_bytes").inc(written)
        self.unsaved = 0

    def _deadline_abort(self, end_ns: int) -> None:
        """Hard timeout: checkpoint what finished, raise with the
        partial result attached."""
        self.summary.deadline_missed = True
        self.registry.counter("cluster.deadline_missed").inc()
        if self.store is not None and self.unsaved:
            self._checkpoint()
        else:
            _sync_blocks(self.dist_args, sorted(self.done))
        launches = self._launches()
        raise DeadlineExceeded(
            f"cluster_eval exceeded its deadline: simulated time reached "
            f"{end_ns * 1e-9:.6f}s, budget ended at "
            f"{self.deadline_ns * 1e-9:.6f}s "
            f"({len(launches)} block(s) completed)",
            result=ClusterResult([r for _c, r in launches], self.summary),
            failures=self.summary)


def cluster_eval(kernel, cluster: Cluster, *args, deferred: bool = True,
                 schedule=None, backoff: float = 1e-4, watchdog=None,
                 deadline=None, checkpoint=None, resume: bool = False,
                 probation: bool = False):
    """Evaluate ``kernel`` once per partition, owner-computes style.

    ``kernel`` is an ordinary HPL kernel function whose **last two
    parameters** must be ``offset`` (Int: the partition's global start
    index) and ``count`` (Int: partition length); each
    :class:`DistributedArray` argument is replaced by the device-local
    partition, while plain Arrays and scalars are broadcast to every
    device (each device keeps its own coherent copy).  Broadcast plain
    Arrays must be read-only in the kernel (an :class:`HPLError` is
    raised otherwise).

    ``schedule`` selects the partitioning policy: ``None`` keeps the
    arrays' current partitioning (block-uniform unless repartitioned),
    while ``"uniform"``, ``"weighted"``, ``"dynamic"`` or a
    :class:`Scheduler` instance re-plan the index space — repartitioning
    every DistributedArray argument to the plan's bounds — before
    launching.  All policies compute bit-identical results; they differ
    only in who computes what (see ``docs/cluster.md``).  A dynamic
    schedule cuts its chunks into the arrays' blocks in place, so after
    a raising call ``gather()`` still returns every completed block.

    With ``deferred=True`` (the default) every device's queue records
    its partition's transfers and launch as an event graph, all
    partitions are launched asynchronously, and a single barrier at the
    end executes them dependency-ordered — so the per-device simulated
    timelines overlap instead of serializing with the host loop.
    ``deferred=False`` runs eagerly; the numerical results are
    identical either way.

    ``backoff`` tunes failure recovery (see ``docs/faults.md``):
    transient failures are retried up to ``MAX_RETRIES`` times per
    block with capped-exponential backoff on the simulated clock; a
    permanently failed device is quarantined from the cluster and each
    of its blocks re-runs whole on the earliest-ready survivor, so the
    layout keeps the plan's blocks.  When no device survives,
    :class:`~repro.errors.ClusterExecutionError` is raised.

    The resilience layer (see ``docs/resilience.md``) is opt-in:

    - ``watchdog`` (``True`` for the default 4x slow-factor, or a
      number) speculatively re-executes chunks the calibration model
      predicts to straggle past ``slow_factor x`` the best device's
      expected duration — chunks the ready-heap hands out (dynamic
      cuts and requeued blocks) in deferred mode only.
      The loser's event graph is *cancelled* before any payload runs.
    - ``deadline`` (simulated seconds) raises
      :class:`~repro.errors.DeadlineExceeded` — carrying the partial
      result — before launching a chunk whose device is ready past the
      budget, and once any completion stamp passes it.
    - ``checkpoint`` (a directory) snapshots host buffers + completed
      blocks after every dispatch round that completed one;
      ``resume=True`` restores a matching snapshot and skips the
      completed blocks, bit-identically.
    - ``probation=True`` probes quarantined devices every
      ``PROBE_INTERVAL`` completed chunks (and as a last
      chance before the final device is lost) and readmits the healthy
      ones with their calibration decayed by ``PROBATION_DECAY``.

    Returns a :class:`ClusterResult` — a list of the per-partition
    :class:`EvalResult` objects (all complete by return), in partition
    order, with the recovery record on ``.failures``.
    """
    dist_args = [a for a in args if isinstance(a, DistributedArray)]
    if not dist_args:
        raise HPLError("cluster_eval needs at least one DistributedArray")
    n = dist_args[0].n
    for a in dist_args:
        if a.n != n or a.cluster is not cluster:
            raise HPLError("all DistributedArrays must share the same "
                           "size and cluster")
    kernel_name = getattr(kernel, "__name__", repr(kernel))
    summary = FailureSummary()

    global _LAST_SUMMARY
    _LAST_SUMMARY = summary

    scheduler = get_scheduler(schedule)
    if scheduler is None \
            and len(dist_args[0].bounds) != len(cluster.devices):
        # the current layout (e.g. left over from a recovered run) no
        # longer maps one block per device: re-plan instead of guessing
        scheduler = get_scheduler("uniform")
    cutter = None
    if scheduler is None:
        for a in dist_args:
            if a.bounds != dist_args[0].bounds:
                raise HPLError(
                    "all DistributedArrays must share the same "
                    "partitioning; pass schedule=... to re-plan them "
                    "together")
        plan = [Partition(lo, hi, rank) for rank, (lo, hi)
                in enumerate(dist_args[0].bounds)]
    else:
        with trace.span("cluster_schedule", category="cluster",
                        policy=scheduler.name, kernel=kernel_name, n=n,
                        devices=len(cluster)):
            plan = scheduler.plan(n, cluster, kernel_name=kernel_name)
            if not plan:
                if not hasattr(scheduler, "next_chunk"):
                    raise HPLError(f"{scheduler!r} planned no chunks")
                cutter = scheduler
            _relayout(dist_args, [(p.lo, p.hi) for p in plan] or None,
                      backoff, summary)

    runner = _Runner(kernel, cluster, args, dist_args, plan, cutter,
                     kernel_name, summary, deferred=deferred,
                     backoff=backoff, watchdog=watchdog, deadline=deadline,
                     checkpoint=checkpoint, resume=resume,
                     probation=probation)
    # snapshot: quarantine mutates cluster.devices mid-run, and the
    # deferred flag must be restored on lost devices too
    devices = list(cluster.devices)
    previous = [d.deferred for d in devices]
    if deferred:
        for d in devices:
            d.set_deferred(True)
    try:
        launches = runner.run()
    finally:
        # readmitted devices first (they may not be in the snapshot),
        # then the snapshot, which is authoritative for devices that
        # were present when the run started
        for device, was_deferred in runner.restore:
            device.set_deferred(was_deferred)
        for device, was_deferred in zip(devices, previous):
            device.set_deferred(was_deferred)
    _record_calibration(kernel_name, launches)
    return ClusterResult([result for _chunk, result in launches], summary)


# -- timeline measurement -------------------------------------------------------


@dataclass
class ClusterTimeline:
    """Simulated-time shape of one multi-device run (see
    :func:`timeline_of`)."""

    #: wall-clock span on the simulated timeline: latest event end minus
    #: earliest event start, across every device involved
    makespan_seconds: float
    #: per-device busy time (sum of that device's event durations),
    #: keyed by device *label* — identity, not model name — so two
    #: same-model devices get separate buckets
    busy_seconds: dict
    #: what the same work would take with the devices serialized
    serialized_seconds: float = field(init=False)
    #: serialized / makespan — ~N on N equally-loaded devices
    overlap_factor: float = field(init=False)

    def __post_init__(self) -> None:
        self.serialized_seconds = sum(self.busy_seconds.values())
        self.overlap_factor = (self.serialized_seconds
                               / self.makespan_seconds
                               if self.makespan_seconds > 0 else 1.0)


def timeline_of(results) -> ClusterTimeline:
    """Measure the overlap of completed EvalResults and/or Events.

    ``results`` may mix :class:`EvalResult` objects and bare events
    (e.g. ``DistributedArray.last_gather_events``).  The events carry
    simulated start/end stamps on their device's timeline; the makespan
    spans all of them, while the serialized time is what a
    one-device-at-a-time host loop would pay.  Busy time is keyed by
    device *identity* (label), never by model name: two identical
    devices must not merge into one bucket.
    """
    events = []
    for r in results:
        events.extend(r.events if hasattr(r, "events") else [r])
    if not events:
        raise HPLError("timeline_of needs at least one event")
    start = min(e.profile_start for e in events)
    end = max(e.profile_end for e in events)
    busy: dict = {}
    for event in events:
        key = event.device_label or event.device_name
        busy[key] = busy.get(key, 0.0) + event.duration
    return ClusterTimeline(makespan_seconds=(end - start) * 1e-9,
                           busy_seconds=busy)
