"""The HPL runtime: devices, kernel caches, transfers, statistics.

This is the machinery the paper credits for HPL's productivity (§V-A):
"OpenCL requires the manual setup of the environment, management of the
buffers both in the device and host memory and the transfers between
them, explicit load and compilation of the kernels, etc.  All these
necessary steps are highly automated and hidden from the user in HPL."

Also implemented here is the behaviour behind §V-B: "HPL stores
internally and reuses the binaries of the kernels it generates", so only
the first invocation of a kernel pays capture + code generation +
compilation; the wall-clock cost of those stages is recorded in
:class:`RuntimeStats` so the overhead experiments (Figures 8/9) can
measure exactly what the paper measured.
"""

from __future__ import annotations

import inspect
import math
import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from .. import ocl, trace
from ..errors import BuildProgramFailure, HPLError, KernelCaptureError
from ..trace import MetricsRegistry
from . import dtypes as D
from .analysis import KernelInfo, analyze_kernel
from .array import Array
from .builder import KernelBuilder
from .codegen import generate_source
from .proxy import ArrayHandle, ScalarParam
from .scalars import HostScalar


#: leaf types whose exact type alone completes their key: equal values
#: of one type trace identically
_PLAIN_LEAVES = (int, str, bytes, type(None))
#: follows a float leaf equal to ``-0.0`` in a closure key's shape
_NEGATIVE_ZERO = "-0.0"


def _stat_property(key: str, cast):
    metric = "hpl." + key

    def fget(self):
        return cast(self._counters[key].value)

    def fset(self, value):
        self._counters[key].set(cast(value))

    return property(fget, fset, doc=f"backed by metric {metric!r}")


class RuntimeStats:
    """Aggregate counters over the life of the runtime.

    The attribute API is unchanged from the original dataclass
    (``stats.cache_hits += 1`` still works), but every field is now
    backed by a counter named ``hpl.<field>`` in a
    :class:`repro.trace.MetricsRegistry`, so the same numbers appear in
    metric snapshots/summaries without double bookkeeping.  Each
    :class:`HPLRuntime` owns a private registry, which is why
    ``reset_runtime()`` still zeroes everything.
    """

    #: field name -> type, mirrored one-to-one into registry counters
    FIELDS = {
        "kernels_captured": int,
        "kernels_built": int,
        "cache_hits": int,
        "launches": int,
        "codegen_seconds": float,
        "build_seconds": float,
        "h2d_transfers": int,
        "h2d_bytes": int,
        "d2h_transfers": int,
        "d2h_bytes": int,
        "h2d_seconds": float,
        "d2h_seconds": float,
    }

    def __init__(self, registry: MetricsRegistry | None = None, **init):
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        # looked up once: a registry reset zeroes its counters in place
        self._counters = {name: self.registry.counter("hpl." + name)
                          for name in self.FIELDS}
        for name, value in init.items():
            if name not in self.FIELDS:
                raise TypeError(f"unknown RuntimeStats field {name!r}")
            setattr(self, name, value)

    def add(self, **amounts) -> None:
        """Add to several fields, one counter increment each."""
        counters = self._counters
        for name, amount in amounts.items():
            counters[name].inc(amount)

    def counter(self, name: str):
        """The registry counter backing field ``name``, for call sites
        that add to it on every command."""
        return self._counters[name]

    @property
    def transfer_seconds(self) -> float:
        """Total simulated transfer time (h2d + d2h), in seconds."""
        return self.h2d_seconds + self.d2h_seconds

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of kernel lookups served from the binary cache."""
        lookups = self.cache_hits + self.kernels_built
        return self.cache_hits / lookups if lookups else 0.0

    # Disk-cache counters live in the *process-global* registry (the
    # cache outlives any one runtime and is shared across runtimes), so
    # they are surfaced here read-only and survive reset_runtime().

    @property
    def disk_cache_hits(self) -> int:
        """Compiles served from the persistent cross-process cache."""
        return int(trace.get_registry()
                   .counter("hpl.disk_cache_hits").value)

    @property
    def disk_cache_misses(self) -> int:
        """Persistent-cache lookups that fell through to the compiler."""
        return int(trace.get_registry()
                   .counter("hpl.disk_cache_misses").value)

    @property
    def disk_cache_bytes(self) -> int:
        """Bytes of serialized IR written to the persistent cache."""
        return int(trace.get_registry()
                   .counter("hpl.disk_cache_bytes").value)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}

    def __eq__(self, other) -> bool:
        if not isinstance(other, RuntimeStats):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"RuntimeStats({inner})"


for _name, _cast in RuntimeStats.FIELDS.items():
    setattr(RuntimeStats, _name, _stat_property(_name, _cast))
del _name, _cast


def _transfer_account(counters, nbytes: int):
    """The completion callback that bills one transfer of ``nbytes`` to
    ``counters`` (transfers, bytes, seconds of its direction)."""
    transfers, nbytes_counter, seconds = counters

    def account(ev):
        if ev.is_failed:
            return          # the copy never happened: nothing to bill
        duration = ev.duration
        transfers.inc(1)
        nbytes_counter.inc(nbytes)
        seconds.inc(duration)

    return account


class HPLDevice:
    """One device usable by ``eval(...).device(dev)``."""

    def __init__(self, ocl_device: ocl.Device, stats: RuntimeStats) -> None:
        self.ocl = ocl_device
        self.context = ocl.Context([ocl_device])
        self.queue = ocl.CommandQueue(self.context, ocl_device)
        #: (transfers, bytes, seconds) counters of each direction
        self._h2d = tuple(stats.counter(f"h2d_{field}")
                          for field in ("transfers", "bytes", "seconds"))
        self._d2h = tuple(stats.counter(f"d2h_{field}")
                          for field in ("transfers", "bytes", "seconds"))

    # -- info --------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.ocl.name

    @property
    def label(self) -> str:
        """Unique device identity (``name#index``); two devices of the
        same model share a name but never a label."""
        return self.ocl.label

    @property
    def is_cpu(self) -> bool:
        return self.ocl.is_cpu

    @property
    def supports_fp64(self) -> bool:
        return self.ocl.supports_fp64

    def __repr__(self) -> str:
        return f"<HPLDevice {self.name!r}>"

    # -- memory ---------------------------------------------------------------------

    def create_buffer(self, nbytes: int) -> ocl.Buffer:
        return ocl.Buffer(self.context, ocl.mem_flags.READ_WRITE,
                          size=nbytes)

    def write_buffer(self, buffer: ocl.Buffer, host: np.ndarray,
                     wait_for=None) -> ocl.Event:
        """Enqueue an h2d copy; returns its event (QUEUED if deferred).

        Stats are credited when the command actually completes, so
        deferred transfers still land in the right counters.
        """
        event = self.queue.enqueue_write_buffer(buffer, host,
                                                wait_for=wait_for)
        event.add_callback(_transfer_account(self._h2d, host.nbytes))
        return event

    def read_buffer(self, buffer: ocl.Buffer, host: np.ndarray,
                    wait_for=None) -> ocl.Event:
        """Enqueue a d2h copy; returns its event (QUEUED if deferred)."""
        event = self.queue.enqueue_read_buffer(buffer, host,
                                               wait_for=wait_for)
        event.add_callback(_transfer_account(self._d2h, host.nbytes))
        return event

    # -- execution mode ------------------------------------------------------------

    @property
    def deferred(self) -> bool:
        """Whether this device's queue records instead of executing."""
        return self.queue.deferred

    def set_deferred(self, flag: bool) -> None:
        """Switch between eager and deferred execution.

        Leaving deferred mode first flushes everything recorded, so no
        command is ever silently dropped.
        """
        flag = bool(flag)
        if not flag and self.queue.deferred:
            self.queue.finish()
        self.queue.deferred = flag

    def finish(self) -> None:
        """Execute and complete everything enqueued on this device."""
        self.queue.finish()


@dataclass
class CapturedKernel:
    """The device-independent result of tracing one kernel signature."""

    kernel_name: str
    source: str
    info: KernelInfo
    #: ordered (name, proxy) pairs as traced
    params: list
    codegen_seconds: float


@dataclass
class CompiledKernel:
    """A captured kernel built for one particular device."""

    captured: CapturedKernel
    program: ocl.Program
    build_seconds: float


@dataclass
class EvalResult:
    """Everything one ``eval`` invocation produced, for measurement.

    Simulated device time lives in the events; wall-clock HPL overhead
    (capture/codegen and OpenCL build) is recorded for the invocation
    that actually paid it (cold start), matching §V-B methodology.

    Events are threaded explicitly: ``transfers`` names, for each h2d
    copy this eval itself caused, the kernel parameter it fed — so
    transfer accounting is per-eval by construction, and host-triggered
    reads between evals can never be billed here.  On a deferred device
    the events may still be QUEUED; :meth:`wait` drives them (and the
    kernel) to completion.
    """

    kernel_event: ocl.Event
    transfer_events: list = field(default_factory=list)
    #: (kernel parameter name, h2d event) pairs, same events as above
    transfers: list = field(default_factory=list)
    codegen_seconds: float = 0.0
    build_seconds: float = 0.0
    from_cache: bool = True
    device: HPLDevice | None = None
    source: str = ""
    kernel_name: str = ""

    @property
    def events(self) -> list:
        """Every event this eval enqueued, transfers then the kernel."""
        return [*self.transfer_events, self.kernel_event]

    @property
    def complete(self) -> bool:
        return all(e.is_complete for e in self.events)

    def wait(self) -> "EvalResult":
        """Drive this eval's commands to completion (deferred mode).

        Raises the underlying error if any command failed; use
        :meth:`drive` + :attr:`failed_event` to inspect instead."""
        for event in self.events:
            event.wait()
        return self

    def drive(self) -> "EvalResult":
        """Execute this eval's commands without raising on failure.

        Recovery code (``cluster_eval``) drives results and inspects
        :attr:`failed_event` so one failed partition cannot abort its
        siblings mid-flight."""
        for event in self.transfer_events:
            event.drive()
        self.kernel_event.drive()
        return self

    @property
    def failed_event(self) -> "ocl.Event | None":
        """The first abnormally terminated event, or None."""
        for event in self.transfer_events:
            if event.is_failed:
                return event
        return self.kernel_event if self.kernel_event.is_failed else None

    @property
    def kernel_seconds(self) -> float:
        """Simulated kernel execution time."""
        return self.kernel_event.duration

    @property
    def transfer_seconds(self) -> float:
        """Simulated host->device transfer time paid by this eval."""
        return sum(e.duration for e in self.transfer_events)

    @property
    def overhead_seconds(self) -> float:
        """Wall-clock HPL overhead paid by this invocation."""
        return self.codegen_seconds + self.build_seconds


class HPLRuntime:
    """Process-wide singleton owning devices and kernel caches."""

    _instance: "HPLRuntime | None" = None

    def __init__(self) -> None:
        self.stats = RuntimeStats()
        platform = ocl.get_platforms()[0]
        self.devices = [HPLDevice(d, self.stats)
                        for d in platform.get_devices()]
        if not self.devices:
            raise HPLError("no devices available")
        #: the same devices as a set, for the arrays' liveness checks
        self.device_set = frozenset(self.devices)
        #: (func key, signature) -> CapturedKernel
        self._captured: dict = {}
        #: (func key, signature, device) -> CompiledKernel
        self._compiled: dict = {}

    # -- singleton management ---------------------------------------------------------

    @classmethod
    def instance(cls) -> "HPLRuntime":
        if cls._instance is None:
            cls._instance = HPLRuntime()
        return cls._instance

    @classmethod
    def reset(cls) -> None:
        """Drop the runtime (used by tests and to change the platform)."""
        cls._instance = None

    # -- device selection ----------------------------------------------------------------

    @property
    def default_device(self) -> HPLDevice:
        """Paper §III-C: "the first device found in the system that is
        not a standard general-purpose CPU", else the first device."""
        for dev in self.devices:
            if not dev.is_cpu:
                return dev
        return self.devices[0]

    def device_by_name(self, fragment: str) -> HPLDevice:
        for dev in self.devices:
            if fragment.lower() in dev.name.lower():
                return dev
        raise HPLError(f"no device matching {fragment!r}; have: "
                       + ", ".join(d.name for d in self.devices))

    # -- cache keys --------------------------------------------------------------------------

    @classmethod
    def _cell_signature(cls, value):
        """A hashable by-value key for closure contents, or None.

        The key is ``(value, shape)``.  ``shape`` lists, in pre-order,
        each tuple's length and each leaf's exact type, so values that
        compare equal but trace differently (``1``/``1.0``/``True``,
        ``(1,)``/``(1.0,)``) get different keys.  A ``-0.0`` leaf adds
        a marker after its type, since it equals ``0.0`` but divides to
        the other infinity.  A frozenset adds the frozenset of its
        elements' keys: equal sets of differently typed elements can
        iterate in the same type order, so iteration order is no key.
        Anything else (lists, dicts, sets, arbitrary objects) is not
        plain data: HPL cannot tell whether it shapes the traced
        source, so the caller falls back to identity keying.
        """
        shape: list = []
        append = shape.append
        stack = [value]
        pop, push = stack.pop, stack.extend
        while stack:
            v = pop()
            t = type(v)
            if isinstance(v, tuple):
                if t is not tuple:              # e.g. a namedtuple
                    append(t)
                append(len(v))
                push(v[::-1])
            elif isinstance(v, _PLAIN_LEAVES):
                append(t)
            elif isinstance(v, float):
                append(t)
                if v == 0.0 and math.copysign(1.0, v) < 0.0:
                    append(_NEGATIVE_ZERO)
            elif isinstance(v, complex):
                append(t)
                append((math.copysign(1.0, v.real),
                        math.copysign(1.0, v.imag)))
            elif isinstance(v, frozenset):
                keys = []
                for item in v:
                    key = cls._cell_signature(item)
                    if key is None:
                        return None
                    keys.append(key)
                append(t)
                append(frozenset(keys))
            else:
                return None
        return value, tuple(shape)

    def _func_key(self, func):
        """A cache key for the kernel function itself.

        Per-call lambdas and closures share one key as long as they
        share a code object and capture only plain values, so kernels
        built in a loop hit the cache instead of growing it without
        bound.  Functions whose closures capture arbitrary objects (or
        bound methods, whose ``self`` shapes the trace) are keyed by
        identity through a weak reference, so the cache entry dies with
        the function instead of pinning it forever.
        """
        code = getattr(func, "__code__", None)
        if code is not None and getattr(func, "__self__", None) is None:
            try:
                sig = self._cell_signature(tuple(
                    cell.cell_contents
                    for cell in getattr(func, "__closure__", None) or ()))
            except ValueError:              # an empty cell
                sig = None
            if sig is not None:
                return (code, sig)
        try:
            return weakref.ref(func, self._purge_func)
        except TypeError:
            return func                     # not weak-referenceable

    def _purge_func(self, ref) -> None:
        """Weakref callback: drop cache entries of a collected kernel."""
        self._captured = {k: v for k, v in self._captured.items()
                          if k[0] is not ref}
        self._compiled = {k: v for k, v in self._compiled.items()
                          if k[0] is not ref}
        self._update_cache_gauge()

    def _update_cache_gauge(self) -> None:
        self.stats.registry.gauge("hpl.cache_entries").set(
            len(self._captured) + len(self._compiled))

    @property
    def cache_entries(self) -> int:
        """Total captured + compiled cache entries (also a gauge)."""
        return len(self._captured) + len(self._compiled)

    # -- capture -----------------------------------------------------------------------------

    @staticmethod
    def arg_signature(args) -> tuple:
        parts = []
        for arg in args:
            if isinstance(arg, Array):
                parts.append(arg.signature())
            elif isinstance(arg, HostScalar):
                parts.append(("s", arg.dtype.name))
            else:
                parts.append(("s", D.infer_scalar_type(arg).name))
        return tuple(parts)

    def signature_of(self, func, args) -> tuple:
        return (self._func_key(func), self.arg_signature(args))

    def get_captured(self, func, args, key=None) -> CapturedKernel:
        """The captured kernel for this invocation; ``key`` is its
        :meth:`signature_of`, when the caller already has it."""
        if key is None:
            key = self.signature_of(func, args)
        hit = self._captured.get(key)
        if hit is not None:
            return hit
        with trace.span("capture", category="hpl",
                        func=getattr(func, "__name__", repr(func))) as sp:
            captured = self._capture(func, args)
            sp.set_attrs(kernel=captured.kernel_name,
                         codegen_seconds=captured.codegen_seconds)
        self._captured[key] = captured
        self._update_cache_gauge()
        self.stats.kernels_captured += 1
        self.stats.codegen_seconds += captured.codegen_seconds
        self.stats.registry.histogram("hpl.codegen_per_kernel").observe(
            captured.codegen_seconds)
        return captured

    def _capture(self, func, args) -> CapturedKernel:
        t0 = time.perf_counter()
        try:
            sig = inspect.signature(func)
        except (TypeError, ValueError) as exc:
            raise KernelCaptureError(
                f"cannot inspect kernel function {func!r}: {exc}") from exc
        names = [p.name for p in sig.parameters.values()
                 if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        star = [p.name for p in sig.parameters.values()
                if p.kind == p.VAR_POSITIONAL]
        if star and len(args) > len(names):
            names += [f"{star[0]}{i}" for i in
                      range(len(args) - len(names))]
        if len(names) != len(args):
            raise KernelCaptureError(
                f"kernel {func.__name__!r} declares {len(names)} "
                f"parameter(s) but eval got {len(args)} argument(s)")

        params: list = []
        proxies: list = []
        for name, arg in zip(names, args):
            if isinstance(arg, Array):
                proxy = arg.make_handle(name)
            elif isinstance(arg, ArrayHandle):
                raise KernelCaptureError(
                    "kernel proxies cannot be passed back into eval()")
            elif isinstance(arg, HostScalar):
                proxy = ScalarParam(name=name, dtype=arg.dtype,
                                    is_param=True)
            else:
                proxy = ScalarParam(name=name,
                                    dtype=D.infer_scalar_type(arg),
                                    is_param=True)
            params.append((name, proxy))
            proxies.append(proxy)

        import re

        from ..clc.tokens import KEYWORDS
        kernel_name = re.sub(r"[^A-Za-z0-9_]", "_", func.__name__)
        if not kernel_name or kernel_name[0].isdigit() \
                or kernel_name in KEYWORDS:
            kernel_name = "k_" + kernel_name

        builder = KernelBuilder(kernel_name)
        builder.reserve_names(names)
        with builder:
            result = func(*proxies)
        if result is not None:
            raise KernelCaptureError(
                f"kernel {func.__name__!r} returned a value; HPL kernels "
                "communicate with the host only through their arguments "
                "(paper §III-C)")
        if not builder.body:
            raise KernelCaptureError(
                f"kernel {func.__name__!r} recorded no statements — is it "
                "operating on its proxy arguments?")

        info = analyze_kernel(builder.body, params)
        source = generate_source(kernel_name, params, builder.body,
                                 info.access)
        elapsed = time.perf_counter() - t0
        return CapturedKernel(kernel_name=kernel_name, source=source,
                              info=info, params=params,
                              codegen_seconds=elapsed)

    # -- compile ------------------------------------------------------------------------------

    def get_compiled(self, func, args, device: HPLDevice
                     ) -> tuple[CompiledKernel, bool]:
        """The (compiled kernel, was_cached) pair for this invocation.

        The key carries the device's *resolved* engine name so switching
        backends mid-session (``hpl.configure(engine=)``) recompiles
        instead of reusing another backend's cached executable.
        """
        signature = self.signature_of(func, args)
        key = signature + (device, device.ocl.engine_name)
        hit = self._compiled.get(key)
        if hit is not None:
            self.stats.cache_hits += 1
            return hit, True
        captured = self.get_captured(func, args, signature)
        if captured.info.uses_double and not device.supports_fp64:
            raise BuildProgramFailure(
                f"kernel {captured.kernel_name!r} uses double precision, "
                f"which {device.name} does not support")
        with trace.span("build", category="hpl",
                        kernel=captured.kernel_name,
                        device=device.name) as sp:
            disk_hits_before = self.stats.disk_cache_hits
            t0 = time.perf_counter()
            program = ocl.Program(device.context, captured.source).build()
            build_seconds = time.perf_counter() - t0
            sp.set_attr("build_seconds", build_seconds)
            from .diskcache import active_cache
            if active_cache() is not None:
                sp.set_attr("disk_cache",
                            "hit" if self.stats.disk_cache_hits
                            > disk_hits_before else "miss")
        compiled = CompiledKernel(captured=captured, program=program,
                                  build_seconds=build_seconds)
        self._compiled[key] = compiled
        self._update_cache_gauge()
        self.stats.kernels_built += 1
        self.stats.build_seconds += build_seconds
        self.stats.registry.histogram("hpl.build_per_kernel").observe(
            build_seconds)
        return compiled, False


# -- module-level helpers -----------------------------------------------------------

def get_runtime() -> HPLRuntime:
    return HPLRuntime.instance()


def get_devices() -> list[HPLDevice]:
    """All devices HPL can evaluate kernels on."""
    return list(get_runtime().devices)


def get_device(fragment: str | int) -> HPLDevice:
    """A device by index or by name fragment (case-insensitive)."""
    rt = get_runtime()
    if isinstance(fragment, int):
        return rt.devices[fragment]
    return rt.device_by_name(fragment)


def reset_runtime() -> None:
    """Forget devices, caches and statistics (primarily for tests).

    The compiled programs go with their launch counts and JIT-compiled
    code, which live on each program's bytecode, so the next launch of
    a kernel is interpreted again.  Collected kernel profiles are kept:
    the benchsuite resets between the variants and apps of one target,
    and ``--record`` drains the profiler once per target.
    """
    HPLRuntime.reset()
