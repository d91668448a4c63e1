"""``eval(kernel)(args...)`` — kernel invocation (paper §III-C).

The syntax mirrors the paper exactly, modulo Python keywords::

    eval(saxpy)(y, x, a)                               # defaults
    eval(f).global_(4, 8).local_(2, 4)(a)              # explicit domains
    eval(f).device(hpl.get_device("Quadro"))(a, b)     # explicit device

Defaults: the kernel runs on the first non-CPU device, the global domain
is the dimensions of the first argument, and the local domain is chosen
by the library.

A launch has two steps: :func:`prepare` resolves the kernel for a device
(cache lookup, capture, build), and the returned :class:`PreparedKernel`
binds the arguments and enqueues.  ``eval`` runs both on every call;
``cluster_eval`` resolves once per device per call and only binds and
enqueues per chunk.
"""

from __future__ import annotations

from .. import trace
from ..errors import DomainError, HPLError
from .array import Array
from .runtime import EvalResult, HPLDevice, HPLRuntime, get_runtime


class Evaluator:
    """Fluent launch configuration returned by :func:`eval`."""

    def __init__(self, func) -> None:
        if not callable(func):
            raise HPLError(f"eval() needs a kernel function, got {func!r}")
        self._func = func
        self._global: tuple | None = None
        self._local: tuple | None = None
        self._device: HPLDevice | None = None

    # -- fluent configuration ----------------------------------------------------

    def global_(self, *dims) -> "Evaluator":
        """Set the global domain (up to 3 dimensions)."""
        self._global = self._dims(dims, "global")
        return self

    def local_(self, *dims) -> "Evaluator":
        """Set the local domain (must divide the global domain)."""
        self._local = self._dims(dims, "local")
        return self

    def device(self, dev) -> "Evaluator":
        """Select the device that evaluates the kernel."""
        if isinstance(dev, (str, int)):
            from .runtime import get_device
            dev = get_device(dev)
        if not isinstance(dev, HPLDevice):
            raise HPLError(f"not an HPL device: {dev!r}")
        self._device = dev
        return self

    @staticmethod
    def _dims(dims, what: str) -> tuple:
        if len(dims) == 1 and isinstance(dims[0], (tuple, list)):
            dims = tuple(dims[0])
        out = tuple(int(d) for d in dims)
        if not 1 <= len(out) <= 3 or any(d <= 0 for d in out):
            raise DomainError(f"invalid {what} domain {dims!r}")
        return out

    # -- invocation ------------------------------------------------------------------

    def __call__(self, *args) -> EvalResult:
        with trace.span("eval", category="hpl",
                        func=getattr(self._func, "__name__",
                                     repr(self._func))) as espan:
            return self._invoke(args, espan)

    def _invoke(self, args, espan) -> EvalResult:
        rt: HPLRuntime = get_runtime()
        device = self._device or rt.default_device

        prepared = prepare(self._func, args, device)
        captured = prepared.compiled.captured
        espan.set_attrs(kernel=captured.kernel_name, device=device.name,
                        cache="hit" if prepared.from_cache else "miss")

        global_size = self._global
        if global_size is None:
            global_size = self._default_global(args, captured)
        local_size = self._local
        if local_size is not None:
            if len(local_size) != len(global_size):
                raise DomainError(
                    f"local domain {local_size} must have the same "
                    f"number of dimensions as the global domain "
                    f"{global_size}")
            for g, loc in zip(global_size, local_size):
                if g % loc:
                    raise DomainError(
                        f"local domain {local_size} does not divide the "
                        f"global domain {global_size} of kernel "
                        f"{captured.kernel_name!r} (dimension of size "
                        f"{g} is not a multiple of {loc})")

        with trace.span("bind_args", category="hpl",
                        kernel=captured.kernel_name):
            transfers, dep_events = prepared.bind(args)
        return prepared.launch(args, transfers, dep_events, global_size,
                               local_size)

    @staticmethod
    def _default_global(args, captured) -> tuple:
        """Paper §III-C: "the global domain of the evaluation of a kernel
        is given by the dimensions of its first argument"."""
        for arg in args:
            if isinstance(arg, Array):
                return arg.shape
        raise DomainError(
            "cannot infer a global domain: no Array argument; use "
            ".global_(...)")


def prepare(func, args, device: HPLDevice) -> "PreparedKernel":
    """The resolve step of a launch: ``func`` compiled for ``device``.

    Keys the runtime caches on the call's closure and argument
    signature, capturing and building on a miss.  A failure (an
    injected build fault, a device without fp64) raises and leaves
    nothing behind, so the next resolution draws again.
    """
    compiled, from_cache = get_runtime().get_compiled(func, args, device)
    return PreparedKernel(compiled, device, from_cache)


class PreparedKernel:
    """A kernel resolved for one device, ready to launch many times.

    Holds the compiled program, one ``Kernel`` object and each
    parameter's read/write flags.  :meth:`bind` and :meth:`launch` are
    the one launch path: a plain ``eval`` resolves afresh on every call,
    while ``cluster_eval`` resolves once per device per call and
    re-binds each chunk's blocks.  Re-binding is safe because a launch
    captures the kernel's bound arguments at enqueue time.
    """

    __slots__ = ("compiled", "device", "from_cache", "kernel", "_params")

    def __init__(self, compiled, device: HPLDevice,
                 from_cache: bool) -> None:
        captured = compiled.captured
        info = captured.info
        self.compiled = compiled
        self.device = device
        #: whether the resolve step hit the compiled cache; only the
        #: first launch bills capture and build seconds
        self.from_cache = from_cache
        self.kernel = compiled.program.create_kernel(captured.kernel_name)
        #: (name, reads, writes) per kernel parameter, in order
        self._params = tuple((name, info.reads(name), info.writes(name))
                             for name, _proxy in captured.params)

    def bind(self, args) -> tuple[list, list]:
        """Bind ``args``, copying in only what the kernel will read.

        Returns ``(transfers, dep_events)``: each h2d event tied to the
        parameter that caused it, and every event the launch must wait
        on (those copies and each argument's producing event).
        """
        device, kernel = self.device, self.kernel
        transfers: list = []
        dep_events: list = []
        for index, ((name, reads, _writes), arg) in enumerate(
                zip(self._params, args)):
            if isinstance(arg, Array):
                h2d = arg.ensure_on_device(device, will_read=reads)
                kernel.set_arg(index, arg.buffer_on(device))
                if h2d is not None:
                    transfers.append((name, h2d))
                    dep_events.append(h2d)
                else:
                    producer = arg.device_event_on(device)
                    if producer is not None and producer not in dep_events:
                        dep_events.append(producer)
            else:
                value = arg.value if hasattr(arg, "value") else arg
                kernel.set_arg(index, value)
        return transfers, dep_events

    def launch(self, args, transfers, dep_events, global_size,
               local_size=None) -> EvalResult:
        """Enqueue the kernel bound by :meth:`bind` over ``args``."""
        from_cache, self.from_cache = self.from_cache, True
        device = self.device
        captured = self.compiled.captured
        with trace.span("launch", category="hpl",
                        kernel=captured.kernel_name, device=device.name,
                        global_size=global_size,
                        local_size=local_size) as lspan:
            event = device.queue.enqueue_nd_range_kernel(
                self.kernel, global_size, local_size,
                wait_for=dep_events or None)
            if event.is_complete:
                lspan.set_attr("sim_kernel_seconds", event.duration)
        get_runtime().stats.launches += 1

        # coherence: the device now owns every array the kernel wrote,
        # and the kernel event is recorded as its producing event
        for (_name, _reads, writes), arg in zip(self._params, args):
            if writes and isinstance(arg, Array):
                arg.mark_written_on(device, event)

        return EvalResult(
            kernel_event=event,
            transfer_events=[e for _n, e in transfers],
            transfers=transfers,
            codegen_seconds=0.0 if from_cache else captured.codegen_seconds,
            build_seconds=0.0 if from_cache
            else self.compiled.build_seconds,
            from_cache=from_cache,
            device=device,
            source=captured.source,
            kernel_name=captured.kernel_name,
        )


def eval(kernel) -> Evaluator:  # noqa: A001 - paper-mandated name
    """Request the parallel evaluation of ``kernel`` (see module docs)."""
    return Evaluator(kernel)


#: alias for contexts where shadowing builtins is unwelcome
eval_ = eval
