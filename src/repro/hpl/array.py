"""HPL Arrays (paper §III-A): host-side arrays with device coherence.

``Array(double_, 1000)`` creates a vector usable both in host code and as
a kernel argument.  HPL tracks where the current contents live (host
memory and/or per-device buffers) and moves data lazily: a kernel launch
copies in only the arguments the kernel *reads* (per the access
analysis), and host accesses copy back only when the freshest copy is on
a device.

Host indexing uses parentheses — ``a(i, j)`` — as in the paper, which
reserves square brackets for (dynamically compiled, overhead-free) kernel
code; ``a[i, j]`` also works on the host as a pythonic convenience.
Inside kernels, ``Array(...)`` declares a private (or, with ``Local``, a
scratchpad) array instead — the same dual role the C++ template has.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import CoherenceError, HPLError, KernelCaptureError
from . import dtypes as D
from . import kast as K
from .builder import KernelBuilder
from .proxy import ArrayHandle


#: ``repro.hpl.runtime.HPLRuntime``, bound on first use: the runtime
#: module imports this one
_RUNTIME_CLASS = None


def _runtime_class():
    global _RUNTIME_CLASS
    if _RUNTIME_CLASS is None:
        from .runtime import HPLRuntime
        _RUNTIME_CLASS = HPLRuntime
    return _RUNTIME_CLASS


def _normalize_dims(dims) -> tuple[int, ...]:
    if len(dims) == 1 and isinstance(dims[0], (tuple, list)):
        dims = tuple(dims[0])
    shape = tuple(int(d) for d in dims)
    if not shape:
        raise HPLError("an Array needs at least one dimension; use the "
                       "scalar classes (Int, Double, ...) for scalars")
    if any(d <= 0 for d in shape):
        raise HPLError(f"invalid Array shape {shape}")
    return shape


class Array:
    """An HPL array; see the module docstring."""

    def __new__(cls, dtype: D.HPLType, *dims, mem: str | None = None,
                data: np.ndarray | None = None, name: str | None = None):
        builder = KernelBuilder.current()
        if builder is None:
            return super().__new__(cls)
        # inside a kernel: declare a private or local array
        shape = _normalize_dims(dims)
        if data is not None:
            raise KernelCaptureError(
                "in-kernel Array declarations cannot wrap host data")
        space = D.PRIVATE if mem in (None, D.PRIVATE) else mem
        if space not in (D.PRIVATE, D.LOCAL):
            raise KernelCaptureError(
                "arrays declared inside kernels are private by default "
                "or Local; Global/Constant arrays must come from the host")
        var_name = builder.claim_name(name) if name \
            else builder.fresh_name("arr")
        builder.add(K.DeclArray(name=var_name, dtype=dtype, shape=shape,
                                mem=space))
        return ArrayHandle(var_name, dtype, shape, mem=space,
                           is_param=False)

    def __init__(self, dtype: D.HPLType, *dims, mem: str | None = None,
                 data: np.ndarray | None = None,
                 name: str | None = None) -> None:
        if not isinstance(dtype, D.HPLType):
            raise HPLError(
                f"first argument must be an HPL element type "
                f"(float_, double_, int_, ...), got {dtype!r}")
        shape = _normalize_dims(dims)
        self.dtype = dtype
        self.shape = shape
        self.mem = D.GLOBAL if mem is None else mem
        if self.mem not in (D.GLOBAL, D.CONSTANT):
            raise HPLError("host Arrays live in Global or Constant memory")
        self.name = name

        if data is not None:
            data = np.asarray(data)
            if data.dtype != dtype.np_dtype:
                raise HPLError(
                    f"provided storage has dtype {data.dtype}, expected "
                    f"{dtype.np_dtype} — HPL wraps user memory without "
                    "copying, so the types must match")
            if data.size != math.prod(shape):
                raise HPLError(
                    f"provided storage has {data.size} elements, shape "
                    f"{shape} needs {math.prod(shape)}")
            self._host = np.ascontiguousarray(data).reshape(shape)
            self._user_owned = True
        else:
            self._host = np.zeros(shape, dtype=dtype.np_dtype)
            self._user_owned = False
        self._init_coherence()

    @classmethod
    def _view(cls, dtype: D.HPLType, data: np.ndarray) -> "Array":
        """A global 1-D Array over ``data`` without the constructor's
        checks: ``data`` must be a contiguous 1-D slice of a host buffer
        already validated for ``dtype`` (a distributed array's block)."""
        self = object.__new__(cls)
        self.dtype = dtype
        self.shape = data.shape
        self.mem = D.GLOBAL
        self.name = None
        self._host = data
        self._user_owned = True
        self._init_coherence()
        return self

    def _init_coherence(self) -> None:
        """Start host-valid, with no device copy."""
        self._host_valid = True
        self._device_valid: dict = {}    # HPLDevice -> bool
        self._buffers: dict = {}         # HPLDevice -> ocl.Buffer
        # event threading: the command that produced each current copy
        self._device_event: dict = {}    # HPLDevice -> ocl.Event
        #: event of the d2h copy that produced the current host contents
        #: (None when the host copy came from host-side writes)
        self.host_event = None

    # -- geometry -----------------------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize

    # -- host access ----------------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """Writable NumPy view of the host copy (paper's ``data()``).

        Accessing it synchronises the host copy and conservatively marks
        device copies stale, since HPL cannot see writes through the raw
        pointer.  Use :meth:`read` when you only need to look.
        """
        self._sync_host()
        self._invalidate_devices()
        return self._host

    def read(self) -> np.ndarray:
        """Read-only NumPy view of the (synchronised) host copy."""
        self._sync_host()
        view = self._host.view()
        view.flags.writeable = False
        return view

    def fill(self, value) -> "Array":
        """Set every element to ``value`` (host-side write)."""
        self._host[...] = value
        self._invalidate_devices()
        return self

    def __call__(self, *indices):
        """Element read with parentheses, as in host HPL code."""
        self._sync_host()
        return self._host[tuple(int(i) for i in indices)]

    def __getitem__(self, key):
        if KernelBuilder.current() is not None:
            raise KernelCaptureError(
                f"host Array {self._label()} used inside a kernel; pass "
                "it as a kernel argument instead of capturing it")
        self._sync_host()
        view = self._host[key]
        if isinstance(view, np.ndarray):
            view = view.view()
            view.flags.writeable = False
        return view

    def __setitem__(self, key, value) -> None:
        if KernelBuilder.current() is not None:
            raise KernelCaptureError(
                f"host Array {self._label()} written inside a kernel; "
                "pass it as a kernel argument instead")
        self._sync_host()
        self._host[key] = value
        self._invalidate_devices()

    def __len__(self) -> int:
        return self.shape[0]

    def _label(self) -> str:
        return self.name or f"<Array {self.dtype}{list(self.shape)}>"

    def __repr__(self) -> str:
        where = ["host"] if self._host_valid else []
        where += [dev.name for dev, ok in self._device_valid.items() if ok]
        return (f"<hpl.Array {self.dtype}{list(self.shape)} "
                f"mem={self.mem} valid_on={where}>")

    # -- coherence (driven by the HPL runtime) ------------------------------------------

    @staticmethod
    def _live_devices():
        """Devices of the current runtime, or None when no runtime exists
        (``reset_runtime()`` was called and nothing re-created one)."""
        rt = _runtime_class()._instance
        return None if rt is None else rt.device_set

    def _purge_dead_devices(self) -> None:
        """Drop buffers keyed by devices of a reset runtime.

        A copy that is both valid and the array's *only* valid copy is
        kept, so :meth:`_sync_host` can raise a clear error instead of a
        silent "no valid copy anywhere"."""
        if not self._buffers:
            return
        live = self._live_devices()
        if live is not None and live.issuperset(self._buffers):
            return
        dead = [dev for dev in self._buffers
                if live is None or dev not in live]
        for dev in dead:
            if self._host_valid or not self._device_valid.get(dev):
                self._buffers.pop(dev, None)
                self._device_valid.pop(dev, None)
                self._device_event.pop(dev, None)

    def _sync_host(self):
        """Bring the host copy up to date; returns the d2h event if one
        was needed (already complete), else None."""
        event = self.enqueue_host_sync()
        if event is not None:
            event.wait()     # host code touches the data right after
        return event

    def enqueue_host_sync(self):
        """Enqueue (without waiting) the d2h copy refreshing the host.

        Returns the transfer event, or ``None`` when the host copy is
        already valid.  The host copy becomes valid when the event
        *completes* (a completion callback flips the state), so callers
        must ``wait()`` the event — or drive the queue — before touching
        the data.  Enqueueing the copies of several arrays on different
        devices before waiting any of them lets the transfers overlap on
        the simulated timeline instead of serializing with the host loop
        (see :meth:`DistributedArray.gather`).
        """
        if self._host_valid:
            return None
        live = self._live_devices()
        stale = []
        for dev, ok in self._device_valid.items():
            if not ok:
                continue
            if live is None or dev not in live:
                stale.append(dev)
                continue
            producer = self._device_event.get(dev)
            event = dev.read_buffer(
                self._buffers[dev], self._host,
                wait_for=[producer] if producer is not None else None)

            def _done(ev, self=self):
                if ev.is_failed:
                    return      # d2h never ran; the host copy is still stale
                self._host_valid = True
                self.host_event = ev

            event.add_callback(_done)
            return event
        if stale:
            raise CoherenceError(
                f"the freshest copy of {self._label()} lives on "
                f"{', '.join(d.name for d in stale)} of a runtime that "
                "was reset; its contents are unrecoverable.  Sync arrays "
                "to the host (e.g. via read()) before reset_runtime()")
        raise HPLError(
            f"{self._label()} has no valid copy anywhere (internal "
            "coherence error)")

    def _invalidate_devices(self) -> None:
        """Make the host copy the only valid one."""
        self._host_valid = True
        for dev in self._device_valid:
            self._device_valid[dev] = False
        self._device_event.clear()
        self.host_event = None

    def ensure_on_device(self, dev, *, will_read: bool):
        """Make sure a buffer exists on ``dev``; copy data only if the
        kernel will read this argument and the device copy is stale.

        Returns the h2d event when a copy was enqueued, else None.  The
        copy waits on the d2h event that produced the host contents (if
        any), so cross-device movement is ordered on the event graph,
        not by host-loop side effects.
        """
        self._purge_dead_devices()
        buffer = self._buffers.get(dev)
        if buffer is None:
            buffer = self._buffers[dev] = dev.create_buffer(
                self._host.nbytes)
            self._device_valid[dev] = False
        if will_read and not self._device_valid[dev]:
            if not self._host_valid:
                self._sync_host()
            deps = [self.host_event] if self.host_event is not None \
                else None
            event = dev.write_buffer(buffer, self._host, wait_for=deps)
            self._device_valid[dev] = True
            self._device_event[dev] = event

            def _undo(ev, self=self, dev=dev):
                # the h2d never ran (injected fault or failed
                # dependency): forget the optimistic validity so a
                # retry re-copies instead of dead-ending on the
                # failed producer event
                if not ev.is_failed:
                    return
                if self._device_event.get(dev) is ev:
                    self._device_valid[dev] = False
                    self._device_event.pop(dev, None)

            event.add_callback(_undo)
            return event
        return None

    def mark_written_on(self, dev, event=None) -> None:
        """After a kernel wrote this array on ``dev``.

        ``event`` is the kernel's event; recording it lets later
        transfers and launches depend on the write explicitly.  If that
        event later *fails* (fault injection, failed dependency), the
        kernel never touched memory, so the pre-launch coherence state
        is restored — a retry sees the array exactly as before the
        doomed launch.
        """
        prev = (self._host_valid, self.host_event,
                dict(self._device_valid), dict(self._device_event))
        for d in self._device_valid:
            self._device_valid[d] = d is dev
        self._device_valid[dev] = True
        self._host_valid = False
        self.host_event = None
        if event is not None:
            self._device_event[dev] = event

            def _undo(ev, self=self, dev=dev, prev=prev):
                if not ev.is_failed:
                    return
                if self._device_event.get(dev) is not ev:
                    return      # a newer write superseded this one
                self._host_valid, self.host_event = prev[0], prev[1]
                restored_valid = dict(prev[2])
                for d in self._device_valid:    # buffers created since
                    restored_valid.setdefault(d, False)
                self._device_valid = restored_valid
                self._device_event = dict(prev[3])

            event.add_callback(_undo)

    def device_event_on(self, dev):
        """The event that produced the copy on ``dev``, if recorded."""
        return self._device_event.get(dev)

    def buffer_on(self, dev):
        return self._buffers[dev]

    # -- kernel-side handle ------------------------------------------------------------------

    def make_handle(self, param_name: str) -> ArrayHandle:
        """The tracing proxy standing in for this array."""
        return ArrayHandle(param_name, self.dtype, self.shape,
                           mem=self.mem, is_param=True)

    def signature(self) -> tuple:
        """Cache-key component describing this argument.

        1-D arrays share kernels across lengths; for 2-D/3-D arrays the
        row strides are baked into the generated source, so the shape
        participates in the key.
        """
        shape_part = self.shape[1:] if self.ndim > 1 else ()
        return ("a", self.dtype.name, self.ndim, self.mem, shape_part)
