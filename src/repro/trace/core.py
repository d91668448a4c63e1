"""Span tracer: the measurement backbone of the repro (zero-dependency).

The paper's evaluation (Figs. 6-9) decomposes end-to-end time into
capture, code generation, OpenCL build, transfers and kernel execution.
This module provides the machinery to *observe* that decomposition in a
live run: lightweight nested spans on the host's wall clock, plus
completed "device events" carrying the simulator's per-device timeline
(:mod:`repro.ocl.queue` stamps those), so a single trace interleaves both
notions of time.

Two clocks
----------
``wall``
    Host wall-clock time measured with :func:`time.perf_counter`,
    relative to the tracer's epoch.  Capture, codegen and OpenCL builds
    are real work the host performs, so their spans live here.
``sim``
    The per-device simulated timeline SimCL advances on each enqueue
    (see :class:`repro.ocl.queue.CommandQueue`).  Transfers and kernel
    executions cost nothing on the host but have modelled durations;
    their spans carry ``clock="sim"`` and the owning device's name.

Thread safety
-------------
Each thread has its own context stack (``threading.local``), so nesting
is tracked per thread; the finished-span list is guarded by a lock.

Overhead
--------
The tracer is disabled by default.  Disabled, :func:`repro.trace.span`
returns a shared no-op context manager without touching any lock, so
instrumented code costs one attribute check per call site.
"""

from __future__ import annotations

import itertools
import threading
import time


class Span:
    """One timed region, on either the wall or a simulated clock.

    Times are microseconds: wall spans are relative to the owning
    tracer's epoch, sim spans are relative to the device's simulated
    time zero.  ``end_us`` is ``None`` while the span is open.
    """

    __slots__ = ("name", "category", "span_id", "parent_id", "thread_id",
                 "thread_name", "start_us", "end_us", "attrs", "clock",
                 "device")

    def __init__(self, name: str, category: str, span_id: int,
                 parent_id: int | None, thread_id: int, thread_name: str,
                 start_us: float, clock: str = "wall",
                 device: str | None = None,
                 attrs: dict | None = None) -> None:
        self.name = name
        self.category = category
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread_id = thread_id
        self.thread_name = thread_name
        self.start_us = start_us
        self.end_us: float | None = None
        self.clock = clock
        self.device = device
        self.attrs = dict(attrs) if attrs else {}

    # -- introspection -----------------------------------------------------

    @property
    def duration_us(self) -> float:
        if self.end_us is None:
            return 0.0
        return self.end_us - self.start_us

    @property
    def duration_seconds(self) -> float:
        return self.duration_us * 1e-6

    def set_attr(self, key: str, value) -> "Span":
        """Attach one attribute; chainable."""
        self.attrs[key] = value
        return self

    def set_attrs(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict:
        """Flat JSON-serializable form (a run record's span line)."""
        return {
            "name": self.name,
            "cat": self.category,
            "id": self.span_id,
            "parent": self.parent_id,
            "tid": self.thread_id,
            "thread": self.thread_name,
            "clock": self.clock,
            "device": self.device,
            "ts_us": self.start_us,
            "dur_us": self.duration_us,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, row: dict) -> "Span":
        span = cls(name=row["name"], category=row.get("cat", "app"),
                   span_id=row.get("id", 0), parent_id=row.get("parent"),
                   thread_id=row.get("tid", 0),
                   thread_name=row.get("thread", ""),
                   start_us=row.get("ts_us", 0.0),
                   clock=row.get("clock", "wall"),
                   device=row.get("device"),
                   attrs=row.get("attrs") or {})
        span.end_us = span.start_us + row.get("dur_us", 0.0)
        return span

    def __repr__(self) -> str:
        state = (f"{self.duration_us:.1f}us" if self.end_us is not None
                 else "open")
        return (f"<Span {self.category}:{self.name} {state} "
                f"clock={self.clock}>")


class NoopSpan:
    """Stateless stand-in used when tracing is disabled; reentrant."""

    __slots__ = ()

    def set_attr(self, key: str, value) -> "NoopSpan":
        return self

    def set_attrs(self, **attrs) -> "NoopSpan":
        return self

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NOOP_SPAN = NoopSpan()


class _SpanHandle:
    """Context manager that opens/closes one span on a tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self._span)
        return False


class Tracer:
    """Collects spans; one instance is the process-global default.

    ``enabled`` can be flipped at any time; spans opened while disabled
    are simply never recorded.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._epoch = time.perf_counter()
        #: wall-clock time of the epoch, for absolute timestamping
        self.epoch_unix = time.time()
        self._lock = threading.Lock()
        self._finished: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    # -- time --------------------------------------------------------------

    def now_us(self) -> float:
        """Microseconds since this tracer's epoch."""
        return (time.perf_counter() - self._epoch) * 1e6

    # -- context stack -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The innermost open span on the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        span.start_us = self.now_us()
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        span.end_us = self.now_us()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:          # tolerate mis-nested exits
            stack.remove(span)
        with self._lock:
            self._finished.append(span)

    # -- span creation -----------------------------------------------------

    def span(self, name: str, category: str = "app", **attrs) -> _SpanHandle:
        """A context manager recording one wall-clock span."""
        thread = threading.current_thread()
        parent = self.current()
        span = Span(name=name, category=category,
                    span_id=next(self._ids),
                    parent_id=parent.span_id if parent else None,
                    thread_id=thread.ident or 0, thread_name=thread.name,
                    start_us=0.0, clock="wall", attrs=attrs)
        return _SpanHandle(self, span)

    def device_event(self, device: str, name: str, start_ns: int,
                     end_ns: int, category: str = "device",
                     parent_id: int | None = None, **attrs) -> Span:
        """Record a *completed* span on a device's simulated timeline.

        ``start_ns``/``end_ns`` are the simulated-clock stamps SimCL puts
        on its events.  By default the span is parented to the caller's
        innermost wall-clock span so host- and device-side views
        correlate; pass an explicit ``parent_id`` when the command was
        *recorded* under a different span than the one open when it
        finally executes (deferred queues snapshot the enqueue-time
        parent, so device work attributes to the eval that caused it).
        """
        thread = threading.current_thread()
        if parent_id is None:
            parent = self.current()
            parent_id = parent.span_id if parent else None
        span = Span(name=name, category=category,
                    span_id=next(self._ids),
                    parent_id=parent_id,
                    thread_id=thread.ident or 0, thread_name=thread.name,
                    start_us=start_ns / 1000.0, clock="sim",
                    device=device, attrs=attrs)
        span.end_us = end_ns / 1000.0
        with self._lock:
            self._finished.append(span)
        return span

    # -- results -----------------------------------------------------------

    def spans(self) -> list[Span]:
        """Snapshot of every finished span, in completion order."""
        with self._lock:
            return list(self._finished)

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"<Tracer {state}, {len(self)} span(s)>"
