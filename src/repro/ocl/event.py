"""Events: command status, dependencies and (simulated-time) profiling."""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import trace
from ..errors import (CLError, ProfilingDisabledError,
                      ProfilingInfoNotAvailable)
from .api import command_status, command_type
from .costmodel import CostCounters, TimeBreakdown


#: the statuses the lifecycle checks compare against, bound once: an
#: enum member lookup costs more than the comparison
_COMPLETE = command_status.COMPLETE
_QUEUED = command_status.QUEUED
_CANCELLED = command_status.CANCELLED


@dataclass(slots=True)
class Event:
    """Returned by every enqueue; carries status and simulated profiling.

    Events follow the OpenCL lifecycle ``QUEUED -> SUBMITTED -> RUNNING
    -> COMPLETE``.  On an eager queue every event is born COMPLETE (the
    command ran inside the enqueue call); on a deferred queue the event
    stays QUEUED until the queue flushes, the event is waited on, or a
    dependent command needs it.

    A command that fails — through fault injection or a failed
    dependency — terminates abnormally: its event's status becomes a
    *negative* error code (see :class:`command_status`), :attr:`error`
    holds the exception, :meth:`wait` raises it, and callbacks fire
    with the failed event, exactly as ``clSetEventCallback`` promises.

    Times are in nanoseconds on the device's simulated timeline, mirroring
    ``clGetEventProfilingInfo``.  Kernel events additionally expose the
    dynamic :class:`CostCounters` and the :class:`TimeBreakdown` the cost
    model produced — introspection a real driver does not give you.
    """

    command: command_type
    queued_ns: int = 0
    submit_ns: int = 0
    start_ns: int = 0
    end_ns: int = 0
    counters: CostCounters | None = None
    breakdown: TimeBreakdown | None = None
    status: command_status = command_status.COMPLETE
    #: events this command waited on (its incoming DAG edges)
    wait_list: tuple = ()
    #: the exception behind a negative status, if the command failed
    error: BaseException | None = field(default=None, repr=False,
                                        compare=False)
    _profiling_enabled: bool = field(default=True, repr=False)
    #: name of the device whose queue produced this event (diagnostics)
    device_name: str = field(default="", repr=False)
    #: unique identity of that device (``name#index``); unlike
    #: ``device_name`` it distinguishes two devices of the same model,
    #: so per-device accounting must key by it
    device_label: str = field(default="", repr=False)
    #: owning queue, set for deferred commands so wait() can drive them
    _queue: object = field(default=None, repr=False, compare=False)
    _callbacks: list = field(default_factory=list, repr=False,
                             compare=False)

    def _check(self) -> None:
        if not self._profiling_enabled:
            where = (f"the queue on {self.device_name!r}"
                     if self.device_name else "the queue")
            raise ProfilingDisabledError(
                f"profiling info requested for a "
                f"{self.command.name} event, but {where} was created "
                f"with profiling=False")
        if self.is_failed:
            raise ProfilingInfoNotAvailable(
                f"{self.command.name} event failed with "
                f"{self.status.name}; no profiling info exists for an "
                f"abnormally terminated command")
        if self.status is not _COMPLETE:
            raise ProfilingInfoNotAvailable(
                f"{self.command.name} event is {self.status.name}, not "
                f"COMPLETE; call wait() (or flush the queue) before "
                f"reading profiling info")

    @property
    def is_complete(self) -> bool:
        return self.status is _COMPLETE

    @property
    def is_failed(self) -> bool:
        """True when the command terminated abnormally (negative status)."""
        return self.status < 0

    @property
    def is_cancelled(self) -> bool:
        """True when the command was cancelled before its payload ran
        (directly via :meth:`cancel`, or through a cancelled dependency)."""
        return self.status is _CANCELLED

    @property
    def profile_start(self) -> int:
        self._check()
        return self.start_ns

    @property
    def profile_end(self) -> int:
        self._check()
        return self.end_ns

    @property
    def duration_ns(self) -> int:
        if self.status is not _COMPLETE \
                or not self._profiling_enabled:
            self._check()
        return self.end_ns - self.start_ns

    @property
    def duration(self) -> float:
        """Simulated duration in seconds."""
        return self.duration_ns * 1e-9

    # -- completion ---------------------------------------------------------

    def add_callback(self, fn) -> "Event":
        """Call ``fn(event)`` when the event reaches a terminal state.

        Mirrors ``clSetEventCallback(CL_COMPLETE)``: the callback fires
        on successful completion *and* on abnormal termination (check
        ``event.is_failed``); if the event is already terminal it fires
        immediately.
        """
        if self.status is _COMPLETE or self.is_failed:
            self._safe_call(fn)
        else:
            self._callbacks.append(fn)
        return self

    def _safe_call(self, fn) -> None:
        """Run one callback; a raising callback must not corrupt queue
        processing (``clSetEventCallback`` callbacks cannot propagate
        errors either), so swallow and count it."""
        try:
            fn(self)
        except Exception:
            trace.get_registry().counter("simcl.callback_errors").inc()

    def _fire_callbacks(self) -> None:
        self._queue = None
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            for fn in callbacks:
                self._safe_call(fn)

    def _complete(self) -> None:
        """Transition to COMPLETE and fire callbacks (queue-internal)."""
        self.status = _COMPLETE
        self._fire_callbacks()

    def _fail(self, status: command_status,
              error: BaseException) -> None:
        """Terminate abnormally and fire callbacks (queue-internal)."""
        self.status = status
        self.error = error
        if status is _CANCELLED:
            trace.get_registry().counter("simcl.cancelled_events").inc()
        self._fire_callbacks()

    def cancel(self) -> bool:
        """Cancel a still-QUEUED deferred command before it runs.

        Returns True when this event transitioned to CANCELLED — its
        payload will never run, its buffers stay untouched, and every
        pending dependent on the same queue is cancelled with it
        (dependents on *other* queues are abandoned the moment they are
        driven, exactly like dependents of a failed command).  Returns
        False when the command already reached a terminal state or ran
        eagerly — cancellation cannot rewind executed work.
        """
        if self.status is not _QUEUED or self._queue is None:
            return False
        self._queue._cancel(self)
        return True

    def drive(self) -> "Event":
        """Execute the command without raising on failure.

        Like :meth:`wait`, but an abnormally terminated command is
        reported through :attr:`status`/:attr:`error` instead of an
        exception — the primitive recovery code builds on.
        """
        if self.status is _QUEUED \
                and self._queue is not None:
            self._queue._execute_until(self)
        return self

    def wait(self) -> "Event":
        """Block until the command has executed; raise if it failed.

        On an eager queue commands run inside enqueue, so this only
        checks for failure; on a deferred queue it executes this
        command and every command it transitively depends on (across
        queues) first.
        """
        self.drive()
        if self.is_failed:
            raise self.error if self.error is not None else CLError(
                f"{self.command.name} failed with {self.status.name}")
        return self


def wait_for_events(events) -> None:
    """``clWaitForEvents``: drive every listed event to completion.

    Raises the first failure found (after driving everything, so no
    work is left stranded behind the raising event).
    """
    events = list(events)
    for event in events:
        event.drive()
    for event in events:
        event.wait()
