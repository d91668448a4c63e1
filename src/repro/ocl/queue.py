"""Command queues: eager or deferred, in-order or out-of-order.

Two execution modes share one cost model:

``eager`` (the default)
    Commands execute inside the enqueue call (results are immediately
    visible to the host) but their *cost* is accounted on a per-device
    simulated clock, so profiling-based measurement code works exactly
    as it would against a real driver.

``deferred``
    ``enqueue_*`` records the command and returns an :class:`Event` in
    the QUEUED state; nothing executes until :meth:`flush`,
    :meth:`finish`, or ``event.wait()`` drives it.  Because each queue
    stamps its own simulated clock only when commands actually run —
    with every command's start time pushed past the completion of its
    ``wait_for`` dependencies — work enqueued on several devices from
    one host loop overlaps on the simulated timeline instead of
    serializing in enqueue order.

Every ``enqueue_*`` accepts ``wait_for=[events]``, the OpenCL event
wait list: the command's simulated start time is at least the latest
dependency completion (on any queue), and in deferred mode execution
order respects those edges.  An **out-of-order** queue additionally
schedules pending commands by the dependency DAG — the runnable command
with the earliest possible start goes first — rather than by enqueue
order.

Every stamped command is also reported to :mod:`repro.trace` as a
completed span on the device's simulated timeline, parented to the
host-side span that was open *at enqueue time* (so deferred commands
still attribute to the eval that caused them), and transfer/launch
volumes feed the global metrics registry.
"""

from __future__ import annotations

import itertools

import numpy as np

from .. import trace
from ..errors import (CommandCancelled, InvalidProgramExecutable,
                      InvalidValue)
from .api import command_status, command_type, queue_properties
from .buffer import Buffer
from .context import Context
from .costmodel import kernel_time, transfer_time
from .device import Device
from .event import Event
from .faults import active_plan, op_name
from .kernel_obj import Kernel

#: simcl.* counter name -> its instrument in the process registry,
#: looked up once per name: the registry is a process singleton whose
#: reset() zeroes instruments in place and keeps them
_COUNTERS: dict = {}


#: command type -> the name of its simulated-clock trace span
_SPAN_NAMES = {command: command.name.lower() for command in command_type}


def _counter(name: str):
    counter = _COUNTERS.get(name)
    if counter is None:
        counter = _COUNTERS[name] = trace.get_registry().counter(name)
    return counter


class _Command:
    """One recorded deferred command: its event plus the work closure."""

    __slots__ = ("event", "payload", "attrs", "index", "trace_parent")

    def __init__(self, event: Event, payload, attrs: dict, index: int,
                 trace_parent: int | None) -> None:
        self.event = event
        #: () -> (duration_s, counters, breakdown, extra_trace_attrs)
        self.payload = payload
        self.attrs = attrs
        self.index = index
        self.trace_parent = trace_parent


class CommandQueue:
    """Mirror of ``cl_command_queue`` (optionally deferred/out-of-order)."""

    def __init__(self, context: Context, device: Device | None = None,
                 profiling: bool = True, deferred: bool = False,
                 out_of_order: bool = False,
                 properties: int = 0) -> None:
        if not isinstance(context, Context):
            raise InvalidValue("first argument must be a Context")
        if properties & queue_properties.OUT_OF_ORDER_EXEC_MODE_ENABLE:
            out_of_order = True
        if properties & queue_properties.PROFILING_ENABLE:
            profiling = True
        if device is None:
            device = context.devices[0]
        if device not in context.devices:
            raise InvalidValue(f"{device.name} is not part of the context")
        self.context = context
        self.device = device
        self.profiling = profiling
        self.deferred = deferred
        self.out_of_order = out_of_order
        #: simulated device clock, seconds
        self.clock = 0.0
        self._pending: list[_Command] = []
        self._seq = itertools.count()

    # -- internal ----------------------------------------------------------------

    @staticmethod
    def _dep_list(wait_for) -> tuple:
        deps = tuple(wait_for) if wait_for else ()
        for dep in deps:
            if not isinstance(dep, Event):
                raise InvalidValue(
                    f"wait_for entries must be Events, got {dep!r}")
        return deps

    def _enqueue(self, command: command_type, payload, wait_for,
                 **attrs) -> Event:
        deps = self._dep_list(wait_for)
        if not self.deferred:
            # eager: dependencies may still be pending on a deferred
            # queue — drive them to a terminal state (failures
            # propagate onto this event in _execute), then run
            for dep in deps:
                dep.drive()
            event = Event(command=command,
                          status=command_status.QUEUED, wait_list=deps,
                          _profiling_enabled=self.profiling,
                          device_name=self.device.name,
                          device_label=self.device.label)
            parent = trace.current_span()
            self._execute(event, payload, attrs,
                          parent.span_id if parent else None)
            return event
        event = Event(command=command, status=command_status.QUEUED,
                      wait_list=deps,
                      _profiling_enabled=self.profiling,
                      device_name=self.device.name,
                      device_label=self.device.label, _queue=self)
        parent = trace.current_span()
        self._pending.append(_Command(
            event, payload, attrs, next(self._seq),
            parent.span_id if parent else None))
        return event

    def _execute(self, event: Event, payload, attrs: dict,
                 trace_parent: int | None) -> None:
        """Run one command's payload and stamp its simulated interval.

        A command whose dependency failed does not run at all — its
        event inherits the dependency's error status, mirroring how an
        OpenCL runtime abandons commands downstream of an aborted one.
        Before the payload runs the active :class:`FaultPlan` (if any)
        may fail the command outright or stretch its duration.
        """
        event.status = command_status.SUBMITTED
        failed_dep = next(
            (d for d in event.wait_list if d.is_failed), None)
        if failed_dep is not None:
            event._fail(failed_dep.status, failed_dep.error)
            return
        dep_end = max((d.end_ns for d in event.wait_list), default=0)
        start = max(self.clock, dep_end * 1e-9)
        plan = active_plan()
        op = op_name(event.command)
        if plan is not None:
            injection = plan.draw(self.device.label, op, start)
            if injection is not None:
                start_ns = int(start * 1e9)
                trace.device_event(
                    self.device.label, "fault_inject", start_ns,
                    start_ns, category="fault", parent_id=trace_parent,
                    op=op, code=int(injection.status),
                    fault_kind=injection.kind)
                _counter("simcl.faults_injected").inc()
                event._fail(injection.status, injection.error)
                return
        event.status = command_status.RUNNING
        duration, counters, breakdown, extra = payload()
        if plan is not None:
            duration *= plan.slow_factor(self.device.label, op)
        self.clock = start + duration
        start_ns = int(start * 1e9)
        end_ns = int(self.clock * 1e9)
        event.queued_ns = event.submit_ns = event.start_ns = start_ns
        event.end_ns = end_ns
        event.counters = counters
        event.breakdown = breakdown
        trace.device_event(self.device.label, _SPAN_NAMES[event.command],
                           start_ns, end_ns, category="simcl",
                           parent_id=trace_parent, **attrs, **extra)
        event._complete()

    # -- deferred-mode scheduling ------------------------------------------------

    def _command_of(self, event: Event) -> _Command | None:
        for cmd in self._pending:
            if cmd.event is event:
                return cmd
        return None

    def _run_deferred(self, cmd: _Command) -> None:
        for dep in cmd.event.wait_list:
            if not dep.is_complete:
                dep.drive()     # may recurse into this or another queue
        if cmd not in self._pending:    # a recursive wait already ran it
            return
        self._pending.remove(cmd)
        self._execute(cmd.event, cmd.payload, cmd.attrs, cmd.trace_parent)

    def _cancel(self, event: Event) -> None:
        """Tear down one pending command and its pending dependents.

        The command's payload never runs (so device buffers and host
        memory are untouched) and its event terminates with the
        CANCELLED status, firing callbacks exactly like a failure — so
        coherence rollback installed by the HPL layer still happens.
        Same-queue dependents are swept eagerly; dependents recorded on
        other queues are abandoned lazily, by the failed-dependency
        check in :meth:`_execute`, the moment anything drives them.
        """
        cmd = self._command_of(event)
        if cmd is None:
            return
        self._pending.remove(cmd)
        event._fail(command_status.CANCELLED, CommandCancelled(
            f"{event.command.name} cancelled before execution on "
            f"{self.device.label}"))
        swept = True
        while swept:
            swept = False
            for cmd in list(self._pending):
                if any(d.is_cancelled for d in cmd.event.wait_list):
                    self._pending.remove(cmd)
                    cmd.event._fail(
                        command_status.CANCELLED, CommandCancelled(
                            f"{cmd.event.command.name} depends on a "
                            f"cancelled command"))
                    swept = True

    def cancel_pending(self) -> int:
        """Cancel every still-recorded command on this queue; returns
        how many events were cancelled (dependents included)."""
        cancelled = 0
        while self._pending:
            before = len(self._pending)
            self._cancel(self._pending[-1].event)
            cancelled += before - len(self._pending)
        return cancelled

    def _schedule_next(self) -> _Command:
        """The pending command to run next.

        In-order queues are FIFO.  Out-of-order queues pick, among the
        commands whose dependencies have all completed, the one with the
        earliest possible start time on this device's timeline (ties
        broken by enqueue order); if every pending command is blocked on
        another queue, fall back to the oldest so its cross-queue waits
        get driven.
        """
        if not self.out_of_order or len(self._pending) == 1:
            return self._pending[0]
        best = None
        best_key = None
        clock_ns = int(self.clock * 1e9)
        for cmd in self._pending:
            if any(not dep.is_complete for dep in cmd.event.wait_list):
                continue
            ready_ns = max((d.end_ns for d in cmd.event.wait_list),
                           default=0)
            key = (max(ready_ns, clock_ns), cmd.index)
            if best is None or key < best_key:
                best, best_key = cmd, key
        return best if best is not None else self._pending[0]

    def _execute_until(self, event: Event) -> None:
        """Drive pending commands until ``event`` is terminal
        (COMPLETE or failed with a negative status)."""
        while event.status is command_status.QUEUED:
            if self.out_of_order:
                cmd = self._command_of(event)
                if cmd is None:     # completed by a recursive wait
                    return
                self._run_deferred(cmd)
            else:
                if not self._pending:
                    return
                self._run_deferred(self._schedule_next())

    # -- transfers ------------------------------------------------------------------

    def enqueue_write_buffer(self, buffer: Buffer, hostbuf: np.ndarray,
                             wait_for=None) -> Event:
        """Copy host memory into a device buffer."""
        host = np.asarray(hostbuf)
        if self.deferred:
            # snapshot now: OpenCL allows the host to reuse its memory
            # after a (simulated-)blocking enqueue returns
            host = np.array(host, copy=True)
        nbytes = host.nbytes
        duration = transfer_time(nbytes, self.device.spec)

        def payload():
            buffer.write_from(host)
            _counter("simcl.h2d_transfers").inc()
            _counter("simcl.h2d_bytes").inc(nbytes)
            return duration, None, None, {}

        return self._enqueue(command_type.WRITE_BUFFER, payload, wait_for,
                             bytes=nbytes)

    def enqueue_read_buffer(self, buffer: Buffer, hostbuf: np.ndarray,
                            wait_for=None) -> Event:
        """Copy a device buffer back into host memory."""
        duration = transfer_time(hostbuf.nbytes, self.device.spec)
        nbytes = hostbuf.nbytes

        def payload():
            buffer.read_into(hostbuf)
            _counter("simcl.d2h_transfers").inc()
            _counter("simcl.d2h_bytes").inc(nbytes)
            return duration, None, None, {}

        return self._enqueue(command_type.READ_BUFFER, payload, wait_for,
                             bytes=nbytes)

    def enqueue_copy_buffer(self, src: Buffer, dst: Buffer,
                            nbytes: int | None = None,
                            wait_for=None) -> Event:
        """Device-to-device copy within the same (simulated) memory."""
        nbytes = min(src.size, dst.size) if nbytes is None else nbytes
        duration = nbytes / (self.device.spec.mem_bandwidth_gbs * 1e9)

        def payload():
            dst._data[:nbytes] = src._data[:nbytes]
            _counter("simcl.d2d_transfers").inc()
            _counter("simcl.d2d_bytes").inc(nbytes)
            return duration, None, None, {}

        return self._enqueue(command_type.COPY_BUFFER, payload, wait_for,
                             bytes=nbytes)

    # -- kernels ----------------------------------------------------------------------

    def enqueue_nd_range_kernel(self, kernel: Kernel, global_size,
                                local_size=None, wait_for=None) -> Event:
        """Execute a kernel over an NDRange and account its model time.

        Argument bindings are captured at enqueue time (as
        ``clSetKernelArg`` semantics require); the kernel body runs —
        and reads its buffers — when the command executes.
        """
        if not kernel.program.built_for(self.device):
            raise InvalidProgramExecutable(
                f"kernel {kernel.name!r} enqueued on {self.device.name}, "
                "but its program holds no executable for that device "
                "(build(devices=...) never included it, or its build "
                "failed)")
        args = kernel.bound_args()
        name = kernel.name
        program_ir = kernel.program.ir

        def payload():
            with trace.span("enqueue_kernel", category="simcl",
                            kernel=name, device=self.device.name,
                            engine=self.device.engine_name) as sp:
                engine = self.device.make_engine(program_ir)
                counters = engine.run(name, args, global_size, local_size)
                breakdown = kernel_time(counters, self.device.spec)
                sp.set_attr("sim_seconds", breakdown.total)
            _counter("simcl.kernel_launches").inc()
            return breakdown.total, counters, breakdown, {}

        return self._enqueue(command_type.NDRANGE_KERNEL, payload,
                             wait_for, kernel=name)

    def enqueue_marker(self, wait_for=None) -> Event:
        """A zero-duration command that completes after ``wait_for``
        (or, with no list, after everything enqueued so far)."""
        if wait_for is None:
            wait_for = [cmd.event for cmd in self._pending]

        def payload():
            return 0.0, None, None, {}

        return self._enqueue(command_type.MARKER, payload, wait_for)

    # -- completion --------------------------------------------------------------------

    def flush(self) -> None:
        """Execute every recorded command (no-op on an eager queue)."""
        while self._pending:
            self._run_deferred(self._schedule_next())

    def finish(self) -> None:
        """Execute and complete everything enqueued (``clFinish``)."""
        self.flush()

    @property
    def pending(self) -> int:
        """Number of recorded-but-unexecuted commands."""
        return len(self._pending)

    def __repr__(self) -> str:
        mode = "deferred" if self.deferred else "eager"
        order = ", out-of-order" if self.out_of_order else ""
        return (f"<CommandQueue on {self.device.name!r} {mode}{order} "
                f"clock={self.clock:.6f}s pending={len(self._pending)}>")
