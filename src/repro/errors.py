"""Exception hierarchy shared across the repro packages.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class.  The compiler, the simulated OpenCL
runtime and the HPL layer each have their own subtree mirroring the kind
of diagnostics the corresponding real-world component would emit.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Compiler (repro.clc)
# ---------------------------------------------------------------------------

class CompileError(ReproError):
    """A problem found while compiling OpenCL C source.

    Carries an optional source location so host code (and tests) can point
    at the offending token.
    """

    def __init__(self, message: str, line: int = 0, col: int = 0,
                 filename: str = "<kernel>") -> None:
        self.message = message
        self.line = line
        self.col = col
        self.filename = filename
        if line:
            super().__init__(f"{filename}:{line}:{col}: {message}")
        else:
            super().__init__(message)


class PreprocessorError(CompileError):
    """Malformed preprocessor directive or macro usage."""


class LexError(CompileError):
    """The tokenizer met a character sequence it cannot tokenize."""


class ParseError(CompileError):
    """The parser met an unexpected token."""


class SemanticError(CompileError):
    """Type errors, unknown identifiers, address-space violations, ..."""


class IRSchemaError(ReproError):
    """A serialized :class:`~repro.clc.binary.ProgramBinary` blob cannot
    be decoded: bad magic, corrupt payload, a field of the wrong arity or
    type, or a schema version this build of the compiler does not
    understand.  Raised (and
    caught — a mismatching cache entry is a miss, never a crash) by the
    persistent kernel cache."""


# ---------------------------------------------------------------------------
# Simulated OpenCL runtime (repro.ocl)
# ---------------------------------------------------------------------------

class CLError(ReproError):
    """Base class for runtime errors, mirroring OpenCL error codes."""

    code = "CL_GENERIC_ERROR"

    def __init__(self, message: str = "") -> None:
        super().__init__(f"{self.code}: {message}" if message else self.code)


class InvalidValue(CLError):
    code = "CL_INVALID_VALUE"


class InvalidDevice(CLError):
    code = "CL_INVALID_DEVICE"


class InvalidContext(CLError):
    code = "CL_INVALID_CONTEXT"


class InvalidMemObject(CLError):
    code = "CL_INVALID_MEM_OBJECT"


class InvalidKernelArgs(CLError):
    code = "CL_INVALID_KERNEL_ARGS"


class InvalidWorkGroupSize(CLError):
    code = "CL_INVALID_WORK_GROUP_SIZE"


class InvalidWorkDimension(CLError):
    code = "CL_INVALID_WORK_DIMENSION"


class BuildProgramFailure(CLError):
    code = "CL_BUILD_PROGRAM_FAILURE"

    def __init__(self, message: str = "", build_log: str = "") -> None:
        self.build_log = build_log
        super().__init__(message)


class InvalidProgramExecutable(CLError):
    """A kernel was enqueued on a device its program was never
    (successfully) built for — ``clEnqueueNDRangeKernel`` returns this
    when there is no program executable for the queue's device."""

    code = "CL_INVALID_PROGRAM_EXECUTABLE"


class OutOfResources(CLError):
    code = "CL_OUT_OF_RESOURCES"


class DeviceNotAvailable(CLError):
    code = "CL_DEVICE_NOT_AVAILABLE"


class DeviceLost(DeviceNotAvailable):
    """A simulated device died and will not come back.

    Raised (or surfaced as a ``DEVICE_NOT_AVAILABLE`` event status) by
    the fault-injection layer; :func:`repro.hpl.cluster.cluster_eval`
    treats it as permanent and quarantines the device instead of
    retrying."""


class ProfilingInfoNotAvailable(CLError):
    code = "CL_PROFILING_INFO_NOT_AVAILABLE"


class ProfilingDisabledError(ProfilingInfoNotAvailable):
    """Profiling info was requested from an event whose command queue was
    created with ``profiling=False``.  Subclasses
    :class:`ProfilingInfoNotAvailable` so existing handlers keep working."""


class KernelLaunchError(CLError):
    """A kernel trapped at simulated run time (bad index, div by zero...)."""

    code = "CL_KERNEL_LAUNCH_ERROR"


class CommandCancelled(CLError):
    """A deferred command was cancelled before its payload ran.

    SimCL extension (real OpenCL cannot cancel enqueued commands):
    surfaced as the ``CANCELLED`` event status by :meth:`Event.cancel`
    and propagated — without running payloads — to every dependent
    reached through ``wait_for=`` chains."""

    code = "CL_COMMAND_CANCELLED"


# ---------------------------------------------------------------------------
# HPL layer (repro.hpl)
# ---------------------------------------------------------------------------

class HPLError(ReproError):
    """Base class for errors raised by the Heterogeneous Programming Library."""


class KernelCaptureError(HPLError):
    """The kernel function did something the tracer cannot capture."""


class DomainError(HPLError):
    """Inconsistent global/local execution domains."""


class CoherenceError(HPLError):
    """Illegal host/device data movement (e.g. writing constant memory)."""


class FaultPlanError(HPLError):
    """A fault-plan string (``HPL_FAULTS`` / ``hpl.configure(faults=)``)
    does not follow the grammar documented in ``docs/faults.md``."""


class ClusterExecutionError(HPLError):
    """A cluster evaluation could not be completed even after recovery —
    typically every device in the cluster was quarantined."""


class DeadlineExceeded(HPLError):
    """``cluster_eval(deadline=)`` ran out of simulated time.

    Carries the partial :class:`~repro.hpl.cluster.ClusterResult`
    (``.result``) for the chunks that did finish and the run's
    :class:`~repro.hpl.cluster.FailureSummary` (``.failures``), so a
    caller can checkpoint or report progress instead of losing it."""

    def __init__(self, message: str, result=None, failures=None) -> None:
        super().__init__(message)
        self.result = result
        self.failures = failures


class CheckpointError(HPLError):
    """A cluster checkpoint could not be written, or a snapshot loaded
    for ``resume=True`` is corrupt, truncated, unsealed, malformed, or
    from an incompatible checkpoint format version."""


# ---------------------------------------------------------------------------
# Observability (repro.trace)
# ---------------------------------------------------------------------------

class RecordError(ReproError):
    """A run record cannot be read: an empty file, a line that is not a
    JSON object, an unknown line type, a missing or mistyped field, or a
    record format version this build does not read."""
