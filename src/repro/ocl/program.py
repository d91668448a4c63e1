"""Programs: OpenCL C source compiled for the context's devices."""

from __future__ import annotations

from .. import trace
from ..clc import compile_source, preprocess
from ..clc.binary import ProgramBinary
from ..errors import (BuildProgramFailure, CompileError, InvalidDevice,
                      InvalidValue)
from .context import Context
from .faults import active_plan
from .kernel_obj import Kernel


def engine_signature_of(devices) -> str:
    """Cache-key component naming the execution backends ``devices``
    resolve to (``jit,serial``)."""
    return ",".join(sorted({dev.engine_name for dev in devices}))


def _disk_cache():
    """The process's persistent kernel cache, or None when disabled.

    Imported lazily: the cache lives in :mod:`repro.hpl.diskcache` (the
    layer that configures it), and ``repro.ocl`` must not depend on
    ``repro.hpl`` at import time.
    """
    from ..hpl import diskcache
    return diskcache.active_cache()


class Program:
    """Mirror of ``clCreateProgramWithSource`` + ``clBuildProgram``.

    ``build()`` runs the :mod:`repro.clc` compiler and then performs the
    per-device checks a vendor compiler would do (e.g. rejecting kernels
    that require ``cl_khr_fp64`` on a device without double support, which
    is exactly why the paper's EP benchmark cannot run on the Quadro FX
    380).  Build status and diagnostics are tracked **per device**, as
    ``clBuildProgram(devices=...)`` semantics require: :attr:`build_logs`
    maps device name to its latest log, :meth:`built_for` answers whether
    a device has an executable, and enqueueing a kernel on a device the
    program was never built for raises
    :class:`~repro.errors.InvalidProgramExecutable` (in the queue).

    When a persistent kernel cache is active (``HPL_CACHE_DIR`` or
    ``hpl.configure(cache_dir=...)``), the compile step is served from
    disk when possible: the cache key covers the preprocessed source,
    build options, compiler version, device fp64 caps, the middle-end
    configuration (opt level, pass-pipeline and bytecode versions) and
    the names of the target execution backends, so a hit is always safe
    to reuse; per-device validation still runs on every build.

    The optimization level comes from the build options (``-O0``..
    ``-O3``, with ``-cl-opt-disable`` forcing ``-O0``) and otherwise
    from ``hpl.configure(opt_level=...)`` / ``$HPL_OPT_LEVEL``.
    """

    def __init__(self, context: Context, source: str) -> None:
        if not isinstance(context, Context):
            raise InvalidValue("first argument must be a Context")
        self.context = context
        self.source = source
        #: the built :class:`~repro.clc.binary.ProgramBinary`, cold or
        #: from the disk cache alike
        self.ir: ProgramBinary | None = None
        #: device name -> diagnostics of that device's latest build
        self.build_logs: dict[str, str] = {}
        #: devices (by identity) holding a current program executable
        self._built_devices: set = set()
        self._last_log = ""

    # -- build ----------------------------------------------------------------

    def build(self, options: str = "", devices=None) -> "Program":
        devices = list(devices) if devices is not None \
            else list(self.context.devices)
        for dev in devices:
            if dev not in self.context.devices:
                raise InvalidDevice(
                    f"{dev.name} is not part of the program's context")

        plan = active_plan()
        if plan is not None:
            for dev in devices:
                error = plan.draw_build(dev.label)
                if error is not None:
                    # an injected build failure leaves the program
                    # unbuilt for the device, like any real one
                    self._built_devices.discard(dev)
                    self.build_logs[dev.name] = f"fault injected: {error}"
                    with trace.span("fault_inject", category="fault",
                                    device=dev.label, op="build",
                                    error=type(error).__name__):
                        pass
                    trace.get_registry().counter(
                        "simcl.faults_injected").inc()
                    raise error

        ir = self._compile(options, devices)

        issues: dict[str, list[str]] = {}
        for dev in devices:
            for fn in ir.kernels.values():
                if fn.uses_fp64 and not dev.supports_fp64:
                    issues.setdefault(dev.name, []).append(
                        f"{dev.name}: kernel {fn.name!r} uses double "
                        "precision but the device does not support "
                        "cl_khr_fp64")
        self.ir = ir
        for dev in devices:
            if dev.name in issues:
                self._built_devices.discard(dev)
                self.build_logs[dev.name] = "\n".join(issues[dev.name])
            else:
                self._built_devices.add(dev)
                self.build_logs[dev.name] = "build succeeded"
        if issues:
            flat = [msg for msgs in issues.values() for msg in msgs]
            self._last_log = "\n".join(flat)
            raise BuildProgramFailure(flat[0], build_log=self._last_log)
        self._last_log = "build succeeded"
        return self

    def _compile(self, options: str, devices) -> ProgramBinary:
        """Front-end + middle-end run, served from the disk cache when
        possible.  Both paths give the same artifact: signatures plus
        lowered bytecode, built once from the optimized tree, so a warm
        start runs zero compiles and zero optimization passes; the opt
        level is part of the cache key via
        :func:`repro.clc.passes.opt_signature`.

        A failed (re)build leaves the program consistently unbuilt: no
        IR, no built devices, and the failure log on every requested
        device — never a stale ``built`` flag over a failure log.
        """
        # lazy: repro.clc.passes reaches back into repro.ocl.engines for
        # C arithmetic semantics, so importing it at module scope would
        # be circular
        from ..clc.passes import (opt_signature, optimize_program,
                                  resolve_opt_level)

        opt_level = resolve_opt_level(options)
        cache = _disk_cache()
        key = preprocessed = None
        if cache is not None:
            try:
                preprocessed = preprocess(self.source, options)
            except CompileError:
                pass                    # report it through the build path
            if preprocessed is not None:
                caps = tuple(sorted(
                    {"fp64" if d.supports_fp64 else "nofp64"
                     for d in devices}))
                key = cache.key_of(preprocessed, options, caps,
                                   opt_signature(opt_level),
                                   engine_signature_of(devices))
                hit = cache.get(key)
                if hit is not None:
                    return hit
        try:
            ir = compile_source(self.source, options,
                                preprocessed=preprocessed)
        except CompileError as exc:
            self.ir = None
            self._built_devices.clear()
            self._last_log = str(exc)
            for dev in devices:
                self.build_logs[dev.name] = self._last_log
            raise BuildProgramFailure(str(exc),
                                      build_log=self._last_log) from exc
        binary = ProgramBinary.from_ir(optimize_program(ir, opt_level))
        if cache is not None and key is not None:
            cache.put(key, binary)
        return binary

    # -- build status -------------------------------------------------------

    @property
    def build_log(self) -> str:
        """Diagnostics of the most recent :meth:`build` call (all
        requested devices combined); see :attr:`build_logs` for the
        per-device logs."""
        return self._last_log

    def built_for(self, device) -> bool:
        """Whether ``device`` holds a current executable of this program."""
        return self.ir is not None and device in self._built_devices

    @property
    def built_devices(self) -> list:
        """Devices with a current executable, in context order."""
        return [d for d in self.context.devices if self.built_for(d)]

    @property
    def _built(self) -> bool:
        """Back-compat view: built for at least one device."""
        return self.ir is not None and bool(self._built_devices)

    # -- kernels ------------------------------------------------------------

    @property
    def kernel_names(self) -> list[str]:
        self._require_built()
        return sorted(self.ir.kernels)

    def create_kernel(self, name: str) -> Kernel:
        """Mirror of ``clCreateKernel``."""
        self._require_built()
        if name not in self.ir.kernels:
            raise InvalidValue(f"no kernel {name!r} in program "
                               f"(have: {', '.join(self.kernel_names)})")
        return Kernel(self, name)

    def all_kernels(self) -> dict[str, Kernel]:
        return {name: self.create_kernel(name) for name in self.kernel_names}

    def _require_built(self) -> None:
        if not self._built:
            raise InvalidValue("program is not built for any device; "
                               "call build() first")

    def __repr__(self) -> str:
        if self._built:
            names = ", ".join(d.name for d in self.built_devices)
            state = f"built for [{names}]"
        else:
            state = "unbuilt"
        return f"<Program {state}, {len(self.source)} chars>"
