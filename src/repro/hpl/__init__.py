"""``repro.hpl`` — the Heterogeneous Programming Library.

The Python rendition of the paper's C++ library.  A complete SAXPY
(paper Figure 3)::

    from repro.hpl import Array, Double, double_, eval, idx

    def saxpy(y, x, a):
        y[idx] = a * x[idx] + y[idx]

    x = Array(double_, 1000)
    y = Array(double_, 1000)
    a = Double(2.0)
    # ... fill x and y ...
    eval(saxpy)(y, x, a)

Everything the paper's ``HPL.h`` provides is exported here: the Array and
scalar types (§III-A), the kernel control-flow constructs and predefined
variables (§III-B), ``barrier`` and the math functions, and the ``eval``
invocation interface (§III-C).
"""

from .analysis import KernelInfo, analyze_kernel
from .array import Array
from .builder import KernelBuilder
from .checkpoint import CheckpointStore
from .cluster import (Cluster, ClusterResult, ClusterTimeline,
                      DistributedArray, DynamicScheduler, FailureSummary,
                      Partition, Scheduler, SCHEDULERS, UniformScheduler,
                      WeightedScheduler, calibration, cluster_eval,
                      device_throughput, get_scheduler,
                      last_failure_summary, timeline_of)
from .codegen import generate_source
from .control import (break_, continue_, elif_, else_, endfor_, endif_,
                      endwhile_, for_, if_, return_, while_)
from .dtypes import (Constant, Global, Local, Private, char_, double_,
                     float_, int_, long_, short_, uchar_, uint_, ulong_,
                     ushort_)
from .evaluator import Evaluator, eval, eval_
from .functions import (GLOBAL, LOCAL, abs_, acos, asin, atan, atan2,
                        barrier, cast, cbrt, ceil, clamp, cos, exp, exp2,
                        fabs, floor, fma, fmax, fmin, fmod, hypot, log,
                        log2, log10, max_, min_, not_, pow, round_, rsqrt,
                        sin, sqrt, tan, trunc, where)
from .predefined import (gidx, gidy, gidz, idx, idy, idz, lidx, lidy,
                         lidz, lszx, lszy, lszz, ngroupx, ngroupy,
                         ngroupz, szx, szy, szz)
from .runtime import (EvalResult, HPLDevice, HPLRuntime, RuntimeStats,
                      get_device, get_devices, get_runtime, reset_runtime)
from .scalars import (Char, Double, Float, HostScalar, Int, Long, Short,
                      Uchar, Uint, Ulong, Ushort)

__all__ = [
    # arrays and types
    "Array", "Global", "Local", "Constant", "Private",
    "int_", "uint_", "long_", "ulong_", "short_", "ushort_", "char_",
    "uchar_", "float_", "double_",
    # scalars
    "Int", "Uint", "Long", "Ulong", "Short", "Ushort", "Char", "Uchar",
    "Float", "Double", "HostScalar",
    # control flow
    "if_", "elif_", "else_", "endif_", "for_", "endfor_", "while_",
    "endwhile_", "break_", "continue_", "return_",
    # predefined variables
    "idx", "idy", "idz", "lidx", "lidy", "lidz", "gidx", "gidy", "gidz",
    "szx", "szy", "szz", "lszx", "lszy", "lszz",
    "ngroupx", "ngroupy", "ngroupz",
    # device functions
    "barrier", "LOCAL", "GLOBAL", "cast", "where", "not_",
    "sqrt", "rsqrt", "cbrt", "exp", "exp2", "log", "log2", "log10",
    "sin", "cos", "tan", "asin", "acos", "atan", "atan2", "pow", "fabs",
    "floor", "ceil", "trunc", "round_", "fmod", "fmin", "fmax", "fma",
    "hypot", "abs_", "min_", "max_", "clamp",
    # invocation and runtime
    "eval", "eval_", "Evaluator", "get_devices", "get_device",
    "get_runtime", "reset_runtime", "EvalResult", "HPLDevice",
    "HPLRuntime", "RuntimeStats",
    # persistent kernel binary cache
    "configure", "KernelDiskCache",
    # multi-device cluster extension
    "Cluster", "ClusterResult", "ClusterTimeline", "DistributedArray",
    "cluster_eval", "timeline_of", "FailureSummary", "CheckpointStore",
    "last_failure_summary",
    # cluster scheduling policies
    "Scheduler", "UniformScheduler", "WeightedScheduler",
    "DynamicScheduler", "Partition", "SCHEDULERS", "get_scheduler",
    "calibration", "device_throughput",
    # capture internals useful for tooling/tests
    "KernelBuilder", "KernelInfo", "analyze_kernel", "generate_source",
]


_UNSET = object()


def configure(cache_dir=_UNSET, max_bytes=None, opt_level=_UNSET,
              profile=_UNSET, faults=_UNSET, engine=_UNSET):
    """Configure process-wide HPL runtime policy.

    ``cache_dir`` enables the persistent kernel cache (``None`` disables
    it); ``max_bytes`` caps its size.  ``opt_level`` sets the default
    optimization level of kernel builds (0..2, ``None`` restores the
    ``$HPL_OPT_LEVEL``/built-in default); per-build ``-O<n>`` /
    ``-cl-opt-disable`` options still win.  ``profile`` turns the
    source-level kernel profiler (:mod:`repro.prof`) on or off; the
    ``HPL_PROFILE`` environment variable sets the initial state.
    ``faults`` installs a fault-injection plan — a
    :class:`repro.ocl.FaultPlan` or a plan string (see
    ``docs/faults.md``); ``None`` removes the active plan.  The
    ``HPL_FAULTS`` environment variable sets the initial plan.
    ``engine`` selects the default execution backend for every device
    that has no explicit override (``"jit"``, ``"serial"``
    or any backend registered via
    :func:`repro.ocl.engines.base.register_engine`); ``None`` restores
    the ``$HPL_ENGINE``/built-in default.  Unknown names raise
    immediately, listing the registered backends.
    Arguments that are not passed leave their aspect untouched, so
    ``hpl.configure(opt_level=1)`` does not disturb the cache setup.

    Returns the active :class:`KernelDiskCache` (or ``None``) when the
    call touched the cache configuration, else ``None``.
    """
    result = None
    if cache_dir is not _UNSET or max_bytes is not None:
        from . import diskcache
        result = diskcache.configure(
            None if cache_dir is _UNSET else cache_dir, max_bytes)
    if opt_level is not _UNSET:
        from ..clc.passes import set_default_opt_level
        set_default_opt_level(opt_level)
    if engine is not _UNSET:
        from ..ocl.engines.base import set_default_engine
        set_default_engine(engine)
    if profile is not _UNSET:
        from .. import prof
        if profile:
            prof.enable()
        else:
            prof.disable()
    if faults is not _UNSET:
        from ..ocl import faults as _faults
        _faults.configure(faults)
    return result


def __getattr__(name):
    # lazy: keeps `python -m repro.hpl.diskcache` runnable without the
    # package having pre-imported the submodule under its own name
    if name == "KernelDiskCache":
        from . import diskcache
        return diskcache.KernelDiskCache
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
