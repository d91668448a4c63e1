"""EP benchmark drivers: hand-written OpenCL vs HPL vs serial baseline."""

from __future__ import annotations

import numpy as np

from ... import ocl
from ...hpl import (Array, Double, Int, Long, cast, double_, endfor_,
                    endif_, endwhile_, fabs, float_, fmax, for_, if_, int_,
                    idx, log, long_, min_, sqrt, trunc, while_)
from ...hpl import eval as hpl_eval
from ...ocl import XEON_SERIAL, kernel_time
from ..common import BenchRun, Problem, extrapolated_seconds
from ..datasets import EP_A, EP_CLASSES, EP_SEED, ep_reference
from ..table1.ep_opencl import KERNEL_SOURCE

#: default scale-down (log2) per class so functional runs stay tractable
CLASS_DEFAULT_SHIFT = {"S": 6, "W": 7, "A": 10, "B": 12, "C": 14}

_WORK_ITEMS = 512
_LOCAL = 64

# numerical constants of the NPB LCG, also used by the HPL kernel
_R23 = 2.0 ** -23
_T23 = 2.0 ** 23
_R46 = 2.0 ** -46
_T46 = 2.0 ** 46


def ep_problem(ep_class: str = "W", shift: int | None = None) -> Problem:
    """Build the (scaled) EP workload for a NAS class."""
    m = EP_CLASSES[ep_class]
    if shift is None:
        shift = CLASS_DEFAULT_SHIFT[ep_class]
    if shift < 0 or m - shift < 10:
        raise ValueError(f"bad shift {shift} for class {ep_class}")
    pairs_run = 1 << (m - shift)
    return Problem(
        name=f"ep.{ep_class}",
        params={"class": ep_class, "m": m, "pairs_paper": 1 << m,
                "pairs_run": pairs_run, "work_factor": float(1 << shift),
                "nk": pairs_run // _WORK_ITEMS},
        scale=1.0 / (1 << shift),
    )


# -- hand-written OpenCL version ------------------------------------------------

def run_opencl(problem: Problem, device_name: str = "Tesla") -> BenchRun:
    """The way an OpenCL programmer runs EP: explicit everything."""
    import time

    nk = problem.params["nk"]
    if nk < 1:
        raise ValueError("problem too small for the work-item count")

    # 1. platform/device discovery
    platforms = ocl.get_platforms()
    if not platforms:
        raise RuntimeError("no OpenCL platforms found")
    devices = [d for d in platforms[0].get_devices()
               if device_name.lower() in d.name.lower()]
    if not devices:
        raise RuntimeError(f"no device matching {device_name!r}")
    device = devices[0]
    if not device.supports_fp64:
        raise RuntimeError(f"{device.name} lacks cl_khr_fp64; EP needs "
                           "double precision")

    # 2. context / queue
    context = ocl.Context([device])
    queue = ocl.CommandQueue(context, device, profiling=True)

    # 3. compile the kernel, keeping the build log on failure
    t0 = time.perf_counter()
    program = ocl.Program(context, KERNEL_SOURCE)
    try:
        program.build()
    except Exception as exc:   # show the build log, like real host code
        raise RuntimeError(f"EP kernel build failed:\n"
                           f"{program.build_log}") from exc
    build_seconds = time.perf_counter() - t0
    kernel = program.create_kernel("ep")

    # 4. allocate device buffers
    mf = ocl.mem_flags
    sx_buf = ocl.Buffer(context, mf.WRITE_ONLY, size=_WORK_ITEMS * 8)
    sy_buf = ocl.Buffer(context, mf.WRITE_ONLY, size=_WORK_ITEMS * 8)
    q_buf = ocl.Buffer(context, mf.WRITE_ONLY, size=_WORK_ITEMS * 10 * 4)

    # 5. bind arguments and launch
    kernel.set_arg(0, sx_buf)
    kernel.set_arg(1, sy_buf)
    kernel.set_arg(2, q_buf)
    kernel.set_arg(3, np.int64(nk))
    kernel.set_arg(4, EP_SEED)
    kernel.set_arg(5, EP_A)
    event = queue.enqueue_nd_range_kernel(kernel, (_WORK_ITEMS,), (_LOCAL,))

    # 6. read back and reduce on the host
    sx_part = np.empty(_WORK_ITEMS, dtype=np.float64)
    sy_part = np.empty(_WORK_ITEMS, dtype=np.float64)
    q_part = np.empty(_WORK_ITEMS * 10, dtype=np.int32)
    ev1 = queue.enqueue_read_buffer(sx_buf, sx_part)
    ev2 = queue.enqueue_read_buffer(sy_buf, sy_part)
    ev3 = queue.enqueue_read_buffer(q_buf, q_part)
    queue.finish()

    sx = float(sx_part.sum())
    sy = float(sy_part.sum())
    q = q_part.reshape(_WORK_ITEMS, 10).sum(axis=0).astype(np.int64)

    work_factor = problem.params["work_factor"]
    return BenchRun(
        benchmark="ep", variant="opencl", device=device.name,
        output=(sx, sy, q),
        kernel_seconds=extrapolated_seconds(event.counters,
                                            device.spec, work_factor),
        transfer_seconds=sum(e.duration for e in (ev1, ev2, ev3)),
        build_seconds=build_seconds,
        counters=event.counters, params=dict(problem.params))


# -- HPL version ---------------------------------------------------------------------

def _hpl_lcg_next(x, a):
    """Record one LCG step; returns the new-x expression (inlined)."""
    t1 = Double(); t1.assign(_R23 * a)
    a1 = Double(); a1.assign(trunc(t1))
    a2 = Double(); a2.assign(a - _T23 * a1)
    t2 = Double(); t2.assign(_R23 * x)
    x1 = Double(); x1.assign(trunc(t2))
    x2 = Double(); x2.assign(x - _T23 * x1)
    t3 = Double(); t3.assign(a1 * x2 + a2 * x1)
    t4 = Double(); t4.assign(trunc(_R23 * t3))
    z = Double(); z.assign(t3 - _T23 * t4)
    t5 = Double(); t5.assign(_T23 * z + a2 * x2)
    t6 = Double(); t6.assign(trunc(_R46 * t5))
    return t5 - _T46 * t6


def ep_hpl_kernel(sx_out, sy_out, q_out, nk, seed, a):
    """NAS EP written with HPL.  Table I's ``table1/ep_hpl.py`` spells
    the same kernel shorter but generates other OpenCL C, so running it
    would change EP's figure counters; the figures keep this one."""
    gid = idx
    offset = Long(); offset.assign(cast(gid, long_) * nk * 2)
    # seed jump: x = seed * a^offset  (square-and-multiply in the group)
    b = Double(1.0)
    g = Double(); g.assign(a)
    i = Long(); i.assign(offset)
    while_(i > 0)
    if_(i % 2 == 1)
    b.assign(_hpl_lcg_next(b, g))
    endif_()
    g.assign(_hpl_lcg_next(g, g))
    i.assign(i / 2)
    endwhile_()
    x = Double(); x.assign(_hpl_lcg_next(seed, b))

    sx = Double(0.0)
    sy = Double(0.0)
    qq = Array(int_, 10)
    l = Int()
    for_(l, 0, 10)
    qq[l] = 0
    endfor_()

    k = Long()
    for_(k, 0, nk)
    x.assign(_hpl_lcg_next(x, a))
    t1 = Double(); t1.assign(2.0 * (_R46 * x) - 1.0)
    x.assign(_hpl_lcg_next(x, a))
    t2 = Double(); t2.assign(2.0 * (_R46 * x) - 1.0)
    tsq = Double(); tsq.assign(t1 * t1 + t2 * t2)
    if_(tsq <= 1.0)
    fac = Double(); fac.assign(sqrt(-2.0 * log(tsq) / tsq))
    gx = Double(); gx.assign(t1 * fac)
    gy = Double(); gy.assign(t2 * fac)
    ll = Int(); ll.assign(cast(fmax(fabs(gx), fabs(gy)), int_))
    qq[min_(ll, 9)] += 1
    sx += gx
    sy += gy
    endif_()
    endfor_()

    sx_out[gid] = sx
    sy_out[gid] = sy
    for_(l, 0, 10)
    q_out[gid * 10 + l] = qq[l]
    endfor_()


def run_hpl(problem: Problem, device_name: str = "Tesla") -> BenchRun:
    """EP through HPL: buffers, transfers and compilation are implicit."""
    from ...hpl import get_device

    nk = problem.params["nk"]
    device = get_device(device_name)

    sx_out = Array(double_, _WORK_ITEMS)
    sy_out = Array(double_, _WORK_ITEMS)
    q_out = Array(int_, _WORK_ITEMS * 10)
    result = hpl_eval(ep_hpl_kernel).global_(_WORK_ITEMS).local_(_LOCAL) \
        .device(device)(sx_out, sy_out, q_out, Long(nk),
                        Double(EP_SEED), Double(EP_A))

    sx = float(sx_out.read().sum())
    sy = float(sy_out.read().sum())
    q = q_out.read().reshape(_WORK_ITEMS, 10).sum(axis=0).astype(np.int64)
    readback = sum(a.host_event.duration for a in (sx_out, sy_out, q_out)
                   if a.host_event is not None)

    work_factor = problem.params["work_factor"]
    return BenchRun(
        benchmark="ep", variant="hpl", device=device.name,
        output=(sx, sy, q),
        kernel_seconds=extrapolated_seconds(result.kernel_event.counters,
                                            device.queue.device.spec,
                                            work_factor),
        transfer_seconds=result.transfer_seconds + readback,
        hpl_overhead_seconds=result.codegen_seconds,
        build_seconds=result.build_seconds,
        counters=result.kernel_event.counters,
        params=dict(problem.params))


# -- serial baseline ----------------------------------------------------------------------

def serial_seconds(run: BenchRun) -> float:
    """Serial-CPU time for the paper-size problem.

    EP's serial C++ code performs the *same* arithmetic as the kernel
    (compute-bound, negligible memory traffic), so the baseline is the
    kernel's own measured op counts timed on the one-core Xeon model.
    """
    counters = run.counters.scaled(run.params["work_factor"])
    counters.global_load_bytes = 0
    counters.global_store_bytes = 0
    counters.local_accesses = 0
    counters.barriers = 0
    return kernel_time(counters, XEON_SERIAL).total


def verify(run: BenchRun, shift_problem: Problem) -> bool:
    """Compare a run's output against the serial NPB reference."""
    m_run = int(np.log2(shift_problem.params["pairs_run"]))
    sx_ref, sy_ref, q_ref = ep_reference(m_run)
    sx, sy, q = run.output
    return (abs(sx - sx_ref) < 1e-6 * max(1.0, abs(sx_ref))
            and abs(sy - sy_ref) < 1e-6 * max(1.0, abs(sy_ref))
            and np.array_equal(q, q_ref))
