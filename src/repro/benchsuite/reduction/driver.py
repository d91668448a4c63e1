"""Reduction drivers: OpenCL vs HPL vs serial baseline.

The paper reduces 16M single-precision values; scaled runs reduce fewer
and extrapolate counters linearly (the kernel is a pure streaming sum).
"""

from __future__ import annotations

import time

import numpy as np

from ... import ocl
from ...hpl import Array, Int, float_
from ...hpl import eval as hpl_eval
from ..common import BenchRun, Problem, extrapolated_seconds, \
    serial_time_from_counters
from ..datasets import random_vector
from ..table1.reduction_hpl import (GROUP_SIZE, NUM_GROUPS,
                                    reduction_hpl_kernel)
from ..table1.reduction_opencl import KERNEL_SOURCE

PAPER_N = 16 * 1024 * 1024      # "the addition of 16M single-precision
                                #  floating point values"


def reduction_problem(n_paper: int = PAPER_N, n_run: int = 1 << 18,
                      seed: int = 23) -> Problem:
    data = random_vector(n_run, seed=seed)
    return Problem(
        name=f"reduction.{n_paper}",
        params={"n_paper": n_paper, "n_run": n_run,
                "work_factor": n_paper / n_run},
        arrays={"data": data},
        scale=n_run / n_paper,
    )


# -- hand-written OpenCL version ------------------------------------------------------

def run_opencl(problem: Problem, device_name: str = "Tesla") -> BenchRun:
    n = problem.params["n_run"]
    data = problem.arrays["data"]

    platforms = ocl.get_platforms()
    if not platforms:
        raise RuntimeError("no OpenCL platforms found")
    candidates = [d for d in platforms[0].get_devices()
                  if device_name.lower() in d.name.lower()]
    if not candidates:
        raise RuntimeError(f"no device matching {device_name!r}")
    device = candidates[0]
    context = ocl.Context([device])
    queue = ocl.CommandQueue(context, device, profiling=True)

    t0 = time.perf_counter()
    program = ocl.Program(context, KERNEL_SOURCE)
    try:
        program.build()
    except Exception as exc:
        raise RuntimeError(
            f"reduction build failed:\n{program.build_log}") from exc
    build_seconds = time.perf_counter() - t0
    kernel = program.create_kernel("reduce")

    mf = ocl.mem_flags
    in_buf = ocl.Buffer(context, mf.READ_ONLY, size=data.nbytes)
    out_buf = ocl.Buffer(context, mf.WRITE_ONLY, size=NUM_GROUPS * 4)
    ev_up = queue.enqueue_write_buffer(in_buf, data)

    kernel.set_arg(0, in_buf)
    kernel.set_arg(1, out_buf)
    kernel.set_arg(2, ocl.LocalMemory(GROUP_SIZE * 4))
    kernel.set_arg(3, np.int32(n))
    event = queue.enqueue_nd_range_kernel(
        kernel, (GROUP_SIZE * NUM_GROUPS,), (GROUP_SIZE,))

    partials = np.empty(NUM_GROUPS, dtype=np.float32)
    ev_down = queue.enqueue_read_buffer(out_buf, partials)
    queue.finish()
    total = float(partials.astype(np.float64).sum())

    wf = problem.params["work_factor"]
    return BenchRun(
        benchmark="reduction", variant="opencl", device=device.name,
        output=total,
        kernel_seconds=extrapolated_seconds(event.counters, device.spec,
                                            wf),
        transfer_seconds=ev_up.duration * wf + ev_down.duration,
        build_seconds=build_seconds,
        counters=event.counters, params=dict(problem.params))


# -- HPL version -----------------------------------------------------------------------------

def run_hpl(problem: Problem, device_name: str = "Tesla") -> BenchRun:
    from ...hpl import get_device

    n = problem.params["n_run"]
    device = get_device(device_name)

    g_idata = Array(float_, n, data=problem.arrays["data"])
    g_odata = Array(float_, NUM_GROUPS)
    result = hpl_eval(reduction_hpl_kernel) \
        .global_(GROUP_SIZE * NUM_GROUPS).local_(GROUP_SIZE) \
        .device(device)(g_idata, g_odata, Int(n))

    total = float(g_odata.read().astype(np.float64).sum())
    readback = (g_odata.host_event.duration
                if g_odata.host_event is not None else 0.0)
    wf = problem.params["work_factor"]
    return BenchRun(
        benchmark="reduction", variant="hpl", device=device.name,
        output=total,
        kernel_seconds=extrapolated_seconds(result.kernel_event.counters,
                                            device.queue.device.spec, wf),
        transfer_seconds=result.transfer_seconds * wf + readback,
        hpl_overhead_seconds=result.codegen_seconds,
        build_seconds=result.build_seconds,
        counters=result.kernel_event.counters,
        params=dict(problem.params))


# -- serial baseline ---------------------------------------------------------------------------

def serial_seconds(run: BenchRun) -> float:
    """A serial accumulation loop on the one-core Xeon model."""
    return serial_time_from_counters(run.counters,
                                     run.params["work_factor"])


def verify(run: BenchRun, problem: Problem) -> bool:
    expected = float(problem.arrays["data"].astype(np.float64).sum())
    return abs(float(run.output) - expected) <= 1e-3 * abs(expected)
