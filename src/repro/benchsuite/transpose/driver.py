"""Matrix transpose drivers: OpenCL vs HPL vs serial baseline."""

from __future__ import annotations

import time

import numpy as np

from ... import ocl
from ...hpl import Array, Int, float_
from ...hpl import eval as hpl_eval
from ..common import BenchRun, Problem, extrapolated_seconds, \
    serial_time_from_counters
from ..datasets import random_matrix
from ..table1.transpose_hpl import BLOCK, transpose_hpl_kernel
from ..table1.transpose_opencl import KERNEL_SOURCE

PAPER_SIZE = 16 * 1024          # 16K x 16K on the Tesla
PAPER_SIZE_QUADRO = 5 * 1024    # 5K x 5K on the Quadro

#: serial column-major writes touch a 64-byte line per 4-byte element
SERIAL_STORE_LINE_PENALTY = 64 / 4


def transpose_problem(n_paper: int = PAPER_SIZE, n_run: int = 512,
                      seed: int = 11) -> Problem:
    if n_run % BLOCK:
        raise ValueError(f"n_run must be a multiple of {BLOCK}")
    matrix = random_matrix(n_run, n_run, seed=seed)
    return Problem(
        name=f"transpose.{n_paper}",
        params={"n_paper": n_paper, "n_run": n_run,
                "work_factor": (n_paper / n_run) ** 2},
        arrays={"input": matrix},
        scale=(n_run / n_paper) ** 2,
    )


# -- hand-written OpenCL version --------------------------------------------------

def run_opencl(problem: Problem, device_name: str = "Tesla") -> BenchRun:
    n = problem.params["n_run"]
    src_host = problem.arrays["input"]

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
            f"transpose build failed:\n{program.build_log}") from exc
    build_seconds = time.perf_counter() - t0
    kernel = program.create_kernel("matrixTranspose")

    mf = ocl.mem_flags
    in_buf = ocl.Buffer(context, mf.READ_ONLY, size=src_host.nbytes)
    out_buf = ocl.Buffer(context, mf.WRITE_ONLY, size=src_host.nbytes)
    ev_up = queue.enqueue_write_buffer(in_buf, src_host)

    kernel.set_arg(0, out_buf)
    kernel.set_arg(1, in_buf)
    kernel.set_arg(2, np.int32(n))
    kernel.set_arg(3, np.int32(n))
    event = queue.enqueue_nd_range_kernel(kernel, (n, n), (BLOCK, BLOCK))

    out = np.empty_like(src_host)
    ev_down = queue.enqueue_read_buffer(out_buf, out)
    queue.finish()

    wf = problem.params["work_factor"]
    return BenchRun(
        benchmark="transpose", variant="opencl", device=device.name,
        output=out,
        kernel_seconds=extrapolated_seconds(event.counters, device.spec,
                                            wf),
        transfer_seconds=(ev_up.duration + ev_down.duration) * wf,
        build_seconds=build_seconds,
        counters=event.counters, params=dict(problem.params))


# -- HPL version -------------------------------------------------------------------------

def run_hpl(problem: Problem, device_name: str = "Tesla") -> BenchRun:
    from ...hpl import get_device

    n = problem.params["n_run"]
    device = get_device(device_name)

    src = Array(float_, n * n,
                data=np.ascontiguousarray(problem.arrays["input"])
                .reshape(-1))
    dst = Array(float_, n * n)
    result = hpl_eval(transpose_hpl_kernel).global_(n, n) \
        .local_(BLOCK, BLOCK).device(device)(dst, src, Int(n), Int(n))

    out = dst.read().reshape(n, n).copy()
    readback = dst.host_event.duration if dst.host_event else 0.0
    wf = problem.params["work_factor"]
    return BenchRun(
        benchmark="transpose", variant="hpl", device=device.name,
        output=out,
        kernel_seconds=extrapolated_seconds(result.kernel_event.counters,
                                            device.queue.device.spec, wf),
        transfer_seconds=(result.transfer_seconds + readback) * wf,
        hpl_overhead_seconds=result.codegen_seconds,
        build_seconds=result.build_seconds,
        counters=result.kernel_event.counters,
        params=dict(problem.params))


# -- serial baseline -------------------------------------------------------------------------

def serial_seconds(run: BenchRun) -> float:
    """Serial ``out[j][i] = in[i][j]`` loop; the column-stride writes pay
    a full cache line per element on the CPU."""
    return serial_time_from_counters(
        run.counters, run.params["work_factor"],
        store_line_penalty=SERIAL_STORE_LINE_PENALTY)


def verify(run: BenchRun, problem: Problem) -> bool:
    return np.array_equal(np.asarray(run.output),
                          problem.arrays["input"].T)
