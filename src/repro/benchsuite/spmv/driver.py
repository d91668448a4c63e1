"""CSR spmv drivers: OpenCL vs HPL vs serial baseline.

Scaling: a 1%-dense n x n CSR matrix has n^2/100 nonzeros, so running
``n_run`` and extrapolating counters by ``(n_paper/n_run)^2`` reproduces
the paper-size traffic (per-row work mix is scale-invariant because the
density is fixed).
"""

from __future__ import annotations

import time

import numpy as np

from ... import ocl
from ...hpl import Array, float_, int_
from ...hpl import eval as hpl_eval
from ..common import BenchRun, Problem, extrapolated_seconds, \
    serial_time_from_counters
from ..datasets import csr_matvec_reference, random_csr, random_vector
from ..table1.spmv_hpl import M as M_THREADS, spmv_hpl_kernel
from ..table1.spmv_opencl import KERNEL_SOURCE

PAPER_SIZE = 16 * 1024        # 16K x 16K @ 1% nonzeros (Tesla)
PAPER_SIZE_QUADRO = 8 * 1024  # 8K x 8K (Quadro)
DENSITY = 0.01


def spmv_problem(n_paper: int = PAPER_SIZE, n_run: int = 1024,
                 seed: int = 13) -> Problem:
    # keep the paper's nonzeros-per-row so the per-row work mix (strip
    # loop trip count vs. reduction tree) is scale-invariant; the row
    # count provides the scale factor
    per_row = max(1, int(round(DENSITY * n_paper)))
    values, cols, rowptr = random_csr(n_run, DENSITY, seed=seed,
                                      per_row=min(per_row, n_run))
    x = random_vector(n_run, seed=seed + 1)
    return Problem(
        name=f"spmv.{n_paper}",
        params={"n_paper": n_paper, "n_run": n_run,
                "work_factor": n_paper / n_run,
                "nnz": len(values)},
        arrays={"values": values, "cols": cols, "rowptr": rowptr, "x": x},
        scale=n_run / n_paper,
    )


# -- hand-written OpenCL version --------------------------------------------------------

def run_opencl(problem: Problem, device_name: str = "Tesla") -> BenchRun:
    n = problem.params["n_run"]
    values = problem.arrays["values"]
    cols = problem.arrays["cols"]
    rowptr = problem.arrays["rowptr"]
    x = problem.arrays["x"]

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
        raise RuntimeError(f"spmv build failed:\n{program.build_log}") \
            from exc
    build_seconds = time.perf_counter() - t0
    kernel = program.create_kernel("spmv")

    mf = ocl.mem_flags
    a_buf = ocl.Buffer(context, mf.READ_ONLY, size=values.nbytes)
    x_buf = ocl.Buffer(context, mf.READ_ONLY, size=x.nbytes)
    c_buf = ocl.Buffer(context, mf.READ_ONLY, size=cols.nbytes)
    r_buf = ocl.Buffer(context, mf.READ_ONLY, size=rowptr.nbytes)
    o_buf = ocl.Buffer(context, mf.WRITE_ONLY, size=n * 4)
    ups = [queue.enqueue_write_buffer(a_buf, values),
           queue.enqueue_write_buffer(x_buf, x),
           queue.enqueue_write_buffer(c_buf, cols),
           queue.enqueue_write_buffer(r_buf, rowptr)]

    kernel.set_args(a_buf, x_buf, c_buf, r_buf, o_buf)
    event = queue.enqueue_nd_range_kernel(kernel, (n * M_THREADS,),
                                          (M_THREADS,))

    out = np.empty(n, dtype=np.float32)
    ev_down = queue.enqueue_read_buffer(o_buf, out)
    queue.finish()

    wf = problem.params["work_factor"]
    return BenchRun(
        benchmark="spmv", variant="opencl", device=device.name,
        output=out,
        kernel_seconds=extrapolated_seconds(event.counters, device.spec,
                                            wf),
        transfer_seconds=(sum(e.duration for e in ups)
                          + ev_down.duration) * wf,
        build_seconds=build_seconds,
        counters=event.counters, params=dict(problem.params))


# -- HPL version ---------------------------------------------------------------------------

def run_hpl(problem: Problem, device_name: str = "Tesla") -> BenchRun:
    from ...hpl import get_device

    n = problem.params["n_run"]
    device = get_device(device_name)

    A = Array(float_, len(problem.arrays["values"]),
              data=problem.arrays["values"])
    vec = Array(float_, n, data=problem.arrays["x"])
    cols = Array(int_, len(problem.arrays["cols"]),
                 data=problem.arrays["cols"])
    rowptr = Array(int_, n + 1, data=problem.arrays["rowptr"])
    out = Array(float_, n)

    result = hpl_eval(spmv_hpl_kernel).global_(n * M_THREADS) \
        .local_(M_THREADS).device(device)(A, vec, cols, rowptr, out)

    out_host = out.read().copy()
    readback = out.host_event.duration if out.host_event else 0.0
    wf = problem.params["work_factor"]
    return BenchRun(
        benchmark="spmv", variant="hpl", device=device.name,
        output=out_host,
        kernel_seconds=extrapolated_seconds(result.kernel_event.counters,
                                            device.queue.device.spec, wf),
        transfer_seconds=(result.transfer_seconds + readback) * wf,
        hpl_overhead_seconds=result.codegen_seconds,
        build_seconds=result.build_seconds,
        counters=result.kernel_event.counters,
        params=dict(problem.params))


# -- serial baseline ---------------------------------------------------------------------------

def serial_seconds(run: BenchRun) -> float:
    """Serial CSR loop (paper Figure 5(a)) on the one-core Xeon model."""
    return serial_time_from_counters(run.counters,
                                     run.params["work_factor"])


def verify(run: BenchRun, problem: Problem) -> bool:
    expected = csr_matvec_reference(problem.arrays["values"],
                                    problem.arrays["cols"],
                                    problem.arrays["rowptr"],
                                    problem.arrays["x"])
    return np.allclose(np.asarray(run.output), expected,
                       rtol=1e-4, atol=1e-5)
