"""Floyd-Warshall drivers: OpenCL vs HPL vs serial baseline.

Scaling: a run on ``n_run`` nodes measures one pass's counters; the
paper-size time is ``n_paper`` launches of a pass scaled by
``(n_paper/n_run)^2`` cells — exact, since every pass does identical
per-cell work.
"""

from __future__ import annotations

import time

import numpy as np

from ... import ocl
from ...hpl import Array, Int, int_
from ...hpl import eval as hpl_eval
from ..common import BenchRun, Problem, extrapolated_seconds, \
    serial_time_from_counters
from ..datasets import floyd_warshall_reference, random_graph_distances
from ..table1.floyd_hpl import floyd_hpl_kernel
from ..table1.floyd_opencl import KERNEL_SOURCE

PAPER_NODES = 1024
PAPER_NODES_QUADRO = 512


def floyd_problem(n_paper: int = PAPER_NODES, n_run: int = 128,
                  seed: int = 17) -> Problem:
    """Generate a Floyd-Warshall workload (scaled run of n_run nodes)."""
    if n_run > n_paper:
        n_run = n_paper
    dist = random_graph_distances(n_run, seed=seed)
    return Problem(
        name=f"floyd.{n_paper}",
        params={"n_paper": n_paper, "n_run": n_run,
                "cell_factor": (n_paper / n_run) ** 2,
                "launch_factor": n_paper / n_run},
        arrays={"dist": dist},
        scale=(n_run / n_paper) ** 3,
    )


# -- hand-written OpenCL version ----------------------------------------------------

def run_opencl(problem: Problem, device_name: str = "Tesla") -> BenchRun:
    n = problem.params["n_run"]
    dist_host = problem.arrays["dist"].copy()

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
        raise RuntimeError(f"floyd build failed:\n{program.build_log}") \
            from exc
    build_seconds = time.perf_counter() - t0
    kernel = program.create_kernel("floydWarshallPass")

    mf = ocl.mem_flags
    dist_buf = ocl.Buffer(context, mf.READ_WRITE, size=dist_host.nbytes)
    ev_up = queue.enqueue_write_buffer(dist_buf, dist_host)

    local = (16, 16) if n % 16 == 0 else None
    kernel.set_arg(0, dist_buf)
    kernel.set_arg(1, np.int32(n))
    sim_kernel = 0.0
    counters = None
    for k in range(n):
        kernel.set_arg(2, np.int32(k))
        event = queue.enqueue_nd_range_kernel(kernel, (n, n), local)
        sim_kernel += event.duration
        if counters is None:
            counters = event.counters
        else:
            counters.merge(event.counters)

    out = np.empty_like(dist_host)
    ev_down = queue.enqueue_read_buffer(dist_buf, out)
    queue.finish()

    # extrapolate: n_paper launches, each (n_paper/n_run)^2 the cells
    paper_seconds = extrapolated_seconds(
        counters, device.spec,
        problem.params["cell_factor"] * problem.params["launch_factor"],
        launches=problem.params["n_paper"])
    return BenchRun(
        benchmark="floyd", variant="opencl", device=device.name,
        output=out,
        kernel_seconds=paper_seconds,
        transfer_seconds=(ev_up.duration + ev_down.duration)
        * problem.params["cell_factor"],
        build_seconds=build_seconds,
        counters=counters, params=dict(problem.params))


# -- HPL version ------------------------------------------------------------------------

def run_hpl(problem: Problem, device_name: str = "Tesla") -> BenchRun:
    from ...hpl import get_device

    n = problem.params["n_run"]
    device = get_device(device_name)
    dist = Array(int_, n * n, data=problem.arrays["dist"]
                 .copy().reshape(-1))

    local = (16, 16) if n % 16 == 0 else None
    sim_kernel = 0.0
    transfer = 0.0
    overhead = 0.0
    build = 0.0
    counters = None
    for k in range(n):
        ev = hpl_eval(floyd_hpl_kernel).global_(n, n)
        if local:
            ev = ev.local_(*local)
        result = ev.device(device)(dist, Int(n), Int(k))
        sim_kernel += result.kernel_seconds
        transfer += result.transfer_seconds
        overhead += result.codegen_seconds
        build += result.build_seconds
        if counters is None:
            counters = result.kernel_event.counters
        else:
            counters.merge(result.kernel_event.counters)

    out = dist.read().reshape(n, n).copy()
    if dist.host_event is not None:
        transfer += dist.host_event.duration
    paper_seconds = extrapolated_seconds(
        counters, device.queue.device.spec,
        problem.params["cell_factor"] * problem.params["launch_factor"],
        launches=problem.params["n_paper"])
    return BenchRun(
        benchmark="floyd", variant="hpl", device=device.name,
        output=out,
        kernel_seconds=paper_seconds,
        transfer_seconds=transfer * problem.params["cell_factor"],
        hpl_overhead_seconds=overhead,
        build_seconds=build,
        counters=counters, params=dict(problem.params))


# -- serial baseline -----------------------------------------------------------------------

def serial_seconds(run: BenchRun) -> float:
    """Serial triple-loop Floyd-Warshall on the one-core Xeon model."""
    return serial_time_from_counters(
        run.counters,
        run.params["cell_factor"] * run.params["launch_factor"])


def verify(run: BenchRun, problem: Problem) -> bool:
    expected = floyd_warshall_reference(problem.arrays["dist"])
    return np.array_equal(np.asarray(run.output), expected)
