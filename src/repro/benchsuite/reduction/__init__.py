"""Parallel reduction (sum of 16M floats), paper §V, from SHOC.

Multi-stage tree reduction: each group sums a strip of the input through
local memory; the host sums the final partials.  Exercises the
size-only ``__local`` kernel argument path (``clSetKernelArg`` with a
NULL pointer) in the OpenCL version.
"""

from .driver import (GROUP_SIZE, PAPER_N, reduction_problem, run_hpl,
                     run_opencl, serial_seconds, verify)

__all__ = ["reduction_problem", "run_opencl", "run_hpl", "serial_seconds",
           "verify", "GROUP_SIZE"]
