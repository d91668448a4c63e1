"""Matrix transpose (paper §V, from the AMD APP SDK).

The optimized version of footnote 1: contiguous reads, block transposed
through the local memory shared by each thread group, contiguous writes.
Paper sizes: 16K x 16K on the Tesla, 5K x 5K on the Quadro; this is also
the benchmark where counting PCIe transfers dilutes the HPL overhead
from 3.47% to 0.41% (§V-B).
"""

from .driver import (BLOCK, PAPER_SIZE, PAPER_SIZE_QUADRO, run_hpl,
                     run_opencl, serial_seconds, transpose_problem,
                     verify)

__all__ = ["transpose_problem", "run_opencl", "run_hpl", "serial_seconds",
           "verify", "BLOCK"]
