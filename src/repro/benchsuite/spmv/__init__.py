"""Sparse matrix-vector product, CSR format (paper §IV-C / §V, SHOC).

One thread group per matrix row; the group's threads stride the row and
tree-reduce their partial products in local memory — the kernel of the
paper's Figure 5(b).  Paper sizes: 16K x 16K at 1% nonzeros (Tesla),
8K x 8K (Quadro).
"""

from .driver import (M_THREADS, PAPER_SIZE, PAPER_SIZE_QUADRO, run_hpl,
                     run_opencl, serial_seconds, spmv_problem, verify)

__all__ = ["spmv_problem", "run_opencl", "run_hpl", "serial_seconds",
           "verify", "M_THREADS"]
