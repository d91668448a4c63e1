"""Floyd-Warshall all-pairs shortest paths (paper §V, from AMD APP SDK).

One kernel launch per pivot ``k``; each work-item relaxes one matrix
cell.  The paper runs 1024 nodes on the Tesla and 512 on the Quadro.
"""

from .driver import (PAPER_NODES, PAPER_NODES_QUADRO, floyd_problem,
                     run_hpl, run_opencl, serial_seconds, verify)

__all__ = ["floyd_problem", "run_opencl", "run_hpl", "serial_seconds",
           "verify"]
