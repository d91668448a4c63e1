"""NAS EP (Embarrassingly Parallel) benchmark, paper §V / Figure 6.

Generates pairs of Gaussian deviates with the NPB 2^46 linear
congruential generator and tallies them in concentric square annuli.
Class sizes W/A/B/C are 2^25..2^32 pairs.
"""

from .driver import (CLASS_DEFAULT_SHIFT, ep_problem, run_hpl, run_opencl,
                     serial_seconds, verify)

__all__ = ["ep_problem", "run_opencl", "run_hpl", "serial_seconds",
           "verify", "CLASS_DEFAULT_SHIFT"]
