"""Shared benchmark infrastructure: run records, time extrapolation and
the child-process helper behind every cross-process measurement.

Problem-size scaling
--------------------
The paper's problem sizes (16K x 16K matrices, 2^32 random pairs) are
impractical to *functionally* execute in a Python-based simulator, so
each benchmark runs a scaled-down instance and **extrapolates** the
simulated device time: the dynamic :class:`CostCounters` measured on the
scaled run are multiplied by the known work ratio before being fed to
the cost model.  This is exact for these five kernels because their
operation mix is size-independent (work grows linearly in every counter)
— the property is asserted by tests that compare two scales.

Wall-clock HPL overhead (capture + code generation + build) is *not*
scaled: it genuinely does not depend on the problem size, which is the
mechanism behind Figure 6's shrinking relative overhead.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..ocl import CostCounters, DeviceSpec, kernel_time


@dataclass
class Problem:
    """A generated workload instance."""

    name: str
    params: dict = field(default_factory=dict)
    arrays: dict = field(default_factory=dict)
    #: factor by which device work was scaled down relative to the paper
    scale: float = 1.0


@dataclass
class BenchRun:
    """The outcome of running one benchmark variant on one device."""

    benchmark: str
    variant: str              # 'opencl' | 'hpl'
    device: str
    output: object            # result data for verification
    #: simulated kernel time, extrapolated to the paper's problem size
    kernel_seconds: float
    #: simulated host<->device transfer time (paper-size bytes)
    transfer_seconds: float = 0.0
    #: wall-clock overhead unique to HPL (capture/codegen); 0 for OpenCL
    hpl_overhead_seconds: float = 0.0
    #: wall-clock OpenCL program build time (paid by both variants)
    build_seconds: float = 0.0
    counters: CostCounters | None = None
    params: dict = field(default_factory=dict)

    def total_seconds(self, include_transfers: bool = False,
                      include_build: bool = False) -> float:
        """Kernel time plus the overheads the paper's measurement counts.

        Figures 6-8 count 'the generation of the backend code (in the
        case of HPL) and the compilation and execution of the kernel, but
        not the transfers'; the with-transfer variant of Figure 8 adds
        them.
        """
        total = self.kernel_seconds + self.hpl_overhead_seconds
        if include_build:
            total += self.build_seconds
        if include_transfers:
            total += self.transfer_seconds
        return total


def extrapolated_seconds(counters: CostCounters, spec: DeviceSpec,
                         work_factor: float,
                         launches: int = 1) -> float:
    """Paper-size simulated time from scaled-run counters.

    ``work_factor`` scales every extensive counter; ``launches`` is the
    number of paper-size kernel launches the counters represent (so the
    per-launch overhead is charged the right number of times).
    """
    if launches <= 0:
        raise ValueError("launches must be positive")
    per_launch = counters.scaled(work_factor / launches)
    return kernel_time(per_launch, spec).total * launches


def serial_time_from_counters(counters: CostCounters, work_factor: float,
                              spec: DeviceSpec | None = None,
                              store_line_penalty: float = 1.0) -> float:
    """Serial-CPU baseline time derived from measured kernel counters.

    The serial C++ implementations perform the same algorithmic work as
    the kernels, so the baseline reuses the dynamically measured op and
    byte counts, re-timed with the one-core CPU model.  GPU-specific work
    (local-memory staging, barriers) is stripped.  For benchmarks whose
    natural serial loop strides across cache lines (matrix transpose's
    column writes), ``store_line_penalty`` scales store traffic by the
    line/element ratio.
    """
    from ..ocl import XEON_SERIAL

    spec = XEON_SERIAL if spec is None else spec
    c = counters.scaled(work_factor)
    c.local_accesses = 0
    c.barriers = 0
    c.global_store_bytes = int(c.global_store_bytes * store_line_penalty)
    return kernel_time(c, spec).total


def verify_close(actual, expected, rtol: float = 1e-4,
                 atol: float = 1e-6) -> bool:
    """Tolerant elementwise comparison used by the runner's self-checks."""
    return bool(np.allclose(np.asarray(actual), np.asarray(expected),
                            rtol=rtol, atol=atol))


# -- fresh processes ----------------------------------------------------------

#: the child's entry: import ``module:qualname``, call it with the JSON
#: keyword arguments, print its JSON-able return value
_CHILD_MAIN = """
import importlib, json, sys
module, _, name = sys.argv[1].partition(":")
fn = getattr(importlib.import_module(module), name)
json.dump(fn(**json.loads(sys.argv[2])), sys.stdout)
"""


def child_env(overrides: dict | None = None) -> dict:
    """This process's environment with the ``repro`` source root first
    on ``PYTHONPATH`` and ``overrides`` applied (a ``None`` value
    removes the key)."""
    env = os.environ.copy()
    for key, value in (overrides or {}).items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = str(value)
    src_root = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(fn, kwargs: dict | None = None, env: dict | None = None,
              timeout: float | None = None,
              returncode: int = 0) -> subprocess.CompletedProcess:
    """Call the module-level function ``fn(**kwargs)`` in a fresh
    interpreter and return the finished process; its ``stdout`` holds
    the JSON of ``fn``'s return value.

    ``env`` holds overrides of this process's environment (see
    :func:`child_env`).  A child that exits with anything but
    ``returncode`` — a negative value names the signal expected to kill
    it — or outlives ``timeout`` seconds raises :class:`RuntimeError`
    carrying the target name and the child's stderr.
    """
    target = f"{fn.__module__}:{fn.__qualname__}"
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD_MAIN, target,
             json.dumps(kwargs or {})],
            env=child_env(env), capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        stderr = (exc.stderr or b"").decode(errors="replace")
        raise RuntimeError(f"child {target} timed out after {timeout}s:\n"
                           f"{stderr}") from exc
    if proc.returncode != returncode:
        raise RuntimeError(f"child {target} exited {proc.returncode}, "
                           f"expected {returncode}:\n{proc.stderr}")
    return proc
