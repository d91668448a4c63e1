"""Profiler accuracy: hand-computed per-line counts, engine parity.

The AXPY kernel below is small enough to count by hand.  With 64 work
items, the statement line ``y[i] = a * x[i] + y[i];`` performs per item
two global loads, one global store and two fp32 ALU ops, so its line
record must show exactly

* ``loads = 128``, ``stores = 64`` (→ 192 memory executions),
* ``alu_ops = 128`` (weight 1.0 each), ``fp64_ops = 0``,
* ``execs = 320`` (192 memory + 128 ALU),
* ``mem_bytes = 768`` (192 accesses x 4 bytes).

Those numbers are engine- and opt-level-independent.  Transaction
counts differ by *model*: the serial (CPU) engine counts one
transaction per access (192), the lock-step (GPU) jit engine coalesces
each warp's 128 contiguous bytes into one segment (3 accesses x 2 warps
= 6).  The serial engine and both jit tiers must also agree line-by-line
on execution counts for every kernel, at -O0 (unoptimized bytecode) and
-O2 (optimized bytecode) alike.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.ocl as cl
from repro.ocl import TESLA_C2050
from tests.conftest import ENGINE_LEGS

AXPY = """__kernel void axpy(__global const float* x,
                   __global float* y,
                   float a)
{
    int i = get_global_id(0);
    y[i] = a * x[i] + y[i];
}
"""
AXPY_LINE = 6          # the y[i] = ... statement
N = 64

LOOP = """__kernel void looped(__global int* out)
{
    int i = get_global_id(0);
    int acc = 0;
    int j = 0;
    while (j < 10) {
        acc = acc + j;
        j = j + 1;
    }
    out[i] = acc;
}
"""

OPT_LEVELS = ("-cl-opt-disable", "-O2")
ENGINES = ("serial", "jit-interp", "jit-compiled")


def _run_axpy(cl_run, engine, options):
    device = cl.Device(TESLA_C2050, engine)
    x = np.arange(N, dtype=np.float32)
    y = np.ones(N, dtype=np.float32)
    cl_run(device, AXPY, "axpy", [x, y, np.float32(2.0)],
           (N,), (N,), options=options)
    return x, y


class TestHandComputedCounts:
    @pytest.mark.parametrize("options", OPT_LEVELS)
    @pytest.mark.parametrize("engine", ENGINE_LEGS)
    def test_axpy_line_stats(self, profiler, cl_run, engine, options):
        x, y = _run_axpy(cl_run, engine, options)
        np.testing.assert_allclose(y, 2.0 * x + 1.0, rtol=1e-6)

        (profile,) = profiler.profiles()
        stat = profile.lines[AXPY_LINE]
        assert stat.loads == 2 * N
        assert stat.stores == N
        assert stat.alu_ops == 2 * N
        assert stat.fp64_ops == 0
        assert stat.execs == 5 * N
        assert stat.mem_bytes == 3 * N * 4
        # all of the modeled cost lands on annotated source lines
        assert profile.attributed_fraction() == pytest.approx(1.0)

    @pytest.mark.parametrize("options", OPT_LEVELS)
    def test_transaction_models(self, profiler, cl_run, options):
        # serial = CPU model: one transaction per access
        _run_axpy(cl_run, "serial", options)
        (serial,) = profiler.drain()
        assert serial.lines[AXPY_LINE].transactions == 3 * N
        # jit = GPU model: each warp's 32 contiguous floats coalesce
        # into one 128-byte segment -> 3 accesses x 2 warps
        _run_axpy(cl_run, "jit", options)
        (jit,) = profiler.drain()
        assert jit.lines[AXPY_LINE].transactions == 6
        assert jit.lines[AXPY_LINE].coalescing(128) == pytest.approx(1.0)


class TestEngineParity:
    """Every engine must attribute identical execution counts to
    identical lines — the same program is simulated either way."""

    @pytest.mark.parametrize("source,name,nargs", [
        (AXPY, "axpy", "axpy"),
        (LOOP, "looped", "loop"),
    ], ids=["axpy", "loop"])
    @pytest.mark.parametrize("options", OPT_LEVELS)
    def test_per_line_execs_match(self, profiler, cl_run, source, name,
                                  nargs, options):
        per_engine = {}
        for engine in ENGINES:
            device = cl.Device(TESLA_C2050, engine)
            if name == "axpy":
                x = np.arange(N, dtype=np.float32)
                y = np.ones(N, dtype=np.float32)
                args = [x, y, np.float32(2.0)]
            else:
                args = [np.zeros(N, dtype=np.int32)]
            cl_run(device, source, name, args, (N,), (N,),
                   options=options)
            (profile,) = profiler.drain()
            per_engine[engine] = {
                line: (s.execs, s.loads, s.stores, s.mem_bytes)
                for line, s in profile.lines.items()}
        assert per_engine["serial"] == per_engine["jit-interp"]
        assert per_engine["jit-compiled"] == per_engine["jit-interp"]

    def test_loop_body_attribution(self, profiler, cl_run):
        """The while body must carry the trip count: 10 iterations x 64
        items of ``acc = acc + j`` is 640 additions on line 7."""
        device = cl.Device(TESLA_C2050, "serial")
        out = np.zeros(N, dtype=np.int32)
        cl_run(device, LOOP, "looped", [out], (N,), (N,),
               options="-cl-opt-disable")
        assert (out == 45).all()
        (profile,) = profiler.drain()
        assert profile.lines[7].alu_ops == 10 * N
