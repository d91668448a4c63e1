"""Ablations of the design choices DESIGN.md calls out.

1. **Transfer minimisation** (§VI): HPL's kernel analysis copies only
   the arguments a kernel reads.  Ablated by comparing the transfers a
   read/write-classified workflow performs against the copy-everything
   policy a naive library would use.
2. **Kernel binary cache** (§V-B): repeated invocations without the
   cache would pay capture+compile every time.
3. **Coalescing sensitivity** of the cost model: the same traffic with
   scattered addresses must be modelled slower — the mechanism that
   separates spmv from EP in Figure 7.
"""

import numpy as np

import repro.hpl as hpl
import repro.ocl as cl
from repro.hpl import Array, double_, idx
from tests.conftest import run_cl_kernel


def test_ablation_transfer_minimisation(benchmark):
    def chained_updates():
        hpl.reset_runtime()

        def step(a):
            a[idx] = a[idx] + 1.0

        a = Array(double_, 4096).fill(0.0)
        for _ in range(10):
            hpl.eval(step)(a)
        return hpl.get_runtime().stats

    stats = benchmark.pedantic(chained_updates, rounds=1, iterations=1)
    minimised = stats.h2d_transfers
    # the copy-everything policy would upload the argument before each
    # of the 10 launches
    naive = 10
    print(f"\nAblation: transfers with analysis = {minimised}, "
          f"copy-everything policy = {naive}")
    assert minimised == 1
    assert naive / minimised == 10


def test_ablation_kernel_cache(benchmark):
    def with_cache():
        hpl.reset_runtime()

        def k(a):
            a[idx] = a[idx] * 2.0

        a = Array(double_, 256).fill(1.0)
        overhead = 0.0
        for _ in range(8):
            r = hpl.eval(k)(a)
            overhead += r.overhead_seconds
        return overhead, hpl.get_runtime().stats

    overhead_cached, stats = benchmark.pedantic(with_cache, rounds=1,
                                                iterations=1)
    # without the cache every invocation would pay roughly the cold cost
    cold_cost = (stats.codegen_seconds + stats.build_seconds)
    uncached_estimate = 8 * cold_cost
    print(f"\nAblation: total overhead with cache = "
          f"{overhead_cached * 1e3:.2f} ms, without cache ~= "
          f"{uncached_estimate * 1e3:.2f} ms "
          f"({uncached_estimate / max(overhead_cached, 1e-9):.1f}x)")
    assert stats.kernels_built == 1
    assert stats.cache_hits == 7
    assert uncached_estimate > 4 * overhead_cached


def test_ablation_coalescing_sensitivity(benchmark):
    """Scattered traffic must cost more simulated time than streaming
    traffic of the same element count."""
    device = cl.Device(cl.TESLA_C2050, "jit")
    n = 1 << 14
    rng = np.random.default_rng(0)

    stream_src = """__kernel void f(__global float* o,
            __global const float* a) {
        int i = get_global_id(0);
        o[i] = a[i];
    }"""
    gather_src = """__kernel void f(__global float* o,
            __global const float* a, __global const int* idx) {
        int i = get_global_id(0);
        o[i] = a[idx[i]];
    }"""

    def run_both():
        a = rng.random(n).astype(np.float32)
        o = np.zeros(n, np.float32)
        ev_stream = run_cl_kernel(device, stream_src, "f", [o, a], (n,))
        perm = rng.permutation(n).astype(np.int32)
        ev_gather = run_cl_kernel(device, gather_src, "f",
                                  [o, a, perm], (n,))
        return ev_stream, ev_gather

    ev_stream, ev_gather = benchmark.pedantic(run_both, rounds=1,
                                              iterations=1)
    ratio = ev_gather.breakdown.memory / ev_stream.breakdown.memory
    print(f"\nAblation: scattered/streaming memory-time ratio = "
          f"{ratio:.1f}x")
    assert ratio > 4.0
