"""Basic kernel execution on both engines."""

import numpy as np
import pytest

import repro.ocl as cl
from repro.errors import KernelLaunchError


class TestElementwise:
    def test_copy_kernel(self, any_engine_device, cl_run):
        src = """__kernel void copy(__global float* dst,
                                    __global const float* s) {
            int i = get_global_id(0);
            dst[i] = s[i];
        }"""
        a = np.random.rand(64).astype(np.float32)
        out = np.zeros(64, np.float32)
        cl_run(any_engine_device, src, "copy", [out, a], (64,))
        assert np.array_equal(out, a)

    def test_saxpy_double(self, any_engine_device, cl_run):
        src = """__kernel void saxpy(__global double* y,
                __global const double* x, double a) {
            int i = get_global_id(0);
            y[i] = a * x[i] + y[i];
        }"""
        x = np.random.rand(100)
        y = np.random.rand(100)
        y0 = y.copy()
        cl_run(any_engine_device, src, "saxpy", [y, x, 3.0], (100,))
        assert np.allclose(y, 3.0 * x + y0)

    def test_int_arithmetic(self, any_engine_device, cl_run):
        src = """__kernel void f(__global int* o, __global const int* a) {
            int i = get_global_id(0);
            o[i] = a[i] * 3 - 7;
        }"""
        a = np.arange(32, dtype=np.int32)
        o = np.zeros(32, np.int32)
        cl_run(any_engine_device, src, "f", [o, a], (32,))
        assert np.array_equal(o, a * 3 - 7)

    def test_scalar_arg_uint(self, any_engine_device, cl_run):
        src = """__kernel void f(__global uint* o, uint v) {
            o[get_global_id(0)] = v;
        }"""
        o = np.zeros(8, np.uint32)
        cl_run(any_engine_device, src, "f", [o, np.uint32(4000000000)],
               (8,))
        assert np.all(o == 4000000000)

    def test_2d_domain_ids(self, any_engine_device, cl_run):
        src = """__kernel void f(__global int* o, int w) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            o[y * w + x] = x * 100 + y;
        }"""
        w, h = 8, 4
        o = np.zeros(w * h, np.int32)
        cl_run(any_engine_device, src, "f", [o, np.int32(w)], (w, h))
        expected = np.array([[x * 100 + y for x in range(w)]
                             for y in range(h)], np.int32).reshape(-1)
        assert np.array_equal(o, expected)

    def test_builtin_math(self, any_engine_device, cl_run):
        src = """__kernel void f(__global float* o,
                                 __global const float* a) {
            int i = get_global_id(0);
            o[i] = sqrt(a[i]) + exp(0.0f);
        }"""
        a = np.random.rand(16).astype(np.float32) + 0.1
        o = np.zeros(16, np.float32)
        cl_run(any_engine_device, src, "f", [o, a], (16,))
        assert np.allclose(o, np.sqrt(a) + 1.0, rtol=1e-5)

    def test_helper_function_call(self, any_engine_device, cl_run):
        src = """
        float square(float x) { return x * x; }
        __kernel void f(__global float* o, __global const float* a) {
            int i = get_global_id(0);
            o[i] = square(a[i]) + square(2.0f);
        }"""
        a = np.random.rand(16).astype(np.float32)
        o = np.zeros(16, np.float32)
        cl_run(any_engine_device, src, "f", [o, a], (16,))
        assert np.allclose(o, a * a + 4.0, rtol=1e-5)

    def test_helper_with_pointer_param(self, any_engine_device, cl_run):
        src = """
        void put(__global int* p, int i, int v) { p[i] = v; }
        __kernel void f(__global int* o) {
            int i = get_global_id(0);
            put(o, i, i * 2);
        }"""
        o = np.zeros(16, np.int32)
        cl_run(any_engine_device, src, "f", [o], (16,))
        assert np.array_equal(o, np.arange(16) * 2)

    def test_ternary_select(self, any_engine_device, cl_run):
        src = """__kernel void f(__global int* o, __global const int* a) {
            int i = get_global_id(0);
            o[i] = a[i] > 5 ? 1 : -1;
        }"""
        a = np.arange(12, dtype=np.int32)
        o = np.zeros(12, np.int32)
        cl_run(any_engine_device, src, "f", [o, a], (12,))
        assert np.array_equal(o, np.where(a > 5, 1, -1))


class TestLocalMemoryAndBarriers:
    DOT_SRC = """__kernel void dotp(__global const float* v1,
            __global const float* v2, __global float* p) {
        __local float s[8];
        int lid = get_local_id(0);
        int gid = get_global_id(0);
        s[lid] = v1[gid] * v2[gid];
        barrier(CLK_LOCAL_MEM_FENCE);
        if (lid == 0) {
            float sum = 0.0f;
            for (int i = 0; i < 8; i++) {
                sum += s[i];
            }
            p[get_group_id(0)] = sum;
        }
    }"""

    def test_group_dot_product(self, any_engine_device, cl_run):
        n = 64
        v1 = np.random.rand(n).astype(np.float32)
        v2 = np.random.rand(n).astype(np.float32)
        p = np.zeros(n // 8, np.float32)
        cl_run(any_engine_device, self.DOT_SRC, "dotp", [v1, v2, p],
               (n,), (8,))
        expected = (v1 * v2).reshape(-1, 8).sum(axis=1)
        assert np.allclose(p, expected, rtol=1e-5)

    def test_local_pointer_argument(self, any_engine_device, cl_run):
        src = """__kernel void f(__global float* o,
                __global const float* a, __local float* tmp) {
            int lid = get_local_id(0);
            int gid = get_global_id(0);
            tmp[lid] = a[gid];
            barrier(CLK_LOCAL_MEM_FENCE);
            o[gid] = tmp[(lid + 1) % 4];
        }"""
        a = np.arange(16, dtype=np.float32)
        o = np.zeros(16, np.float32)
        cl_run(any_engine_device, src, "f", [o, a, ("local", 16)],
               (16,), (4,))
        expected = a.reshape(-1, 4)[:, [1, 2, 3, 0]].reshape(-1)
        assert np.array_equal(o, expected)

    def test_local_memory_isolated_between_groups(self, any_engine_device,
                                                  cl_run):
        src = """__kernel void f(__global int* o) {
            __local int s[1];
            if (get_local_id(0) == 0) {
                s[0] = get_group_id(0);
            }
            barrier(CLK_LOCAL_MEM_FENCE);
            o[get_global_id(0)] = s[0];
        }"""
        o = np.zeros(12, np.int32)
        cl_run(any_engine_device, src, "f", [o], (12,), (4,))
        assert np.array_equal(o, np.repeat([0, 1, 2], 4))

    def test_local_memory_capacity_enforced(self, cl_run):
        small = cl.DeviceSpec(name="tiny", type=cl.device_type.GPU,
                              local_mem_bytes=64)
        device = cl.Device(small, "jit")
        src = """__kernel void f(__global float* o) {
            __local float s[64];
            s[get_local_id(0)] = 0.0f;
            o[get_global_id(0)] = s[0];
        }"""
        o = np.zeros(8, np.float32)
        from repro.errors import OutOfResources
        with pytest.raises(OutOfResources, match="local memory"):
            cl_run(device, src, "f", [o], (8,), (8,))


class TestAtomics:
    def test_atomic_add_histogram(self, any_engine_device, cl_run):
        src = """__kernel void hist(__global int* bins,
                                    __global const int* vals) {
            int i = get_global_id(0);
            atomic_add(&bins[vals[i]], 1);
        }"""
        vals = np.random.default_rng(3).integers(0, 4, 256) \
            .astype(np.int32)
        bins = np.zeros(4, np.int32)
        cl_run(any_engine_device, src, "hist", [bins, vals], (256,))
        assert np.array_equal(bins, np.bincount(vals, minlength=4))

    def test_atomic_inc(self, any_engine_device, cl_run):
        src = """__kernel void f(__global int* c) {
            atomic_inc(&c[0]);
        }"""
        c = np.zeros(1, np.int32)
        cl_run(any_engine_device, src, "f", [c], (100,))
        assert c[0] == 100

    def test_atomic_max(self, any_engine_device, cl_run):
        src = """__kernel void f(__global int* m,
                                 __global const int* vals) {
            atomic_max(&m[0], vals[get_global_id(0)]);
        }"""
        vals = np.random.default_rng(5).integers(0, 1000, 64) \
            .astype(np.int32)
        m = np.zeros(1, np.int32)
        cl_run(any_engine_device, src, "f", [m, vals], (64,))
        assert m[0] == vals.max()


class TestAliasedBuffers:
    def test_load_keeps_its_value_across_a_store_to_the_same_buffer(
            self, any_engine_device):
        """One buffer bound to a read and a written parameter: the
        value loaded before the store is the old element, on every
        launch (the jit compiles from a program's second launch; a
        load that returned a view of the buffer would see 5.0)."""
        src = """__kernel void f(__global float* a,
                                 __global const float* b,
                                 __global float* out) {
            float v = b[get_global_id(0)];
            a[get_global_id(0)] = 5.0f;
            out[get_global_id(0)] = v;
        }"""
        ctx = cl.Context([any_engine_device])
        queue = cl.CommandQueue(ctx, any_engine_device)
        kernel = cl.Program(ctx, src).build().create_kernel("f")
        old = np.arange(32, dtype=np.float32)
        shared = cl.Buffer(ctx, cl.mem_flags.READ_WRITE, size=old.nbytes)
        dest = cl.Buffer(ctx, cl.mem_flags.READ_WRITE, size=old.nbytes)
        kernel.set_args(shared, shared, dest)
        for _ in range(3):
            queue.enqueue_write_buffer(shared, old)
            queue.enqueue_nd_range_kernel(kernel, (32,))
            out = np.zeros_like(old)
            written = np.zeros_like(old)
            queue.enqueue_read_buffer(dest, out)
            queue.enqueue_read_buffer(shared, written)
            queue.finish()
            assert np.array_equal(out, old)
            assert np.all(written == 5.0)


class TestErrors:
    def test_out_of_bounds_trapped(self, any_engine_device, cl_run):
        src = """__kernel void f(__global int* a) {
            a[get_global_id(0) + 100] = 1;
        }"""
        a = np.zeros(8, np.int32)
        with pytest.raises(KernelLaunchError, match="out of bounds"):
            cl_run(any_engine_device, src, "f", [a], (8,))

    def test_negative_index_trapped(self, any_engine_device, cl_run):
        src = """__kernel void f(__global int* a) {
            a[get_global_id(0) - 5] = 1;
        }"""
        a = np.zeros(8, np.int32)
        with pytest.raises(KernelLaunchError, match="out of bounds"):
            cl_run(any_engine_device, src, "f", [a], (8,))

    def test_infinite_loop_guard_serial(self, tesla_serial, cl_run):
        # only exercised on tiny domains: the serial guard triggers per
        # work-item; keep the test cheap by patching the limit
        import repro.ocl.engines.serial as serial_mod
        old = serial_mod._MAX_LOOP_ITERATIONS
        serial_mod._MAX_LOOP_ITERATIONS = 1000
        try:
            src = """__kernel void f(__global int* a) {
                while (1) { a[0] = 1; }
            }"""
            a = np.zeros(1, np.int32)
            with pytest.raises(KernelLaunchError, match="iteration"):
                cl_run(tesla_serial, src, "f", [a], (1,))
        finally:
            serial_mod._MAX_LOOP_ITERATIONS = old

    def test_barrier_divergence_detected_serial(self, tesla_serial,
                                                cl_run):
        src = """__kernel void f(__global int* a) {
            if (get_local_id(0) == 0) {
                barrier(CLK_LOCAL_MEM_FENCE);
            }
            a[get_global_id(0)] = 1;
        }"""
        a = np.zeros(4, np.int32)
        with pytest.raises(KernelLaunchError, match="divergence"):
            cl_run(tesla_serial, src, "f", [a], (4,), (4,))
