"""C arithmetic semantics: truncating division, wrapping, shifts,
conversions — checked on both engines and property-tested against
Python models of the C rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelLaunchError
from repro.ocl.engines.carith import c_idiv, c_imod, c_shl, to_dtype


def c_div_model(a, b):
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


class TestCarithHelpers:
    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_trunc_division_matches_c(self, a, b):
        got = int(c_idiv(np.int32(a), np.int32(b)))
        assert got == c_div_model(a, b)

    @given(st.integers(-1000, 1000),
           st.integers(-1000, 1000).filter(lambda x: x != 0))
    def test_remainder_identity(self, a, b):
        q = int(c_idiv(np.int32(a), np.int32(b)))
        r = int(c_imod(np.int32(a), np.int32(b)))
        assert q * b + r == a
        assert abs(r) < abs(b)

    @given(st.integers(-100, 100))
    def test_division_by_zero_yields_zero(self, a):
        assert int(c_idiv(np.int32(a), np.int32(0))) == 0
        assert int(c_imod(np.int32(a), np.int32(0))) == 0

    def test_array_division(self):
        a = np.array([7, -7, 7, -7], np.int32)
        b = np.array([2, 2, -2, -2], np.int32)
        assert c_idiv(a, b).tolist() == [3, -3, -3, 3]
        assert c_imod(a, b).tolist() == [1, -1, 1, -1]

    def test_shift_amount_wraps_at_bit_width(self):
        assert int(c_shl(np.int32(1), np.int32(33))) == 2

    @given(st.floats(-1e6, 1e6))
    def test_float_to_int_truncates_toward_zero(self, x):
        got = int(to_dtype(np.float64(x), np.dtype(np.int32))[()])
        assert got == int(x)

    def test_nan_to_int_is_zero(self):
        assert int(to_dtype(np.float32(np.nan),
                            np.dtype(np.int32))[()]) == 0


class TestKernelSemantics:
    def test_negative_int_division(self, any_engine_device, cl_run):
        src = """__kernel void f(__global int* o, __global const int* a,
                                 __global const int* b) {
            int i = get_global_id(0);
            o[i] = a[i] / b[i];
        }"""
        a = np.array([7, -7, 7, -7, 9], np.int32)
        b = np.array([2, 2, -2, -2, 3], np.int32)
        o = np.zeros(5, np.int32)
        cl_run(any_engine_device, src, "f", [o, a, b], (5,))
        assert o.tolist() == [3, -3, -3, 3, 3]

    def test_negative_modulo(self, any_engine_device, cl_run):
        src = """__kernel void f(__global int* o, __global const int* a) {
            int i = get_global_id(0);
            o[i] = a[i] % 3;
        }"""
        a = np.array([5, -5, 4, -4], np.int32)
        o = np.zeros(4, np.int32)
        cl_run(any_engine_device, src, "f", [o, a], (4,))
        assert o.tolist() == [2, -2, 1, -1]

    def test_int32_wraparound(self, any_engine_device, cl_run):
        src = """__kernel void f(__global int* o) {
            o[get_global_id(0)] = 2147483647 + 1;
        }"""
        o = np.zeros(2, np.int32)
        cl_run(any_engine_device, src, "f", [o], (2,))
        assert np.all(o == np.int32(-2147483648))

    def test_uint_wraparound(self, any_engine_device, cl_run):
        src = """__kernel void f(__global uint* o, uint x) {
            o[get_global_id(0)] = x - 1u;
        }"""
        o = np.zeros(1, np.uint32)
        cl_run(any_engine_device, src, "f", [o, np.uint32(0)], (1,))
        assert o[0] == np.uint32(4294967295)

    def test_ulong_shifts(self, any_engine_device, cl_run):
        # NumPy has no uint64 shift by a signed amount; the engines must
        # still shift a ulong by an int like C does
        src = """__kernel void f(__global ulong* o, __global ulong* p,
                                 __global const int* s) {
            int i = get_global_id(0);
            ulong x = o[i];
            o[i] = x << s[i];
            p[i] = x >> s[i];
        }"""
        o = np.array([1, 2**63, 3], np.uint64)
        p = np.zeros(3, np.uint64)
        s = np.array([63, 1, 65], np.int32)
        cl_run(any_engine_device, src, "f", [o, p, s], (3,))
        assert o.tolist() == [2**63, 0, 6]
        assert p.tolist() == [0, 2**62, 1]

    def test_float_to_int_conversion_in_kernel(self, any_engine_device,
                                               cl_run):
        src = """__kernel void f(__global int* o,
                                 __global const float* a) {
            int i = get_global_id(0);
            o[i] = (int)a[i];
        }"""
        a = np.array([1.9, -1.9, 0.5, -0.5], np.float32)
        o = np.zeros(4, np.int32)
        cl_run(any_engine_device, src, "f", [o, a], (4,))
        assert o.tolist() == [1, -1, 0, 0]

    def test_integer_promotion_char(self, any_engine_device, cl_run):
        src = """__kernel void f(__global int* o,
                                 __global const char* a) {
            int i = get_global_id(0);
            o[i] = a[i] * 2;
        }"""
        a = np.array([100, -100], np.int8)
        o = np.zeros(2, np.int32)
        cl_run(any_engine_device, src, "f", [o, a], (2,))
        assert o.tolist() == [200, -200]  # promoted to int, no wrap

    def test_long_arithmetic(self, any_engine_device, cl_run):
        src = """__kernel void f(__global long* o, long x) {
            o[get_global_id(0)] = x * 1000000007L;
        }"""
        o = np.zeros(1, np.int64)
        cl_run(any_engine_device, src, "f", [o, np.int64(12345)], (1,))
        assert o[0] == 12345 * 1000000007

    def test_mixed_float_int_promotes_to_float(self, any_engine_device,
                                               cl_run):
        src = """__kernel void f(__global float* o) {
            int i = get_global_id(0);
            o[i] = i / 2;
            o[i] += i / 2.0f;
        }"""
        o = np.zeros(5, np.float32)
        cl_run(any_engine_device, src, "f", [o], (5,))
        expected = [i // 2 + i / 2.0 for i in range(5)]
        assert np.allclose(o, expected)

    def test_bitwise_ops(self, any_engine_device, cl_run):
        src = """__kernel void f(__global int* o, __global const int* a) {
            int i = get_global_id(0);
            o[i] = ((a[i] & 0xF) | 0x10) ^ 0x3;
        }"""
        a = np.arange(8, dtype=np.int32) * 7
        o = np.zeros(8, np.int32)
        cl_run(any_engine_device, src, "f", [o, a], (8,))
        assert np.array_equal(o, ((a & 0xF) | 0x10) ^ 0x3)

    def test_unary_not(self, any_engine_device, cl_run):
        src = """__kernel void f(__global int* o, __global const int* a) {
            int i = get_global_id(0);
            o[i] = !a[i];
        }"""
        a = np.array([0, 1, -5, 0], np.int32)
        o = np.zeros(4, np.int32)
        cl_run(any_engine_device, src, "f", [o, a], (4,))
        assert o.tolist() == [1, 0, 0, 1]

    def test_float_division_by_zero_gives_inf(self, any_engine_device,
                                              cl_run):
        src = """__kernel void f(__global float* o,
                                 __global const float* a) {
            int i = get_global_id(0);
            o[i] = a[i] / 0.0f;
        }"""
        a = np.array([1.0, -1.0], np.float32)
        o = np.zeros(2, np.float32)
        cl_run(any_engine_device, src, "f", [o, a], (2,))
        assert np.isinf(o[0]) and o[0] > 0 and o[1] < 0

    @pytest.mark.parametrize("options", ["-O0", "-O2"])
    def test_logical_and_evaluates_both_operands(self, any_engine_device,
                                                 cl_run, options):
        """The simulator evaluates both operands of ``&&`` (and of
        ``||`` and ``?:``), unlike C's short circuit: a guard cannot
        protect an out-of-bounds load, on any engine at any level."""
        src = """__kernel void f(__global int* o, __global const int* a,
                                 int n) {
            int i = get_global_id(0);
            if (i < n && a[i] > 0) {
                o[i] = 1;
            }
        }"""
        n = 8
        a = np.arange(n, dtype=np.int32)
        o = np.zeros(2 * n, np.int32)
        with pytest.raises(KernelLaunchError, match="out of bounds"):
            cl_run(any_engine_device, src, "f", [o, a, np.int32(n)],
                   (2 * n,), options=options)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-2**31, 2**31 - 1), min_size=1, max_size=16),
       st.integers(1, 1000))
def test_engines_agree_on_int_expression(values, divisor):
    """Differential property: the serial engine and both jit tiers
    compute the same expression over arbitrary int inputs."""
    import repro.ocl as cl
    from tests.conftest import run_cl_kernel

    src = """__kernel void f(__global int* o, __global const int* a,
                             int d) {
        int i = get_global_id(0);
        o[i] = (a[i] / d) * 3 + (a[i] % d) - (a[i] >> 2);
    }"""
    a = np.array(values, np.int32)
    results = []
    for engine in ("jit-interp", "jit-compiled", "serial"):
        device = cl.Device(cl.TESLA_C2050, engine)
        o = np.zeros(len(values), np.int32)
        run_cl_kernel(device, src, "f", [o, a.copy(), np.int32(divisor)],
                      (len(values),))
        results.append(o.copy())
    assert np.array_equal(results[0], results[1])
    assert np.array_equal(results[0], results[2])
