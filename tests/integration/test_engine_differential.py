"""Differential testing: the serial engine and both tiers of the jit
engine must agree exactly on the real benchmark kernels, and randomized
elementwise kernels generated through the HPL DSL must match a NumPy
oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ocl as cl
from repro.benchsuite.table1 import (ep_opencl, reduction_opencl,
                                     spmv_opencl, transpose_opencl)
from tests.conftest import run_cl_kernel

ENGINES = ("serial", "jit-interp", "jit-compiled")


def run_on(engine, source, name, args, gsize, lsize=None):
    device = cl.Device(cl.TESLA_C2050, engine)
    copies = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
    run_cl_kernel(device, source, name, copies, gsize, lsize)
    return [a for a in copies if isinstance(a, np.ndarray)]


def run_everywhere(source, name, args, gsize, lsize=None):
    """Output arrays of the first engine, after checking that every
    engine produced the same bits."""
    ref, *others = [run_on(engine, source, name, args, gsize, lsize)
                    for engine in ENGINES]
    for engine, outs in zip(ENGINES[1:], others):
        for want, got in zip(ref, outs):
            assert got.tobytes() == want.tobytes(), engine
    return ref


class TestBenchmarkKernelsAgree:
    def test_spmv_kernel(self, rng):
        from repro.benchsuite.datasets import random_csr
        n = 48
        values, cols, rowptr = random_csr(n, per_row=6)
        x = rng.random(n).astype(np.float32)
        out = np.zeros(n, np.float32)
        run_everywhere(spmv_opencl.KERNEL_SOURCE, "spmv",
                       [values, x, cols, rowptr, out], (n * 8,), (8,))

    def test_transpose_kernel(self, rng):
        n = 32
        src = rng.random((n, n)).astype(np.float32)
        out = np.zeros_like(src)
        outs = run_everywhere(transpose_opencl.KERNEL_SOURCE,
                              "matrixTranspose",
                              [out, src, np.int32(n), np.int32(n)],
                              (n, n), (16, 16))
        assert np.array_equal(outs[0], src.T)

    def test_reduction_kernel(self, rng):
        n = 4096
        data = rng.random(n).astype(np.float32)
        out = np.zeros(8, np.float32)
        run_everywhere(reduction_opencl.KERNEL_SOURCE, "reduce",
                       [data, out, ("local", 64 * 4), np.int32(n)],
                       (8 * 64,), (64,))

    def test_ep_kernel_small(self):
        sx = np.zeros(8, np.float64)
        sy = np.zeros(8, np.float64)
        q = np.zeros(80, np.int32)
        run_everywhere(ep_opencl.KERNEL_SOURCE, "ep",
                       [sx, sy, q, np.int64(64), 271828183.0, 1220703125.0],
                       (8,), (4,))


# -- randomized elementwise kernels through the HPL DSL -----------------------

_UNARY_OPS = ["neg", "sqrt", "fabs"]
_BINARY_OPS = ["+", "-", "*", "min", "max"]


def _np_apply(op, *vals):
    table = {
        "+": lambda a, b: a + b, "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "min": np.minimum, "max": np.maximum,
        "neg": lambda a: -a, "sqrt": np.sqrt, "fabs": np.abs,
    }
    return table[op](*vals)


@st.composite
def expr_programs(draw):
    """A random sequence of elementwise float operations."""
    n_ops = draw(st.integers(1, 6))
    ops = []
    for _ in range(n_ops):
        if draw(st.booleans()):
            ops.append(("bin", draw(st.sampled_from(_BINARY_OPS)),
                        draw(st.floats(-4, 4).map(lambda f: round(f, 3)))))
        else:
            ops.append(("un", draw(st.sampled_from(_UNARY_OPS)), None))
    return ops


@settings(max_examples=30, deadline=None)
@given(program=expr_programs(),
       values=st.lists(st.floats(0.1, 10), min_size=1, max_size=40))
def test_random_dsl_kernels_match_numpy_oracle(program, values):
    """Build an HPL kernel from a random op sequence; its result must
    match NumPy applying the same float32 operations."""
    import repro.hpl as hpl
    from repro.hpl import Array, fabs, float_, fmax, fmin, idx, sqrt

    hpl.reset_runtime()

    def randk(out, src):
        acc = src[idx]
        for kind, op, const in program:
            if kind == "bin":
                if op == "min":
                    acc = fmin(acc, const)
                elif op == "max":
                    acc = fmax(acc, const)
                elif op == "+":
                    acc = acc + const
                elif op == "-":
                    acc = acc - const
                else:
                    acc = acc * const
            else:
                if op == "neg":
                    acc = -acc
                elif op == "sqrt":
                    acc = sqrt(fabs(acc))
                else:
                    acc = fabs(acc)
        out[idx] = acc

    data = np.array(values, dtype=np.float32)
    src = Array(float_, len(data), data=data.copy())
    out = Array(float_, len(data))
    hpl.eval(randk)(out, src)

    expected = data.astype(np.float32)
    for kind, op, const in program:
        if kind == "bin":
            expected = _np_apply(op, expected,
                                 np.float32(const)).astype(np.float32)
        elif op == "sqrt":
            expected = np.sqrt(np.abs(expected)).astype(np.float32)
        else:
            expected = _np_apply(op, expected).astype(np.float32)

    assert np.allclose(out.read(), expected, rtol=1e-5, atol=1e-6,
                       equal_nan=True)
