"""Launch-validation regressions: default local sizes, per-device build
state, and ``__constant`` argument checking."""

from dataclasses import replace

import numpy as np
import pytest

import repro.ocl as cl
from repro.clc import compile_source
from repro.ocl import QUADRO_FX380, TESLA_C2050
from repro.ocl.engines import base
from repro.ocl.engines.base import (BufferBinding, NDRange, check_args,
                                    launch_ndrange)
from repro.errors import (BuildProgramFailure, InvalidDevice,
                          InvalidKernelArgs, InvalidProgramExecutable,
                          InvalidValue, InvalidWorkDimension,
                          InvalidWorkGroupSize,
                          OutOfResources)

COPY_SRC = """
__kernel void copy(__global float* dst, __global const float* src) {
    int i = get_global_id(0);
    dst[i] = src[i];
}
"""


# -- NDRange default local size vs per-dimension caps -------------------------

class TestDefaultLocalSize:
    def test_default_respects_per_dimension_cap(self):
        # regression: the auto-picked local size used to consider only
        # max_work_group_size, choose 256, and then reject itself on a
        # device whose per-dimension cap is lower
        nd = NDRange((256,), max_work_group_size=1024,
                     max_work_item_sizes=(64, 64, 64))
        assert nd.local_size == (64,)

    def test_default_2d_respects_caps(self):
        nd = NDRange((128, 128), max_work_group_size=1024,
                     max_work_item_sizes=(8, 4, 1))
        assert nd.local_size[0] <= 8 and nd.local_size[1] <= 4
        assert all(g % l == 0
                   for g, l in zip(nd.global_size, nd.local_size))

    def test_default_unconstrained_unchanged(self):
        # the historical behaviour without per-dim caps is preserved
        nd = NDRange((1024,), max_work_group_size=1024)
        assert nd.local_size == (256,)

    def test_explicit_local_still_validated_against_caps(self):
        with pytest.raises(InvalidWorkGroupSize):
            NDRange((256,), (128,), max_work_group_size=1024,
                    max_work_item_sizes=(64, 64, 64))

    def test_device_capped_launch_runs(self, cl_run):
        # end-to-end: a device whose per-dim cap is below 256 can run a
        # default-local launch (this raised InvalidWorkGroupSize before)
        spec = replace(TESLA_C2050, max_work_item_sizes=(64, 64, 64))
        device = cl.Device(spec, "jit")
        dst = np.zeros(256, dtype=np.float32)
        src = np.arange(256, dtype=np.float32)
        cl_run(device, COPY_SRC, "copy", [dst, src], (256,))
        np.testing.assert_array_equal(dst, src)


class TestLaunchNDRangeMemo:
    """Engines get each launch's NDRange from one bounded memo, shared
    across engine instances (a device builds one per launch)."""

    def test_repeated_shape_reuses_one_ndrange(self):
        nd = launch_ndrange(256, None, TESLA_C2050)
        assert launch_ndrange((256,), None, TESLA_C2050) is nd

    def test_device_limits_are_part_of_the_key(self):
        capped = replace(TESLA_C2050, max_work_item_sizes=(64, 64, 64))
        assert launch_ndrange((256,), None, TESLA_C2050).local_size \
            == (256,)
        assert launch_ndrange((256,), None, capped).local_size == (64,)

    def test_invalid_shape_raises_on_every_launch(self):
        for _ in range(3):
            with pytest.raises(InvalidWorkGroupSize):
                launch_ndrange((256,), (96,), TESLA_C2050)

    def test_memo_is_bounded(self):
        for size in range(1, 200):
            launch_ndrange((size,), None, TESLA_C2050)
        assert len(base._NDRANGE_CACHE) <= 64


class TestLaunchSizes:
    """Each dimension of a launch size goes through ``operator.index``:
    NumPy integers launch like ints and share their memo entry, and
    anything else is a typed error, never a raw ``TypeError`` or a
    silently reshaped launch."""

    INC = ("__kernel void k(__global int* y) "
           "{ y[get_global_id(0)] += 1; }")

    @pytest.fixture()
    def launch(self, cl_run):
        def run(global_size, local_size=None):
            y = np.zeros(128, np.int32)
            event = cl_run(cl.Device(TESLA_C2050, "jit"), self.INC, "k",
                           [y], global_size, local_size)
            return event.counters.work_items, y
        return run

    @pytest.mark.parametrize("size", [np.int64(64), np.int32(64),
                                      (np.int64(64),), [64]])
    def test_numpy_and_sequence_sizes_run(self, launch, size):
        items, y = launch(size, np.int16(16))
        assert items == 64
        assert y.tolist() == [1] * 64 + [0] * 64

    @pytest.mark.parametrize("size", [np.int64(64), np.uint8(64), (64,),
                                      [np.int32(64)]])
    def test_numpy_sizes_share_the_memo_entry(self, size):
        assert launch_ndrange(size, None, TESLA_C2050) \
            is launch_ndrange(64, None, TESLA_C2050)

    @pytest.mark.parametrize("global_size,local_size", [
        (64.0, None), ("64", None), ((8, 8.5), None), (np.float64(64), None),
        (None, None), ((8, None), None), (64, 16.0), (64, "16"),
        ((8, 8), (4, 2.0))])
    def test_non_integer_sizes_raise_invalid_work_dimension(
            self, launch, global_size, local_size):
        with pytest.raises(InvalidWorkDimension):
            launch(global_size, local_size)


# -- per-device build state ---------------------------------------------------

FP64_SRC = """
#pragma OPENCL EXTENSION cl_khr_fp64 : enable
__kernel void dscale(__global double* y, double a) {
    int i = get_global_id(0);
    y[i] = y[i] * a;
}
"""


@pytest.fixture()
def two_gpus():
    tesla = cl.Device(TESLA_C2050, "jit")
    quadro = cl.Device(QUADRO_FX380, "jit")
    return cl.Context([tesla, quadro]), tesla, quadro


class TestPerDeviceBuild:
    def test_subset_build_tracks_devices(self, two_gpus):
        ctx, tesla, quadro = two_gpus
        program = cl.Program(ctx, FP64_SRC).build(devices=[tesla])
        assert program.built_for(tesla)
        assert not program.built_for(quadro)
        assert program.built_devices == [tesla]
        assert program.build_logs[tesla.name] == "build succeeded"
        assert quadro.name not in program.build_logs

    def test_enqueue_on_unbuilt_device_raises(self, two_gpus):
        # regression: this used to launch (and crash in the engine or
        # silently mis-run fp64 work on a non-fp64 device) instead of
        # raising the CL_INVALID_PROGRAM_EXECUTABLE mirror
        ctx, tesla, quadro = two_gpus
        program = cl.Program(ctx, FP64_SRC).build(devices=[tesla])
        kernel = program.create_kernel("dscale")
        y = cl.Buffer(ctx, cl.mem_flags.READ_WRITE, size=8 * 16)
        kernel.set_arg(0, y)
        kernel.set_arg(1, np.float64(2.0))
        queue = cl.CommandQueue(ctx, quadro)
        with pytest.raises(InvalidProgramExecutable) as exc:
            queue.enqueue_nd_range_kernel(kernel, (16,))
        assert "CL_INVALID_PROGRAM_EXECUTABLE" in str(exc.value)
        # the built device still works
        cl.CommandQueue(ctx, tesla).enqueue_nd_range_kernel(kernel, (16,))

    def test_failed_subset_build_keeps_other_device_built(self, two_gpus):
        ctx, tesla, quadro = two_gpus
        program = cl.Program(ctx, FP64_SRC).build(devices=[tesla])
        with pytest.raises(BuildProgramFailure, match="cl_khr_fp64"):
            program.build(devices=[quadro])
        assert program.built_for(tesla)          # unaffected
        assert not program.built_for(quadro)
        assert "cl_khr_fp64" in program.build_logs[quadro.name]
        assert program.build_logs[tesla.name] == "build succeeded"

    def test_failed_rebuild_resets_built_state(self, two_gpus):
        # regression: a failed rebuild used to leave the stale previous
        # executable behind a "built" flag
        ctx, tesla, _quadro = two_gpus
        source = """
        __kernel void k(__global float* y) {
        #ifdef GOOD
            y[get_global_id(0)] = 1.0f;
        #else
            y[get_global_id(0)] = no_such_symbol;
        #endif
        }
        """
        program = cl.Program(ctx, source).build("-DGOOD", devices=[tesla])
        assert program.built_for(tesla)
        with pytest.raises(BuildProgramFailure):
            program.build("", devices=[tesla])
        assert program.ir is None
        assert not program.built_for(tesla)
        assert program.built_devices == []
        with pytest.raises(InvalidValue, match="not built"):
            program.create_kernel("k")
        assert "no_such_symbol" in program.build_logs[tesla.name]

    def test_build_rejects_foreign_device(self, two_gpus):
        ctx, tesla, _quadro = two_gpus
        other = cl.Device(TESLA_C2050, "jit")   # not in this context
        with pytest.raises(InvalidDevice):
            cl.Program(ctx, COPY_SRC).build(devices=[other])


# -- __constant argument validation -------------------------------------------

CONST_SRC = """
__kernel void gather(__global float* dst, __constant float* table) {
    int i = get_global_id(0);
    dst[i] = table[i % 16];
}
"""


class TestConstantArgs:
    def test_small_constant_buffer_runs(self, cl_run, tesla_jit):
        dst = np.zeros(64, dtype=np.float32)
        table = np.arange(16, dtype=np.float32)
        cl_run(tesla_jit, CONST_SRC, "gather", [dst, table], (64,))
        np.testing.assert_array_equal(dst, np.tile(table, 4))

    def test_oversized_constant_buffer_rejected(self, tesla_jit):
        # regression: the device's CL_DEVICE_MAX_CONSTANT_BUFFER_SIZE
        # (64 KB) was not enforced at launch
        ctx = cl.Context([tesla_jit])
        queue = cl.CommandQueue(ctx, tesla_jit)
        program = cl.Program(ctx, CONST_SRC).build()
        kernel = program.create_kernel("gather")
        too_big = tesla_jit.max_constant_buffer_size + 4
        dst = cl.Buffer(ctx, cl.mem_flags.READ_WRITE, size=64 * 4)
        table = cl.Buffer(ctx, cl.mem_flags.READ_ONLY, size=too_big)
        kernel.set_arg(0, dst)
        kernel.set_arg(1, table)
        with pytest.raises(OutOfResources, match="constant"):
            queue.enqueue_nd_range_kernel(kernel, (64,))

    def test_wrong_address_space_binding_rejected(self):
        # regression: check_args ignored BufferBinding.space entirely
        ir = compile_source(CONST_SRC)
        fn = ir.kernels["gather"]
        dst = BufferBinding(np.zeros(64, dtype=np.float32), "global")
        table = BufferBinding(np.zeros(16, dtype=np.float32), "global")
        with pytest.raises(InvalidKernelArgs, match="__constant"):
            check_args(fn, [dst, table])

    def test_spec_aware_check_accepts_fitting_buffer(self):
        ir = compile_source(CONST_SRC)
        fn = ir.kernels["gather"]
        dst = BufferBinding(np.zeros(64, dtype=np.float32), "global")
        table = BufferBinding(np.zeros(16, dtype=np.float32), "constant")
        check_args(fn, [dst, table], TESLA_C2050)   # must not raise
