"""Differential tests of the compiled jit tier's affine accesses.

Each kernel runs on every ``ENGINE_LEGS`` leg.  Buffers must be equal
byte for byte on all three; the compiled tier's counters must equal
the interpreted tier's (the oracle) field for field, and the serial
engine's on the model-independent fields (it models one transaction
per access).  A spy on the generated code's affine helpers checks
which global and local accesses took the strided path and which fell
back to the gather.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.ocl as cl
from repro.errors import KernelLaunchError
from repro.ocl import TESLA_C2050, XEON_HOST
from repro.ocl.engines import jit as jit_mod
from tests.clc.test_opt_differential import _MODEL_INDEPENDENT
from tests.conftest import ENGINE_LEGS, run_cl_kernel

_LEGS = [leg.values[0] for leg in ENGINE_LEGS]


@pytest.fixture()
def affine_spy(monkeypatch):
    """Counts the affine global and local loads and stores the
    compiled tier took (a helper call that returned None fell back to
    the gather)."""
    taken = _took()

    def spy(kind, helper):
        def wrapped(*args):
            result = helper(*args)
            if result is not None:
                taken[kind] += 1
            return result
        return wrapped

    monkeypatch.setitem(jit_mod._EXEC_ENV, "_aff_ld",
                        spy("load", jit_mod._affine_load))
    monkeypatch.setitem(jit_mod._EXEC_ENV, "_aff_st",
                        spy("store", jit_mod._affine_store))
    monkeypatch.setitem(jit_mod._EXEC_ENV, "_loc_ld",
                        spy("local_load", jit_mod._local_load))
    monkeypatch.setitem(jit_mod._EXEC_ENV, "_loc_st",
                        spy("local_store", jit_mod._local_store))
    return taken


def _took(load=0, store=0, local_load=0, local_store=0):
    return {"load": load, "store": store, "local_load": local_load,
            "local_store": local_store}


def _run_legs(source, make_args, global_size, local_size, spy,
              spec=TESLA_C2050):
    """Buffers and counters per leg, checked against each other; returns
    the affine accesses the compiled leg took."""
    results = {}
    for engine in _LEGS:
        args = make_args()
        before = dict(spy)
        event = run_cl_kernel(cl.Device(spec, engine), source, "f",
                              args, global_size, local_size)
        buffers = [a.tobytes() for a in args if isinstance(a, np.ndarray)]
        taken = {k: spy[k] - before[k] for k in spy}
        results[engine] = (buffers, vars(event.counters), taken)
    serial, interp, compiled = (results[leg] for leg in _LEGS)
    assert serial[0] == interp[0] == compiled[0]
    assert compiled[1] == interp[1]
    assert {k: serial[1][k] for k in _MODEL_INDEPENDENT} == \
        {k: interp[1][k] for k in _MODEL_INDEPENDENT}
    assert interp[2] == _took()
    return compiled[2]


def _f32(n, seed=0):
    return np.random.default_rng(seed).random(n, dtype=np.float32)


class TestShapesThatQualify:
    @pytest.mark.parametrize("spec", [TESLA_C2050, XEON_HOST],
                             ids=["warp32", "warp1"])
    @pytest.mark.parametrize("global_size, local_size", [
        ((1,), None), ((33,), None), ((33,), (11,)), ((96,), (32,))],
        ids=["one-lane", "partial-warp", "odd-groups", "three-warps"])
    def test_1d_global_id(self, affine_spy, spec, global_size,
                          local_size):
        """``x[get_global_id(0)]`` in any 1-D launch, a cluster chunk's
        shape: one lane, a partial last warp, groups of 11."""
        src = """__kernel void f(__global float* out,
                                 __global const float* x) {
            out[get_global_id(0)] = x[get_global_id(0)] * 2.0f
                                    + get_local_id(0);
        }"""
        taken = _run_legs(src, lambda: [np.zeros(96, np.float32),
                                        _f32(96)],
                          global_size, local_size, affine_spy, spec)
        assert taken == _took(1, 1)

    def test_offset_index(self, affine_spy):
        src = """__kernel void f(__global float* out,
                                 __global const float* x, int u) {
            int i = get_global_id(0);
            out[i] = x[i + u] * 2.0f;
        }"""
        taken = _run_legs(src, lambda: [np.zeros(64, np.float32), _f32(80),
                                        np.int32(13)],
                          (64,), (16,), affine_spy)
        assert taken == _took(1, 1)

    def test_copied_index(self, affine_spy):
        src = """__kernel void f(__global int* out,
                                 __global const int* x) {
            int i = get_global_id(0);
            int j = i;
            j = j;
            out[j] = x[j] + j;
        }"""
        taken = _run_legs(src, lambda: [np.zeros(96, np.int32),
                                        np.arange(96, dtype=np.int32) * 3],
                          (96,), (32,), affine_spy)
        assert taken == _took(1, 1)

    def test_loop_carried_index(self, affine_spy):
        """Reduction's grid-stride loop: every iteration's load has a
        new offset and the same stride."""
        src = """__kernel void f(__global float* out,
                                 __global const float* x, int n) {
            int i = get_global_id(0);
            float acc = 0.0f;
            while (i < n) {
                acc += x[i];
                i += get_global_size(0);
            }
            out[get_global_id(0)] = acc;
        }"""
        taken = _run_legs(src, lambda: [np.zeros(64, np.float32),
                                        _f32(64 * 5), np.int32(64 * 5)],
                          (64,), (16,), affine_spy)
        assert taken == _took(5, 1)

    @pytest.mark.parametrize("local", [(4, 4), (8, 2), (16, 16)],
                             ids=["4x4", "8x2", "16x16"])
    def test_floyd_2d_loads(self, affine_spy, local):
        """Floyd's three loads are affine in 2-D; its store runs under
        the ``if`` mask and writes through the view where the mask is
        set."""
        src = """__kernel void f(__global int* d, int n, int k) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            int old = d[y * n + x];
            int via = d[y * n + k] + d[k * n + x];
            if (via < old) {
                d[y * n + x] = via;
            }
        }"""
        rng = np.random.default_rng(5)
        dist = rng.integers(1, 50, 16 * 16).astype(np.int32)
        taken = _run_legs(src, lambda: [dist.copy(), np.int32(16),
                                        np.int32(3)],
                          (16, 16), local, affine_spy)
        assert taken == _took(3, 1)

    def test_transpose_tiled_store(self, affine_spy):
        src = """__kernel void f(__global float* out,
                                 __global const float* in, int w, int h) {
            __local float tile[16];
            tile[get_local_id(1) * 4 + get_local_id(0)] =
                in[get_global_id(1) * w + get_global_id(0)];
            barrier(CLK_LOCAL_MEM_FENCE);
            int c = get_group_id(1) * 4 + get_local_id(0);
            int r = get_group_id(0) * 4 + get_local_id(1);
            out[r * h + c] = tile[get_local_id(0) * 4 + get_local_id(1)];
        }"""
        taken = _run_legs(src, lambda: [np.zeros(8 * 12, np.float32),
                                        _f32(8 * 12), np.int32(8),
                                        np.int32(12)],
                          (8, 12), (4, 4), affine_spy)
        assert taken == _took(1, 1, local_load=1, local_store=1)

    def test_uniform_index(self, affine_spy):
        src = """__kernel void f(__global float* out,
                                 __global const float* x, int u) {
            out[get_global_id(0)] = x[u] + x[3];
        }"""
        taken = _run_legs(src, lambda: [np.zeros(64, np.float32), _f32(8),
                                        np.int32(6)],
                          (64,), (32,), affine_spy)
        assert taken == _took(2, 1)

    def test_negative_stride(self, affine_spy):
        src = """__kernel void f(__global float* out,
                                 __global const float* x, int n) {
            int i = get_global_id(0);
            out[n - 1 - i] = x[-i + (n - 1)];
        }"""
        taken = _run_legs(src, lambda: [np.zeros(64, np.float32), _f32(64),
                                        np.int32(64)],
                          (64,), (16,), affine_spy)
        assert taken == _took(1, 1)

    @pytest.mark.parametrize("spec", [TESLA_C2050, XEON_HOST],
                             ids=["warp32", "warp1"])
    def test_transpose_paper_tiles(self, affine_spy, spec):
        """The paper's transpose: 16x16 tiles, the tile stored row by
        row and read column by column through a strided view."""
        src = """__kernel void f(__global float* out,
                                 __global const float* in, int w, int h) {
            __local float tile[256];
            int lx = get_local_id(0);
            int ly = get_local_id(1);
            tile[ly * 16 + lx] = in[get_global_id(1) * w + get_global_id(0)];
            barrier(CLK_LOCAL_MEM_FENCE);
            int ox = get_group_id(1) * 16 + lx;
            int oy = get_group_id(0) * 16 + ly;
            out[oy * h + ox] = tile[lx * 16 + ly];
        }"""
        taken = _run_legs(src, lambda: [np.zeros(32 * 48, np.float32),
                                        _f32(32 * 48), np.int32(32),
                                        np.int32(48)],
                          (32, 48), (16, 16), affine_spy, spec)
        assert taken == _took(1, 1, local_load=1, local_store=1)

    def test_reduction_tree(self, affine_spy):
        """Reduction's ``sdata[lid] = total`` at a full mask, then the
        tree: ``sdata[lid]`` read and written under ``lid < s``.  Its
        ``sdata[lid + s]`` leaves the array on inactive lanes and
        gathers; so does the store to ``out[group]``, which every lane
        of a group shares."""
        src = """__kernel void f(__global float* out,
                                 __global const float* x) {
            __local float sdata[16];
            int lid = get_local_id(0);
            sdata[lid] = x[get_global_id(0)];
            barrier(CLK_LOCAL_MEM_FENCE);
            for (int s = 8; s > 0; s >>= 1) {
                if (lid < s) {
                    sdata[lid] += sdata[lid + s];
                }
                barrier(CLK_LOCAL_MEM_FENCE);
            }
            if (lid == 0) {
                out[get_group_id(0)] = sdata[0];
            }
        }"""
        taken = _run_legs(src, lambda: [np.zeros(4, np.float32), _f32(64)],
                          (64,), (16,), affine_spy)
        assert taken == _took(1, 0, local_load=5, local_store=5)

    @pytest.mark.parametrize("spec", [TESLA_C2050, XEON_HOST],
                             ids=["warp32", "warp1"])
    def test_masked_local_store_and_uniform_load(self, affine_spy, spec):
        """``if (lid < 4) t[lid] = ...`` writes the active lanes only,
        and ``t[0]`` gives every lane of a group one element."""
        src = """__kernel void f(__global float* out,
                                 __global const float* x) {
            __local float t[8];
            int lid = get_local_id(0);
            t[lid] = 1.0f;
            if (lid < 4) {
                t[lid] = x[get_global_id(0)] + 2.0f;
            }
            barrier(CLK_LOCAL_MEM_FENCE);
            out[get_global_id(0)] = t[0] + t[lid];
        }"""
        taken = _run_legs(src, lambda: [np.zeros(48, np.float32), _f32(48)],
                          (48,), (8,), affine_spy, spec)
        assert taken == _took(1, 1, local_load=2, local_store=2)

    @pytest.mark.parametrize("spec", [TESLA_C2050, XEON_HOST],
                             ids=["warp32", "warp1"])
    @pytest.mark.parametrize("local", [(16, 16), (8, 4), (4, 16)],
                             ids=["16x16", "8x4", "4x16"])
    def test_masked_global_store(self, affine_spy, spec, local):
        """Floyd's store under its branch, at tile shapes whose warps
        hold one, two or several tile rows."""
        src = """__kernel void f(__global int* d, int n, int k) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            int via = d[y * n + k] + d[k * n + x];
            if (via < d[y * n + x]) {
                d[y * n + x] = via;
            }
        }"""
        dist = np.random.default_rng(8).integers(1, 60, 32 * 32) \
            .astype(np.int32)
        taken = _run_legs(src, lambda: [dist.copy(), np.int32(32),
                                        np.int32(7)],
                          (32, 32), local, affine_spy, spec)
        assert taken == _took(3, 1)

    def test_masked_load_with_keys_in_two_runs(self, affine_spy):
        """Every lane of a 4x8 group reads its own segment along x and
        the same ones again along y, so one warp meets each key in
        several runs: the view still loads, and the count falls back
        to the active lanes."""
        src = """__kernel void f(__global float* out,
                                 __global const float* x) {
            int lx = get_local_id(0);
            float v = 0.0f;
            if (get_global_id(1) % 3 != 1) {
                v = x[lx * 64 + get_group_id(0)];
            }
            out[get_global_id(1) * 8 + get_global_id(0)] = v;
        }"""
        taken = _run_legs(src, lambda: [np.zeros(64, np.float32),
                                        _f32(4 * 64)],
                          (8, 8), (4, 8), affine_spy)
        assert taken == _took(1, 1)

    def test_all_lanes_in_one_loop_exit_stay_affine(self, affine_spy):
        """When every lane leaves the loop in the same iteration, each
        took every update, and ``i`` keeps its flag."""
        src = """__kernel void f(__global float* out,
                                 __global const float* x, int m) {
            int gid = get_global_id(0);
            int i = gid;
            for (int k = 0; k < 8; k++) {
                if (k >= m) break;
                i += 2;
            }
            out[gid] = x[i];
        }"""
        taken = _run_legs(src, lambda: [np.zeros(64, np.float32), _f32(70),
                                        np.int32(3)],
                          (64,), (16,), affine_spy)
        assert taken == _took(1, 1)


class TestShapesThatFallBack:
    def test_index_updated_under_a_branch(self, affine_spy):
        """``i`` is affine before the ``if`` and not after it: the
        masked move clears its flag.  Lane 5 is none of the probed
        lanes, so the range check alone would not notice."""
        src = """__kernel void f(__global float* out,
                                 __global const float* x) {
            int gid = get_global_id(0);
            int i = gid;
            if (gid == 5) i += 1;
            out[gid] = x[i];
        }"""
        taken = _run_legs(src, lambda: [np.zeros(64, np.float32), _f32(65)],
                          (64,), (16,), affine_spy)
        assert taken == _took(0, 1)

    def test_index_diverged_by_an_early_loop_exit(self, affine_spy):
        """Only lane 5 stays in the loop past its first test, so its
        updates run under a partial mask."""
        src = """__kernel void f(__global float* out,
                                 __global const float* x) {
            int gid = get_global_id(0);
            int i = gid;
            int stop = 0;
            if (gid == 5) stop = 3;
            for (int k = 0; k < 4; k++) {
                if (k >= stop) break;
                i += 1;
            }
            out[gid] = x[i];
        }"""
        taken = _run_legs(src, lambda: [np.zeros(64, np.float32), _f32(68)],
                          (64,), (16,), affine_spy)
        assert taken == _took(0, 1)

    def test_wrapping_index_in_range(self, affine_spy):
        """``uchar`` arithmetic wraps at lane 4: every lane is in bounds,
        but the affine extrapolation of the probed lanes is not."""
        src = """__kernel void f(__global float* out,
                                 __global const float* x) {
            uchar j = get_global_id(0) * 64;
            out[get_global_id(0)] = x[j];
        }"""
        taken = _run_legs(src, lambda: [np.zeros(32, np.float32),
                                        _f32(256)],
                          (32,), (8,), affine_spy)
        assert taken == _took(0, 1)

    def test_buffer_past_the_index_type(self, affine_spy):
        """A ``uchar`` index into a buffer of more than 256 elements
        cannot prove the absence of wraparound."""
        src = """__kernel void f(__global float* out,
                                 __global const float* x) {
            uchar j = get_global_id(0);
            out[get_global_id(0)] = x[j];
        }"""
        taken = _run_legs(src, lambda: [np.zeros(64, np.float32),
                                        _f32(300)],
                          (64,), (16,), affine_spy)
        assert taken == _took(0, 1)

    def test_index_narrowed_then_widened(self, affine_spy):
        """``int i = j`` with ``uchar j``: lane 7's ``j`` wrapped to 24,
        and the ``int`` buffer bound no longer rules that out, so the
        narrow cast on the way keeps ``i`` off the strided path."""
        src = """__kernel void f(__global float* out,
                                 __global const float* x) {
            uchar j = get_global_id(0) * 40;
            int i = j;
            out[get_global_id(0)] = x[i];
        }"""
        taken = _run_legs(src, lambda: [np.zeros(8, np.float32),
                                        _f32(300)],
                          (8,), (8,), affine_spy)
        assert taken == _took(0, 1)

    def test_wrapping_int_index_raises_everywhere(self):
        """``gid * 0x40000000`` wraps through negative values: the
        range check fails and the gather raises as the interpreter
        does."""
        src = """__kernel void f(__global float* out,
                                 __global const float* x) {
            int i = get_global_id(0) * 0x40000000;
            out[get_global_id(0)] = x[i];
        }"""
        messages = set()
        for engine in ("jit-interp", "jit-compiled"):
            with pytest.raises(KernelLaunchError) as exc:
                run_cl_kernel(cl.Device(TESLA_C2050, engine), src, "f",
                              [np.zeros(8, np.float32), _f32(8)], (8,),
                              (8,))
            messages.add(str(exc.value))
        assert len(messages) == 1

    @pytest.mark.parametrize("short", ["load", "store"])
    def test_out_of_bounds_corner(self, short):
        """The last lane of a 2-D launch is one element past the end:
        both tiers raise the same located error."""
        src = """__kernel void f(__global float* out,
                                 __global const float* x, int w) {
            int i = get_global_id(1) * w + get_global_id(0);
            out[i] = x[i];
        }"""
        messages = set()
        for engine in ("jit-interp", "jit-compiled"):
            out = np.zeros(63 if short == "store" else 64, np.float32)
            x = _f32(63 if short == "load" else 64)
            with pytest.raises(KernelLaunchError) as exc:
                run_cl_kernel(cl.Device(TESLA_C2050, engine), src, "f",
                              [out, x, np.int32(8)], (8, 8), (4, 4))
            messages.add(str(exc.value))
        (message,) = messages
        assert "work-item 63 accessed" in message

    def test_store_to_one_uniform_element(self, affine_spy):
        """Every lane stores to ``out[u]``: not injective, so the
        gather's last-lane-wins result stands."""
        src = """__kernel void f(__global float* out,
                                 __global const float* x, int u) {
            out[u] = x[get_global_id(0)];
        }"""
        taken = _run_legs(src, lambda: [np.zeros(4, np.float32), _f32(64),
                                        np.int32(2)],
                          (64,), (16,), affine_spy)
        assert taken == _took(1, 0)

    def test_non_injective_local_stores(self, affine_spy):
        """``t[lid / 2]`` is no affine index; ``t[get_local_id(1)]``
        is, but every lane of a row shares its element.  Both gather,
        and the last lane wins as in the interpreter."""
        src = """__kernel void f(__global float* out,
                                 __global const float* x) {
            __local float t[8];
            __local float u[8];
            int lid = get_local_id(1) * 4 + get_local_id(0);
            t[lid / 2] = x[get_global_id(1) * 8 + get_global_id(0)];
            u[get_local_id(1)] = (float)lid;
            barrier(CLK_LOCAL_MEM_FENCE);
            out[get_global_id(1) * 8 + get_global_id(0)] =
                t[get_local_id(1)] + u[get_local_id(0)];
        }"""
        taken = _run_legs(src, lambda: [np.zeros(64, np.float32), _f32(64)],
                          (8, 8), (4, 4), affine_spy)
        assert taken == _took(1, 1, local_load=2)

    def test_read_past_the_tile_on_inactive_lanes(self, affine_spy):
        """``t[lid + 4]`` under ``lid < 4``: the active lanes stay in
        the tile, the inactive ones leave it, so the view cannot cover
        every lane and the read gathers.  ``t[lid]`` stays in range."""
        src = """__kernel void f(__global float* out,
                                 __global const float* x) {
            __local float t[8];
            int lid = get_local_id(0);
            t[lid] = x[get_global_id(0)];
            barrier(CLK_LOCAL_MEM_FENCE);
            float v = 0.0f;
            if (lid < 4) {
                v = t[lid] + t[lid + 4];
            }
            out[get_global_id(0)] = v;
        }"""
        taken = _run_legs(src, lambda: [np.zeros(32, np.float32), _f32(32)],
                          (32,), (8,), affine_spy)
        assert taken == _took(1, 1, local_load=1, local_store=1)

    def test_local_index_with_a_cleared_flag(self, affine_spy):
        """``i`` is moved under a branch, so its flag is cleared and
        both local accesses gather."""
        src = """__kernel void f(__global float* out,
                                 __global const float* x) {
            __local float t[16];
            int lid = get_local_id(0);
            int i = lid;
            if (lid == 3) i += 8;
            t[i] = x[get_global_id(0)];
            barrier(CLK_LOCAL_MEM_FENCE);
            out[get_global_id(0)] = t[i];
        }"""
        taken = _run_legs(src, lambda: [np.zeros(32, np.float32), _f32(32)],
                          (32,), (8,), affine_spy)
        assert taken == _took(1, 1)

    def test_local_memory_in_a_3d_launch(self, affine_spy):
        src = """__kernel void f(__global float* out,
                                 __global const float* x) {
            __local float t[8];
            int lid = (get_local_id(2) * 2 + get_local_id(1)) * 2
                      + get_local_id(0);
            int i = (get_global_id(2) * 4 + get_global_id(1)) * 4
                    + get_global_id(0);
            t[lid] = x[i];
            barrier(CLK_LOCAL_MEM_FENCE);
            out[i] = t[7 - lid];
        }"""
        taken = _run_legs(src, lambda: [np.zeros(64, np.float32), _f32(64)],
                          (4, 4, 4), (2, 2, 2), affine_spy)
        assert taken == _took()

    def test_3d_launch(self, affine_spy):
        src = """__kernel void f(__global float* out,
                                 __global const float* x) {
            int i = (get_global_id(2) * 4 + get_global_id(1)) * 4
                    + get_global_id(0);
            out[i] = x[i];
        }"""
        taken = _run_legs(src, lambda: [np.zeros(64, np.float32), _f32(64)],
                          (4, 4, 4), (2, 2, 2), affine_spy)
        assert taken == _took(0, 0)
