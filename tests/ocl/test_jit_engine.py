"""The jit engine's two tiers: bit identity across the tier boundary,
when code generation runs, and typed codegen failures."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.ocl as cl
from repro import prof, trace
from repro.clc.lower import (L_A, L_AUX, L_DST, OP_LD, OP_MOV, OP_WIQ,
                              linked_program)
from repro.errors import KernelLaunchError
from repro.ocl import TESLA_C2050, XEON_HOST
from repro.ocl.engines import base as engines_base
from repro.ocl.engines import jit as jit_mod
from repro.ocl.engines.base import launch_ndrange
from tests.conftest import run_cl_kernel

# loop + divergent branch + global/local traffic + barrier + atomic:
# one kernel that exercises every emission path worth comparing
KERNEL = """__kernel void mix(__global float* out,
                  __global const float* x,
                  __global int* hist, int n)
{
    int gid = get_global_id(0);
    int lid = get_local_id(0);
    __local float tile[16];
    tile[lid] = x[gid];
    barrier(CLK_LOCAL_MEM_FENCE);
    float acc = 0.0f;
    for (int k = 0; k < 8; k++) {
        acc = acc + tile[(lid + k) % 16] * 0.5f;
    }
    if (gid % 3 == 0) {
        acc = acc * 2.0f;
    } else {
        acc = acc - 1.0f;
    }
    atomic_add(&hist[gid % 4], 1);
    out[gid] = acc + x[(gid * 7) % n];
}
"""
N = 64


def _inputs():
    rng = np.random.default_rng(11)
    x = rng.uniform(-2, 2, N).astype(np.float32)
    return [np.zeros(N, np.float32), x, np.zeros(4, np.int32), np.int32(N)]


def _run(engine: str, options: str = "-O2"):
    device = cl.Device(TESLA_C2050, engine)
    out, x, hist, n = _inputs()
    event = run_cl_kernel(device, KERNEL, "mix", [out, x, hist, n],
                          (N,), (16,), options=options)
    return out, hist, event.counters


class _Launcher:
    """One built program on a ``jit`` device, launched on demand with
    fresh buffers of the same inputs."""

    def __init__(self, options: str = "-O2") -> None:
        device = cl.Device(TESLA_C2050, "jit")
        self.ctx = cl.Context([device])
        self.queue = cl.CommandQueue(self.ctx, device)
        self.program = cl.Program(self.ctx, KERNEL).build(options)
        self.kernel = self.program.create_kernel("mix")

    def launch(self):
        args = _inputs()
        buffers = []
        for i, arg in enumerate(args):
            if isinstance(arg, np.ndarray):
                buf = cl.Buffer(self.ctx, cl.mem_flags.READ_WRITE,
                                size=arg.nbytes)
                self.queue.enqueue_write_buffer(buf, arg)
                buffers.append((buf, arg))
                arg = buf
            self.kernel.set_arg(i, arg)
        event = self.queue.enqueue_nd_range_kernel(self.kernel, (N,), (16,))
        for buf, host in buffers:
            self.queue.enqueue_read_buffer(buf, host)
        self.queue.finish()
        return args[0], args[2], event.counters


def _profiled(fn):
    """``(fn(), [per-line dict, per-branch dict])`` of its one launch."""
    was_enabled = prof.is_enabled()
    prof.enable()
    try:
        prof.reset()
        result = fn()
        (profile,) = prof.get_profiler().drain()
    finally:
        if not was_enabled:
            prof.disable()
    return result, [{ln: rec.to_dict() for ln, rec in profile.lines.items()},
                    {ln: b.to_dict() for ln, b in profile.branches.items()}]


def _spans(fn):
    tracer = trace.enable(fresh=True)
    try:
        fn()
    finally:
        trace.disable()
    return tracer.spans()


@pytest.fixture(autouse=True)
def _fresh(fresh_runtime):
    yield


@pytest.fixture()
def codegen_calls(monkeypatch):
    """The list that gets one entry per ``generate_module`` call."""
    calls = []
    original = jit_mod.generate_module
    monkeypatch.setattr(jit_mod, "generate_module",
                        lambda pbc: calls.append(pbc) or original(pbc))
    return calls


class TestBitIdentity:
    """The compiled tier against the lock-step interpreter (the
    ``vector`` path the ids name)."""

    @pytest.mark.parametrize("options", ["-cl-opt-disable", "-O1", "-O2"])
    def test_buffers_and_counters_match_vector(self, options):
        v_out, v_hist, v_c = _run("jit-interp", options)
        j_out, j_hist, j_c = _run("jit-compiled", options)
        assert j_out.tobytes() == v_out.tobytes()
        assert j_hist.tobytes() == v_hist.tobytes()
        assert vars(j_c) == vars(v_c)

    def test_per_line_profiles_match_vector(self):
        _r, v_profile = _profiled(lambda: _run("jit-interp"))
        _r, j_profile = _profiled(lambda: _run("jit-compiled"))
        assert j_profile == v_profile

    @pytest.mark.parametrize("options", ["-cl-opt-disable", "-O2"])
    def test_second_launch_matches_the_first(self, options):
        """One program launched twice on the default engine crosses the
        tier boundary; buffers, counters and per-line profiles stay
        bit-identical."""
        launcher = _Launcher(options)
        tracer = trace.enable(fresh=True)
        try:
            first, p_first = _profiled(launcher.launch)
            second, p_second = _profiled(launcher.launch)
        finally:
            trace.disable()
        assert [s.attrs["tier"] for s in tracer.spans()
                if s.name == "engine_run"] == ["interp", "compiled"]
        assert second[0].tobytes() == first[0].tobytes()
        assert second[1].tobytes() == first[1].tobytes()
        assert vars(second[2]) == vars(first[2])
        assert p_second == p_first


class TestCodegenEngagement:
    def test_single_launch_never_generates_code(self, codegen_calls):
        """A kernel launched once stays in the interpreter: no codegen,
        no ``compile()``, nothing memoized."""
        launcher = _Launcher()
        launcher.launch()
        assert codegen_calls == []
        assert getattr(launcher.program.ir.bytecode, "_jit", None) is None

    def test_o2_run_uses_generated_code(self, codegen_calls):
        """From the second launch on, the program's bytecode object
        holds compiled callables, generated once."""
        launcher = _Launcher("-O2")
        for _ in range(3):
            launcher.launch()
        assert len(codegen_calls) == 1
        assert callable(launcher.program.ir.bytecode._jit["mix"])

    def test_o0_runs_generated_code(self):
        """-O0 programs are lowered to unoptimized bytecode, so the jit
        engine compiles and runs them like any other level, with
        output identical to the interpreter's."""
        launcher = _Launcher("-cl-opt-disable")
        assert launcher.program.ir.opt_level == 0
        launcher.launch()
        launcher.launch()
        assert callable(launcher.program.ir.bytecode._jit["mix"])
        v_out, _h, v_c = _run("jit-interp", "-cl-opt-disable")
        j_out, _h, j_c = _run("jit-compiled", "-cl-opt-disable")
        assert j_out.tobytes() == v_out.tobytes()
        assert vars(j_c) == vars(v_c)

    def test_codegen_failure_raises_kernel_launch_error(self, monkeypatch):
        """A codegen or ``compile()`` failure is a typed launch error
        with the cause chained, never a silent fallback."""
        monkeypatch.setattr(jit_mod, "generate_module",
                            lambda pbc: (_ for _ in ()).throw(
                                RuntimeError("boom")))
        _run("jit")                     # interpreted: codegen not reached
        with pytest.raises(KernelLaunchError, match="boom") as exc:
            _run("jit-compiled")
        assert isinstance(exc.value.__cause__, RuntimeError)

    def test_engine_run_span_records_engine(self):
        spans = _spans(lambda: _run("jit"))
        runs = [s for s in spans if s.name == "engine_run"]
        assert runs and all(s.attrs["engine"] == "jit" for s in runs)
        assert [s.attrs["tier"] for s in runs] == ["interp"]

    def test_tier_up_opens_a_jit_compile_span(self):
        launcher = _Launcher()
        spans = _spans(lambda: [launcher.launch() for _ in range(3)])
        runs = [s for s in spans if s.name == "engine_run"]
        (compile_span,) = [s for s in spans if s.name == "jit_compile"]
        assert [s.attrs["tier"] for s in runs] == \
            ["interp", "compiled", "compiled"]
        assert compile_span.parent_id == runs[1].span_id


class TestContiguousPath:
    """Global accesses indexed by ``get_global_id(0)``, the simplest
    affine index: the compiled tier's strided path runs only at a full
    mask with every lane in bounds, and matches the interpreter
    everywhere (tests/ocl/test_affine_access.py covers the other
    affine shapes)."""

    COPY = """__kernel void f(__global float* out,
                              __global const float* x) {
        out[get_global_id(0)] = x[get_global_id(0)] * 2.0f;
    }"""

    @pytest.mark.parametrize("short", ["load", "store"])
    def test_one_item_past_the_buffer_raises_the_same_error(self, short):
        """The range check fails and the general path reports the
        first bad lane, as the interpreter does."""
        messages = []
        for engine in ("jit-interp", "jit-compiled"):
            out = np.zeros(16 if short == "store" else 17, np.float32)
            x = np.ones(16 if short == "load" else 17, np.float32)
            with pytest.raises(KernelLaunchError) as exc:
                run_cl_kernel(cl.Device(TESLA_C2050, engine), self.COPY,
                              "f", [out, x], (17,))
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert "work-item 16 accessed" in messages[0]

    def test_2d_launch_matches_the_interpreter(self):
        """In a 2-D launch lane != get_global_id(0): the strided path
        must read element ``get_global_id(0)``, not the lane's."""
        src = """__kernel void f(__global int* out,
                                 __global const int* x) {
            out[get_global_id(0)] = x[get_global_id(0)] * 10
                                    + get_global_id(1);
        }"""
        results = []
        for engine in ("jit-interp", "jit-compiled"):
            out = np.zeros(32, np.int32)
            x = np.arange(32, dtype=np.int32)
            event = run_cl_kernel(cl.Device(TESLA_C2050, engine), src, "f",
                                  [out, x], (8, 4), (4, 2))
            results.append((out, vars(event.counters)))
        assert results[0][0].tobytes() == results[1][0].tobytes()
        assert results[0][1] == results[1][1]
        assert not results[1][0][8:].any()   # get_global_id(0) < 8

    def test_masked_lanes_take_the_general_path(self):
        """Under a divergent branch only the active lanes load, store
        and count: 40 of 128 lanes touch two warps' segments, not
        four, and the other 88 elements keep their values."""
        src = """__kernel void f(__global float* out,
                                 __global const float* x) {
            if (get_global_id(0) < 40) {
                out[get_global_id(0)] = x[get_global_id(0)] + 1.0f;
            }
        }"""
        results = []
        for engine in ("jit-interp", "jit-compiled"):
            out = np.full(128, -1.0, np.float32)
            x = np.arange(128, dtype=np.float32)
            event = run_cl_kernel(cl.Device(TESLA_C2050, engine), src, "f",
                                  [out, x], (128,), (64,))
            results.append((out, vars(event.counters)))
        assert results[0][0].tobytes() == results[1][0].tobytes()
        assert results[0][1] == results[1][1]
        assert np.all(results[1][0][40:] == -1.0)
        assert results[1][1]["global_store_transactions"] == 2

    def test_def_scan_sorts_static_flagged_and_plain_registers(self):
        """The def scan: the id query's register is static with the
        form of ``idx``, a variable copied from it is flagged (a move
        may blend lanes), and a query register some other instruction
        also writes is not affine at all."""
        src = """__kernel void f(__global float* out) {
            int i = get_global_id(0);
            out[i] = 1.0f;
            out[get_global_id(0)] = 2.0f;
        }"""
        ctx = cl.Context([cl.Device(TESLA_C2050, "jit")])
        program = cl.Program(ctx, src).build()
        code, kbc = linked_program(program.ir.bytecode)["f"]
        (wiq,) = [ins for ins in code if ins[0] == OP_WIQ]
        (mov,) = [ins for ins in code
                  if ins[0] == OP_MOV and ins[L_A] == wiq[L_DST]]
        scan = jit_mod._AffineScan(code, kbc)
        assert scan.static == {wiq[L_DST]}
        assert scan.ids == {wiq[L_DST]: "idx"}
        assert scan.flagged == {mov[L_DST]}
        assert scan.access(wiq[L_DST])[0] is None
        assert scan.access(mov[L_DST])[0] == f"V[{mov[L_DST]}]"
        clobber = (OP_LD,) + wiq[1:]
        scan = jit_mod._AffineScan(code + [clobber], kbc)
        assert not (scan.static | scan.flagged)
        assert scan.access(wiq[L_DST]) is None

    @pytest.mark.parametrize("engine", ["jit-interp", "jit-compiled"])
    def test_1d_launch_builds_only_the_ids_it_reads(self, engine,
                                                    monkeypatch):
        monkeypatch.setattr(engines_base, "_NDRANGE_CACHE", {})
        out = np.zeros(64, np.float32)
        x = np.arange(64, dtype=np.float32)
        run_cl_kernel(cl.Device(TESLA_C2050, engine), self.COPY, "f",
                      [out, x], (64,), (16,))
        assert np.array_equal(out, x * 2)
        ids = launch_ndrange((64,), (16,), TESLA_C2050).lane_ids()
        assert not {"lidy", "lidz", "gidy", "gidz"} & set(ids)
        if engine == "jit-compiled":
            # the strided path reads neither lanes nor warps, and the
            # id query feeds only affine accesses: no id is built
            assert set(ids) == set()


class TestLaneIds:
    """Lane-id arrays have the width sema gives an id query (``int``),
    so a launch reads the memoized arrays without converting them."""

    #: every lane-id key a launch can read, the warp ids aside
    KEYS = ("idx", "idy", "idz", "lidx", "lidy", "lidz", "gidx", "gidy",
            "gidz", "group_flat", "lane")

    @staticmethod
    def _eager_ids(nd) -> dict:
        """The lane ids as every launch built them before they were
        built on first read: all eleven in int64 from the flat lane,
        then narrowed to the lane-id dtype."""
        lane = np.arange(nd.total_items, dtype=np.int64)
        ipg = nd.items_per_group
        group = lane // ipg
        within = lane % ipg
        lx_, ly_, lz_ = (nd.local_size + (1, 1, 1))[:3]
        ngx, ngy, _ngz = (nd.num_groups + (1, 1, 1))[:3]
        lx = within % lx_
        ly = (within // lx_) % ly_
        lz = within // (lx_ * ly_)
        gx_ = group % ngx
        gy_ = (group // ngx) % ngy
        gz_ = group // (ngx * ngy)
        ids = {"lidx": lx, "lidy": ly, "lidz": lz,
               "gidx": gx_, "gidy": gy_, "gidz": gz_,
               "idx": gx_ * lx_ + lx, "idy": gy_ * ly_ + ly,
               "idz": gz_ * lz_ + lz, "group_flat": group, "lane": lane}
        dtype = engines_base.lane_id_dtype(nd.total_items)
        return {k: v.astype(dtype) for k, v in ids.items()}

    @given(shape=st.lists(st.tuples(st.integers(1, 7), st.integers(1, 5)),
                          min_size=1, max_size=3),
           order=st.permutations(KEYS), warp=st.integers(1, 40))
    def test_ids_built_on_first_read_equal_the_eager_build(
            self, shape, order, warp):
        """1-, 2- and 3-D shapes, local sizes of any length, keys read
        in any order: each array equals the eager build's, dtype
        included, and only the keys read are built."""
        lsize = tuple(local for local, _groups in shape)
        gsize = tuple(local * groups for local, groups in shape)
        nd = engines_base.NDRange(gsize, lsize)
        ids = nd.lane_ids()
        eager = self._eager_ids(nd)
        for i, key in enumerate(order):
            assert len(ids) == i
            got = ids[key]
            assert got.dtype == eager[key].dtype, key
            assert np.array_equal(got, eager[key]), key
        warps = ids[f"_warp{warp}"]
        assert warps.dtype == eager["lane"].dtype
        assert np.array_equal(warps, eager["lane"] // warp)

    def test_ids_of_every_shape_are_int32(self):
        for nd in (engines_base.NDRange((64,), (16,)),
                   engines_base.NDRange((8, 4), (4, 2)),
                   engines_base.NDRange((4, 2, 6), (2, 1, 3))):
            ids = nd.lane_ids()
            assert {k: ids[k].dtype for k in self.KEYS} == \
                {k: np.dtype(np.int32) for k in self.KEYS}

    @pytest.mark.parametrize("engine", ["jit-interp", "jit-compiled"])
    def test_2d_launch_builds_only_the_ids_it_reads(self, engine,
                                                    monkeypatch):
        """A 2-D launch of a kernel that reads only ``get_global_id(0)``
        builds no other id; the compiled tier's strided accesses need
        neither lanes nor warps nor the id itself, so it builds none."""
        monkeypatch.setattr(engines_base, "_NDRANGE_CACHE", {})
        out = np.zeros(64, np.float32)
        x = np.arange(64, dtype=np.float32)
        run_cl_kernel(cl.Device(TESLA_C2050, engine),
                      TestContiguousPath.COPY, "f", [out, x], (64, 1),
                      (16, 1))
        assert np.array_equal(out, x * 2)
        ids = launch_ndrange((64, 1), (16, 1), TESLA_C2050).lane_ids()
        assert not {"idy", "lidx", "lidy", "gidx", "gidy"} & set(ids)
        if engine == "jit-compiled":
            assert set(ids) == set()

    def test_the_id_dtype_widens_from_two_to_the_31_lanes(self):
        """Decided from the lane count alone: no array is built."""
        assert engines_base.lane_id_dtype(1) == np.int32
        assert engines_base.lane_id_dtype((1 << 31) - 1) == np.int32
        assert engines_base.lane_id_dtype(1 << 31) == np.int64
        assert engines_base.lane_id_dtype(1 << 40) == np.int64

    def test_2d_compiled_id_registers_are_the_memoized_arrays(
            self, monkeypatch):
        src = """__kernel void f(__global int* out) {
            int x = get_global_id(0) + get_local_id(1);
            out[get_global_id(1) * 8 + get_global_id(0)] =
                x * get_group_id(0);
        }"""
        frames = []
        original = jit_mod.JitEngine._bc_frame

        def capture(engine, kbc, args):
            frames.append(original(engine, kbc, args))
            return frames[-1]

        monkeypatch.setattr(jit_mod.JitEngine, "_bc_frame", capture)
        monkeypatch.setattr(engines_base, "_NDRANGE_CACHE", {})
        out = np.zeros(32, np.int32)
        run_cl_kernel(cl.Device(TESLA_C2050, "jit-compiled"), src, "f",
                      [out], (8, 4), (4, 2))
        ids = launch_ndrange((8, 4), (4, 2), TESLA_C2050).lane_ids()
        ctx = cl.Context([cl.Device(TESLA_C2050, "jit")])
        code, _kbc = linked_program(
            cl.Program(ctx, src).build().ir.bytecode)["f"]
        queries = {ins[L_DST]: jit_mod._ID_KEYS[ins[L_AUX][:2]]
                   for ins in code if ins[0] == OP_WIQ}
        (frame,) = frames
        assert len(queries) == 4
        for reg, key in queries.items():
            assert frame.regs[reg] is ids[key], key


class TestShapeMemo:
    """The memoized NDRange is the only per-shape state: it owns the
    lane ids and the compiled tier's id-query plans."""

    #: a load through each id query, so every id key gets a plan whose
    #: transaction count depends on the device's warp and segment sizes
    SRC = """__kernel void f(__global int* out, __global const int* x) {
        int i = get_global_id(1) * get_global_size(0) + get_global_id(0);
        out[i] = x[get_global_id(0)] + x[get_local_id(0)]
                 + x[get_group_id(0)] + x[get_global_id(1)]
                 + x[get_local_id(1)] + x[get_group_id(1)] + x[i];
    }"""

    @given(shape=st.lists(st.tuples(st.sampled_from([1, 2, 4, 8]),
                                    st.integers(1, 3)),
                          min_size=1, max_size=2),
           xeon_first=st.booleans())
    def test_devices_share_the_ndrange_but_not_the_plans(
            self, shape, xeon_first):
        """Tesla and Xeon have equal limits, so one launch shape gets one
        NDRange on both; their warp and segment sizes differ, so a plan
        cached for one device must not serve the other: each device's
        compiled counters equal its interpreted ones."""
        lsize = tuple(local for local, _groups in shape)
        gsize = tuple(local * groups for local, groups in shape)
        n = int(np.prod(gsize))
        specs = [XEON_HOST, TESLA_C2050]
        if not xeon_first:
            specs.reverse()
        for spec in specs:
            runs = []
            for engine in ("jit-compiled", "jit-interp"):
                out = np.zeros(n, np.int32)
                x = np.arange(n, dtype=np.int32) * 3
                event = run_cl_kernel(cl.Device(spec, engine), self.SRC,
                                      "f", [out, x], gsize, lsize)
                runs.append((out.tobytes(), vars(event.counters)))
            assert runs[0] == runs[1], spec.name
        nd = launch_ndrange(gsize, lsize, TESLA_C2050)
        assert launch_ndrange(gsize, lsize, XEON_HOST) is nd
        assert {k[2:4] for k in nd.plans} >= {
            (s.segment_bytes, s.warp_size) for s in specs}
        assert len(engines_base._NDRANGE_CACHE) <= 64

    def test_launches_over_2_to_the_20_lanes_keep_no_ids(self):
        """A 1-D id dict builds nothing until read, so a huge launch's
        dict is cheap to make and its ids are not pinned."""
        huge = launch_ndrange(((1 << 20) + 256,), (256,), TESLA_C2050)
        assert huge.lane_ids() is not huge.lane_ids()
        small = launch_ndrange((1 << 20,), (256,), TESLA_C2050)
        assert small.lane_ids() is small.lane_ids()
