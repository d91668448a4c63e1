"""The NumPy-codegen JIT engine: identity with the vector interpreter,
codegen engagement, cache behavior and interpreter fallback."""

from __future__ import annotations

import numpy as np
import pytest

import repro.hpl as hpl
import repro.ocl as cl
from repro import prof
from repro.hpl import reset_runtime
from repro.ocl import TESLA_C2050
from repro.ocl.engines import jit as jit_mod
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


def _run(engine: str, options: str = "-O2"):
    device = cl.Device(TESLA_C2050, engine)
    rng = np.random.default_rng(11)
    x = rng.uniform(-2, 2, N).astype(np.float32)
    out = np.zeros(N, np.float32)
    hist = np.zeros(4, np.int32)
    event = run_cl_kernel(device, KERNEL, "mix",
                          [out, x, hist, np.int32(N)],
                          (N,), (16,), options=options)
    return out, hist, event.counters


@pytest.fixture(autouse=True)
def _fresh(fresh_runtime):
    yield


class TestBitIdentity:
    @pytest.mark.parametrize("options", ["-cl-opt-disable", "-O1", "-O2"])
    def test_buffers_and_counters_match_vector(self, options):
        v_out, v_hist, v_c = _run("vector", options)
        j_out, j_hist, j_c = _run("jit", options)
        assert j_out.tobytes() == v_out.tobytes()
        assert j_hist.tobytes() == v_hist.tobytes()
        assert vars(j_c) == vars(v_c)

    def test_per_line_profiles_match_vector(self):
        was_enabled = prof.is_enabled()
        prof.enable()
        try:
            prof.reset()
            _run("vector")
            (v_profile,) = prof.get_profiler().drain()
            _run("jit")
            (j_profile,) = prof.get_profiler().drain()
        finally:
            if not was_enabled:
                prof.disable()
        v_lines = {ln: rec.to_dict() for ln, rec in v_profile.lines.items()}
        j_lines = {ln: rec.to_dict() for ln, rec in j_profile.lines.items()}
        assert j_lines == v_lines
        assert ({ln: b.to_dict() for ln, b in j_profile.branches.items()}
                == {ln: b.to_dict() for ln, b in v_profile.branches.items()})


class TestCodegenEngagement:
    def test_o2_run_uses_generated_code(self):
        """At -O2 the JIT must actually execute generated functions —
        the in-process source memo fills and the bytecode object holds
        compiled callables for the kernel."""
        jit_mod.clear_cache()
        device = cl.Device(TESLA_C2050, "jit")
        ctx = cl.Context([device])
        program = cl.Program(ctx, KERNEL).build("-O2")
        assert jit_mod._source_memo          # codegen ran at build time
        version, funcs = program.ir.bytecode._jit
        assert version == jit_mod.JIT_CODEGEN_VERSION
        assert callable(funcs["mix"])

    def test_prebuild_hook_compiles_at_build_time(self):
        """``Program.build`` on a jit device triggers codegen (the
        prebuild hook), so the first enqueue pays nothing."""
        jit_mod.clear_cache()
        device = cl.Device(TESLA_C2050, "jit")
        program = cl.Program(cl.Context([device]), KERNEL).build("-O2")
        assert getattr(program.ir.bytecode, "_jit", None) is not None

    def test_o0_runs_generated_code(self):
        """-O0 programs are lowered to unoptimized bytecode, so the jit
        engine compiles and runs them like any other level, with
        vector-identical output."""
        jit_mod.clear_cache()
        device = cl.Device(TESLA_C2050, "jit")
        program = cl.Program(cl.Context([device]), KERNEL).build(
            "-cl-opt-disable")
        assert program.ir.opt_level == 0
        version, funcs = program.ir.bytecode._jit
        assert version == jit_mod.JIT_CODEGEN_VERSION
        assert callable(funcs["mix"])
        v_out, _h, v_c = _run("vector", "-cl-opt-disable")
        j_out, _h, j_c = _run("jit", "-cl-opt-disable")
        assert j_out.tobytes() == v_out.tobytes()
        assert vars(j_c) == vars(v_c)

    def test_codegen_failure_falls_back_to_interpreter(self, monkeypatch):
        """Any codegen breakage degrades to the interpreter, never to a
        launch failure."""
        jit_mod.clear_cache()
        monkeypatch.setattr(jit_mod, "generate_module",
                            lambda pbc: (_ for _ in ()).throw(
                                RuntimeError("boom")))
        v_out, v_hist, v_c = _run("vector")
        j_out, j_hist, j_c = _run("jit")
        assert j_out.tobytes() == v_out.tobytes()
        assert vars(j_c) == vars(v_c)

    def test_engine_run_span_records_engine(self):
        from repro import trace
        tracer = trace.enable(fresh=True)
        try:
            _run("jit")
        finally:
            trace.disable()
        spans = [s for s in tracer.spans() if s.name == "engine_run"]
        assert spans and all(s.attrs["engine"] == "jit" for s in spans)


class TestSourceCache:
    def test_generated_source_cached_on_disk(self, tmp_path):
        """With the disk cache active, codegen writes a ``.jitsrc``
        sidecar; a fresh process-state (memo cleared) is served from
        disk without regenerating."""
        hpl.configure(cache_dir=tmp_path)
        try:
            _run("jit")
            sidecars = list(tmp_path.glob("*.jitsrc"))
            assert len(sidecars) == 1
            text = sidecars[0].read_text(encoding="utf-8")
            assert "def " in text and "FUNCS" in text

            reset_runtime()             # drops the in-process memo
            assert not jit_mod._source_memo
            calls = []
            orig = jit_mod.generate_module
            jit_mod.generate_module = \
                lambda pbc: calls.append(1) or orig(pbc)
            try:
                _run("jit")
            finally:
                jit_mod.generate_module = orig
            assert calls == []          # served from the .jitsrc sidecar
        finally:
            hpl.configure(cache_dir=None)

    def test_purge_sweeps_jitsrc_sidecars(self, tmp_path):
        cache = hpl.configure(cache_dir=tmp_path)
        try:
            _run("jit")
            assert list(tmp_path.glob("*.jitsrc"))
            cache.purge()
            assert not list(tmp_path.glob("*.jitsrc"))
            assert not list(tmp_path.glob("*.irbin"))
        finally:
            hpl.configure(cache_dir=None)

    def test_reset_runtime_clears_source_memo(self):
        _run("jit")
        assert jit_mod._source_memo
        reset_runtime()
        assert not jit_mod._source_memo
