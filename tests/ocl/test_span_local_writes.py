"""Span-local variable writes in the compiled jit tier.

A ``mov`` under a partial mask blends, so inactive lanes keep their
old value.  When every reference to a register lies in one span and
the first one is a write at that span's top level, no lane can read
an old value, and the compiled tier writes every lane
(``jit._span_local_moves``).  The interpreter keeps blending and is
the oracle: buffers, cost counters and per-line profiles must match.

Each shape marks its ``mov`` lines: ``/* plain */`` must skip the
blend, ``/* blend */`` must keep it.  A move overwritten before any
read in the same straight-line run does not run at all
(``jit._dead_moves``); its line is marked ``/* dead */`` too.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.ocl as cl
from repro.clc.lower import L_LINE, OP_MOV, linked_program
from repro.ocl import TESLA_C2050
from repro.ocl.engines import jit as jit_mod
from tests.clc.test_opt_differential import _KernelGen, _run_config
from tests.ocl.test_jit_engine import _profiled
from tests.conftest import run_cl_kernel

N = 64

SHAPES = {
    # eligible: declared in a divergent if, read there and in a nested
    # if (``c``'s source is a scalar, and the nested if's condition must
    # still be a lane array); not eligible: ``acc``, live after the if
    "if-local": """
__kernel void f(__global float* out, __global const float* x, int n) {
    int gid = get_global_id(0);
    float acc = x[gid];
    if (gid % 3 == 0) {
        float t = acc * 2.0f + x[(gid + 1) % n];   /* plain */
        if (t > 3.0f) {
            acc = acc + t;                          /* blend */
        }
        t = t - acc;                                /* plain */
        int c = 2;                                  /* plain */
        if (c > 1) {
            t = t * 0.5f;
        }
        out[gid] = t;
    }
    out[gid] = out[gid] + acc;
}""",
    # eligible: a temporary in a loop body with a divergent trip
    # count; not eligible: the loop-carried ``acc``, and ``v``'s
    # nested write
    "loop-temp": """
__kernel void f(__global float* out, __global const float* x, int n) {
    int gid = get_global_id(0);
    float acc = 0.0f;
    for (int k = 0; k < gid % 5; k++) {
        float v = x[(gid + k) % n] * 0.5f;          /* plain */
        if (v > 1.0f) {
            v = v - 1.0f;                           /* blend */
        }
        acc = acc + v;                              /* blend */
    }
    out[gid] = acc;
}""",
    # dead: ``t``'s and ``acc``'s first writes in the if are
    # overwritten before any read, with only straight-line code
    # between (EP's ``double t = 0; t = expr;``); a blend is overwritten
    # by a blend under the same mask.  ``u``'s first write is read
    # after the nested if, so it runs.
    "dead-init": """
__kernel void f(__global float* out, __global const float* x, int n) {
    int gid = get_global_id(0);
    float acc = x[gid];
    if (gid % 3 == 0) {
        double t = 0.0;                             /* plain */ /* dead */
        acc = 1.0f;                                 /* blend */ /* dead */
        acc = x[(gid + 2) % n] * 3.0f;              /* blend */
        t = acc * 2.0 + x[(gid + 1) % n];           /* plain */
        float u = 2.0f;                             /* plain */
        if (t > 3.0) {
            u = 1.0f;                               /* blend */
        }
        out[gid] = (float)t + u;
    }
    out[gid] = out[gid] + acc;
}""",
    # not eligible: ``step`` is read in the loop update
    "update-read": """
__kernel void f(__global float* out, __global const float* x, int n) {
    int gid = get_global_id(0);
    int step = 1;
    float acc = 0.0f;
    for (int k = 0; k < 12; k += step) {
        step = 1 + (gid + k) % 3;                   /* blend */
        acc = acc + x[(gid + k) % n];
    }
    out[gid] = acc;
}""",
    # not eligible: the helper's parameter ``s`` is read before its
    # first write in the loop body, and a lane that continued reads its
    # own old value in the next iteration
    "read-first": """
void walk(__global float* out, __global const float* x, int gid, int s) {
    for (int k = 0; k < 4; k++) {
        out[gid * 4 + k] = x[gid] + (float)s;
        if ((gid + k) % 3 == 0) {
            continue;
        }
        s = gid * 8 + k;                            /* blend */
    }
}
__kernel void f(__global float* out, __global const float* x, int n) {
    walk(out, x, get_global_id(0), 3);
}""",
    # not eligible: the helper parameter's first write is nested in an
    # if; the helper runs under a divergent if, where its own local
    # ``y`` is eligible
    "nested-first-write": """
void scale(__global float* out, __global const float* x, int gid,
           int s) {
    float y = x[gid] * 0.5f;                        /* plain */
    if (gid % 3 == 0) {
        s = gid;                                    /* blend */
    }
    out[gid] = y + (float)s;
    s = gid * 2;                                    /* blend */
    out[gid] = out[gid] * (float)s;
}
__kernel void f(__global float* out, __global const float* x, int n) {
    int gid = get_global_id(0);
    if (gid % 4 != 0) {
        scale(out, x, gid, 3);
    }
}""",
}

LEVELS = ["-cl-opt-disable", "-O2"]


def _program(source: str, options: str):
    ctx = cl.Context([cl.Device(TESLA_C2050, "jit")])
    return cl.Program(ctx, source).build(options).ir.bytecode


def _marked(source: str) -> dict:
    """Source line -> ``plain`` or ``blend``, from the markers."""
    return {i: m.group(1)
            for i, text in enumerate(source.split("\n"), start=1)
            for m in [re.search(r"/\* (plain|blend) \*/", text)] if m}


def _args():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 4.0, N).astype(np.float32)
    return [np.zeros(4 * N, np.float32), x, np.int32(N)]


def _launch(engine: str, shape: str, options: str):
    args = _args()
    event = run_cl_kernel(cl.Device(TESLA_C2050, engine), SHAPES[shape],
                          "f", args, (N,), (16,), options=options)
    return args[0], vars(event.counters)


@pytest.fixture(autouse=True)
def _fresh(fresh_runtime):
    yield


class TestScan:
    @pytest.mark.parametrize("options", LEVELS)
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_marked_moves(self, shape, options):
        """Each marked line's moves are plain or blended as marked."""
        source = SHAPES[shape]
        marks = _marked(source)
        seen = {}
        for code, _kbc in linked_program(
                _program(source, options)).values():
            plain = jit_mod._span_local_moves(code)
            for pos, ins in enumerate(code):
                if ins[0] == OP_MOV and ins[L_LINE] in marks:
                    seen[ins[L_LINE]] = ("plain" if pos in plain
                                         else "blend")
        assert seen == marks

    @pytest.mark.parametrize("options", LEVELS)
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_dead_moves(self, shape, options):
        """The moves of the lines marked dead, and no others, are
        dropped, and the emitted span holds no code for them."""
        source = SHAPES[shape]
        dead_lines = {i for i, text in enumerate(source.split("\n"),
                                                 start=1)
                      if "/* dead */" in text}
        pbc = _program(source, options)
        module = jit_mod._ModuleEmitter(pbc)
        seen = set()
        for code, kbc in module.linked.values():
            emitter = jit_mod._FnEmitter(module, code, kbc)
            for pos in emitter.dead:
                assert code[pos][0] == OP_MOV
                assert emitter.span_body(pos, pos + 1) == []
                seen.add(code[pos][L_LINE])
        assert seen == dead_lines

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_plain_moves_emit_no_blend(self, shape):
        """A plain move writes its source (a scalar one broadcast);
        a blended one still calls ``_where``."""
        source = SHAPES[shape]
        pbc = _program(source, "-O2")
        module = jit_mod._ModuleEmitter(pbc)
        marks = _marked(source)
        for code, kbc in module.linked.values():
            emitter = jit_mod._FnEmitter(module, code, kbc)
            for pos, ins in enumerate(code):
                if ins[0] != OP_MOV or ins[L_LINE] not in marks \
                        or pos in emitter.dead:
                    continue
                emitted = "\n".join(emitter.span_body(pos, pos + 1))
                if marks[ins[L_LINE]] == "plain":
                    assert "_where" not in emitted
                    assert "_r.repeat(n)" in emitted
                else:
                    assert "_where(mask" in emitted


class TestTiersAgree:
    @pytest.mark.parametrize("options", LEVELS)
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_buffers_counters_and_profiles(self, shape, options):
        (i_out, i_counters), i_prof = _profiled(
            lambda: _launch("jit-interp", shape, options))
        (c_out, c_counters), c_prof = _profiled(
            lambda: _launch("jit-compiled", shape, options))
        assert c_out.tobytes() == i_out.tobytes()
        assert c_counters == i_counters
        assert c_prof == i_prof

    def test_a_lane_that_continued_reads_its_own_value(self):
        """``read-first`` keeps its blend: a lane that skipped the
        write reads its own earlier value, not another lane's."""
        out, _c = _launch("jit-compiled", "read-first", "-O2")
        x = _args()[1]
        expected = np.zeros(4 * N, np.float32)
        for gid in range(N):
            s = 3
            for k in range(4):
                expected[gid * 4 + k] = x[gid] + np.float32(s)
                if (gid + k) % 3:
                    s = gid * 8 + k
        assert out.tobytes() == expected.tobytes()


AFFINE = """
__kernel void f(__global float* out, __global const float* x) {
    int gid = get_global_id(0);
    for (int k = 0; k < 4; k++) {
        int j = k * 64 + gid;                       /* plain */
        out[j] = x[j] * 2.0f;
    }
}"""


@pytest.mark.parametrize("options", LEVELS)
def test_a_plain_affine_index_takes_the_strided_path(options,
                                                     monkeypatch):
    """A plain move sets the affine flag of its destination from its
    source, so ``j``'s full-mask accesses keep the strided path."""
    code, _kbc = linked_program(_program(AFFINE, options))["f"]
    assert [ins[L_LINE] for pos, ins in enumerate(code)
            if pos in jit_mod._span_local_moves(code)
            and ins[L_LINE] in _marked(AFFINE)] == list(_marked(AFFINE))
    taken = []
    for name in ("_aff_ld", "_aff_st"):
        def spy(*args, _helper=jit_mod._EXEC_ENV[name], _name=name):
            result = _helper(*args)
            taken.append((_name, result is not None))
            return result
        monkeypatch.setitem(jit_mod._EXEC_ENV, name, spy)
    x = np.arange(4 * N, dtype=np.float32)
    out = np.zeros(4 * N, np.float32)
    run_cl_kernel(cl.Device(TESLA_C2050, "jit-compiled"), AFFINE, "f",
                  [out, x], (N,), (16,), options=options)
    assert out.tobytes() == (x * 2).tobytes()
    assert taken == [("_aff_ld", True), ("_aff_st", True)] * 4


@settings(deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 1 << 20))
def test_random_span_local_kernels_match_the_interpreter(seed):
    """Fuzz kernels whose bodies declare block-local variables: the
    compiled tier's buffers and counters equal the interpreter's."""
    gen = _KernelGen(seed, span_locals=True)
    source = gen.source()
    lsize = (gen.lsize,) if gen.has_barrier else None
    rng = np.random.default_rng(seed)
    fin = rng.uniform(0.1, 4.0, gen.gsize).astype(np.float32)
    iin = rng.integers(-100, 100, gen.gsize).astype(np.int32)
    legs = [_run_config(engine, "-O2", source, (gen.gsize,), lsize, fin,
                        iin, 0.5)
            for engine in ("jit-interp", "jit-compiled")]
    (i_out, i_iout, i_c), (c_out, c_iout, c_c) = legs
    assert c_out.tobytes() == i_out.tobytes(), source
    assert c_iout.tobytes() == i_iout.tobytes(), source
    assert vars(c_c) == vars(i_c), source
