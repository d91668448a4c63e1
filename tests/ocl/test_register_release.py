"""Lowerer temporaries die at their use.

``clc.lower._link`` marks, per linked instruction, the ``%t`` registers
no later instruction of the function reads (``L_KILL``); the
interpreter sets them to None once the instruction has run, and the
compiled tier emits the same release.  These tests check the lowering
invariant the release relies on, that no instruction reads a released
register, that a program breaking the invariant still runs, that a
launch leaves every other register as it was, and that a warm transpose
launch holds less memory for it.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.ocl as cl
from repro import hpl
from repro.clc import lower
from repro.clc.lower import (L_A, L_AUX, L_DST, L_KILL, OP_IF, OP_LOOP,
                             killed_regs, linked_program)
from repro.ocl import TESLA_C2050
from repro.ocl.engines import jit as jit_mod
from tests.clc.corpus import paper_sources
from tests.clc.test_opt_differential import (_AFFINE_BATCHES, _BATCHES,
                                             _KERNELS_PER_BATCH,
                                             _LOCAL_BATCHES, _KernelGen)
from tests.conftest import ENGINE_LEGS, run_cl_kernel


def _fuzz_sources() -> dict:
    """Every kernel of the differential fuzzer's three batches."""
    out = {}
    for first, batches, kind in ((1000, _BATCHES, {}),
                                 (5000, _LOCAL_BATCHES,
                                  {"span_locals": True}),
                                 (7000, _AFFINE_BATCHES, {"affine": True})):
        for seed in range(first, first + batches * _KERNELS_PER_BATCH):
            out[f"fuzz/{seed}"] = _KernelGen(seed, **kind).source()
    return out


@pytest.fixture(scope="module")
def linked_corpus():
    """``(name, linked code, KernelBytecode)`` of every function of the
    paper kernels and the fuzz batches, at -O0 and -O2."""
    ctx = cl.Context([cl.Device(TESLA_C2050, "jit")])
    out = []
    sources = {**paper_sources(), **_fuzz_sources()}
    for name, source in sources.items():
        for level in ("-O0", "-O2"):
            pbc = cl.Program(ctx, source).build(level).ir.bytecode
            for fname, (code, kbc) in linked_program(pbc).items():
                out.append((f"{name} {level} {fname}", code, kbc))
    hpl.reset_runtime()
    return out


def _temps(kbc) -> set:
    return {r for r, name in enumerate(kbc.reg_names)
            if name.startswith("%t")}


def test_every_temporary_is_written_once_and_read_once_in_its_run(
        linked_corpus):
    """The invariant the release relies on: each temporary has one
    write and at most one read, the read follows the write in the same
    span or is the ``loop`` whose condition span writes it, and the
    release lands on exactly the reads by non-control instructions."""
    for name, code, kbc in linked_corpus:
        paths = jit_mod._span_paths(code)
        temps = _temps(kbc)
        writes: dict = {}
        reads: dict = {}
        for pos, ins in enumerate(code):
            for reg in jit_mod._reads(ins):
                if reg in temps:
                    reads.setdefault(reg, []).append(pos)
            if ins[L_DST] in temps:
                writes.setdefault(ins[L_DST], []).append(pos)
        for reg in temps:
            (w,) = writes[reg]
            assert len(reads.get(reg, ())) <= 1, (name, reg)
            for r in reads.get(reg, ()):
                reader = code[r]
                if reader[0] == OP_LOOP:
                    assert r < w <= r + reader[L_AUX][0], (name, reg)
                else:
                    assert w < r and paths[w] == paths[r], (name, reg)
                control = reader[0] in lower._CONTROL_OPS
                assert (reg in killed_regs(reader)) != control, (name, reg)
        for ins in code:
            assert set(killed_regs(ins)) <= temps, name


def _walk(code, pos: int, end: int, dead: set, name: str) -> None:
    """Run ``code[pos:end]`` symbolically: ``dead`` holds the registers
    released and not written since.  Both arms of an ``if`` run, one
    after the other, as under a divergent mask, and a loop runs twice,
    so a release in one iteration meets the reads of the next."""
    while pos < end:
        ins = code[pos]
        for reg in jit_mod._reads(ins):
            assert reg not in dead, (name, pos, reg)
        op = ins[0]
        if op == OP_IF:
            tlen, elen = ins[L_AUX]
            _walk(code, pos + 1, pos + 1 + tlen, dead, name)
            _walk(code, pos + 1 + tlen, pos + 1 + tlen + elen, dead, name)
            pos += 1 + tlen + elen
            continue
        if op == OP_LOOP:
            clen, blen, ulen, _do = ins[L_AUX]
            cond, body, upd = pos + 1, pos + 1 + clen, pos + 1 + clen + blen
            for _iteration in range(2):
                _walk(code, cond, body, dead, name)
                assert ins[L_A] not in dead, (name, pos)
                _walk(code, body, upd, dead, name)
                _walk(code, upd, upd + ulen, dead, name)
            pos = upd + ulen
            continue
        if ins[L_DST] >= 0:
            dead.discard(ins[L_DST])
        dead.update(killed_regs(ins))
        pos += 1


def test_no_instruction_reads_a_released_register(linked_corpus):
    for name, code, _kbc in linked_corpus:
        _walk(code, 0, len(code), set(), name)


# -- a program that breaks the invariant ------------------------------------------

_TWICE = """__kernel void twice(__global float* out, __global float* copy,
                    __global const float* x) {
    int i = get_global_id(0);
    out[i] = x[i] * 2.0f;
    copy[i] = 0.5f;
}"""


@pytest.mark.parametrize("engine", ENGINE_LEGS)
def test_a_temporary_read_twice_is_released_at_its_last_read(engine):
    """The store to ``copy`` is rewritten to store the loaded ``x[i]``
    the multiply already read: the load's temporary is then read twice,
    so the multiply must not release it, and the program still runs."""
    device = cl.Device(TESLA_C2050, engine)
    ctx = cl.Context([device])
    queue = cl.CommandQueue(ctx, device)
    program = cl.Program(ctx, _TWICE).build()
    kbc = program.ir.bytecode.functions["twice"]
    (load,) = [i for i, ins in enumerate(kbc.instrs) if ins.op == "ld"]
    (store,) = [i for i, ins in enumerate(kbc.instrs)
                if ins.op == "st" and kbc.reg_names[ins.c].startswith("%c")]
    temp = kbc.instrs[load].dst
    kbc.instrs[store] = kbc.instrs[store]._replace(c=temp)
    code, _ = linked_program(program.ir.bytecode)["twice"]
    readers = [ins for ins in code if temp in jit_mod._reads(ins)]
    assert len(readers) == 2
    assert temp not in killed_regs(readers[0])
    assert temp in killed_regs(readers[1])

    x = np.arange(64, dtype=np.float32)
    bufs = [cl.Buffer(ctx, cl.mem_flags.READ_WRITE, size=x.nbytes)
            for _ in range(3)]
    queue.enqueue_write_buffer(bufs[2], x)
    kernel = program.create_kernel("twice")
    for i, buf in enumerate(bufs):
        kernel.set_arg(i, buf)
    queue.enqueue_nd_range_kernel(kernel, (64,), (16,))
    out, copy = np.zeros_like(x), np.zeros_like(x)
    queue.enqueue_read_buffer(bufs[0], out)
    queue.enqueue_read_buffer(bufs[1], copy)
    queue.finish()
    assert np.array_equal(out, x * 2)
    assert np.array_equal(copy, x)


# -- the registers a launch leaves -----------------------------------------------

_MIX = """float scale(float v, float s) { return v * s + 1.0f; }

__kernel void mix(__global float* out, __global const float* x, int n) {
    int gid = get_global_id(0);
    int lid = get_local_id(0);
    __local float tile[16];
    tile[lid] = x[gid] * 2.0f;
    barrier(CLK_LOCAL_MEM_FENCE);
    float acc = 0.0f;
    for (int k = 0; k < 4; k++) {
        acc += fmin(tile[(lid + k) % 16], x[(gid * 3 + k) % n]);
    }
    if (gid % 3 == 0) {
        acc = scale(acc, sqrt(fabs(acc) + 1.0f));
    } else {
        acc = acc - x[gid];
    }
    out[gid] = acc;
}"""


def _launch(engine: str, monkeypatch, strip: bool):
    """``(output, kernel frame registers)`` of one launch of ``_MIX``;
    ``strip`` links every instruction without releases."""
    with monkeypatch.context() as patch:
        frames = []
        original = jit_mod.JitEngine._bc_frame

        def capture(engine_, kbc, args):
            frames.append(original(engine_, kbc, args))
            return frames[-1]

        patch.setattr(jit_mod.JitEngine, "_bc_frame", capture)
        if strip:
            link = lower._link
            patch.setattr(lower, "_link", lambda bc, pbc: [
                ins[:L_KILL] + (0,) for ins in link(bc, pbc)])
        out = np.zeros(64, np.float32)
        x = np.linspace(0.5, 3.0, 64, dtype=np.float32)
        run_cl_kernel(cl.Device(TESLA_C2050, engine), _MIX, "mix",
                      [out, x, np.int32(64)], (64,), (16,))
    regs = frames[0].regs if frames else None
    return out, regs


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return (np.asarray(a).dtype == np.asarray(b).dtype
            and np.array_equal(a, b))


@pytest.mark.parametrize("engine", ENGINE_LEGS)
def test_released_registers_are_none_and_the_rest_unchanged(engine,
                                                             monkeypatch):
    out, regs = _launch(engine, monkeypatch, strip=False)
    ref_out, ref_regs = _launch(engine, monkeypatch, strip=True)
    assert out.tobytes() == ref_out.tobytes()
    if regs is None:
        return      # the serial engine keeps one work-item's scalars
    ctx = cl.Context([cl.Device(TESLA_C2050, "jit")])
    code, _kbc = linked_program(cl.Program(ctx, _MIX).build()
                                .ir.bytecode)["mix"]
    released = {r for ins in code for r in killed_regs(ins)}
    assert len(released) > 10
    for reg, (got, want) in enumerate(zip(regs, ref_regs)):
        if reg in released:
            assert got is None, reg
        else:
            assert _same(got, want), reg


# -- memory -----------------------------------------------------------------------

@pytest.mark.parametrize("engine, bound_mb", [("jit-interp", 18.0),
                                              ("jit-compiled", 9.0)])
def test_a_warm_transpose_launch_holds_only_live_lane_state(
        engine, bound_mb, monkeypatch, fresh_runtime):
    """The traced peak of a warm 512x512 transpose launch (262,144
    lanes: 1 MB per int32 or float lane array).  Holding every
    temporary to the end of the launch and building every lane id
    took 23.7 MB interpreted and 15.5 MB compiled; releasing them
    leaves 14.5 and 6.5."""
    from repro.benchsuite.transpose import driver as transpose
    from repro.ocl.engines import JitEngine

    peaks = []
    run = JitEngine.run

    def traced(self, *args, **kwargs):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        counters = run(self, *args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return counters

    monkeypatch.setattr(JitEngine, "run", traced)
    hpl.configure(engine=engine)
    problem = transpose.transpose_problem(n_run=512)
    tracemalloc.start()
    try:
        for _ in range(3):
            bench = transpose.run_hpl(problem, "Tesla")
    finally:
        tracemalloc.stop()
        hpl.configure(engine=None)
    assert np.array_equal(bench.output, problem.arrays["input"].T)
    assert peaks[-1] < bound_mb * 2**20, peaks
