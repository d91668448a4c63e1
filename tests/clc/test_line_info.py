"""Line debug info must survive the pass pipeline and lowering.

The profiler attributes cost through ``Instr.line``, so the pipeline
asserts (``verify_line_info``) that a fully annotated source tree never
lowers to an instruction without a line.  These tests drive the check
through real compilations — including the implicit-conversion sites the
lowerer materializes itself — and prove it actually bites on a dropped
line.
"""

from __future__ import annotations

import pytest

from repro.clc import compile_source
from repro.clc.passes.manager import (optimize_program,
                                      verify_line_info)

#: implicit int->float conversions at decl, store and return sites —
#: the lowerer inserts the casts, so it must stamp the statement line
CONVERTING = """float widen(int v)
{
    float f = v;
    return f;
}

__kernel void k(__global float* out, int n)
{
    int i = get_global_id(0);
    out[i] = widen(n) + i;
}
"""

BRANCHY = """__kernel void k(__global int* out)
{
    int i = get_global_id(0);
    int acc = 0;
    if (i > 4) {
        acc = i * 3 + 1;
    } else {
        acc = i / 2;
    }
    while (acc > 100) {
        acc = acc - 7;
    }
    out[i] = acc;
}
"""


def _lowered(source, level=2):
    program = optimize_program(compile_source(source), level)
    assert program.bytecode is not None
    return program


@pytest.mark.parametrize("source", [CONVERTING, BRANCHY],
                         ids=["conversions", "branches"])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_every_counted_instr_has_a_line(source, level):
    program = _lowered(source, level)
    for name, bc in program.bytecode.functions.items():
        for ins in bc.instrs:
            if ins.op in ("const", "wiq"):
                continue
            assert ins.line > 0, (name, ins)


def test_verify_passes_on_real_compilation():
    verify_line_info(_lowered(CONVERTING))


def test_verify_raises_on_dropped_line():
    program = _lowered(BRANCHY)
    instrs = program.bytecode.functions["k"].instrs
    pc = next(pc for pc, ins in enumerate(instrs)
              if ins.op not in ("const", "wiq"))
    instrs[pc] = instrs[pc]._replace(line=0)
    with pytest.raises(AssertionError, match="dropped line info"):
        verify_line_info(program)


def test_verify_skips_unannotated_trees():
    """Synthetic IR without line info (tests, tools) is not an error."""
    program = _lowered(BRANCHY)
    func = program.functions["k"]
    func.body[0].line = 0                     # tree no longer annotated
    bc = program.bytecode.functions["k"]
    bc.instrs = [ins._replace(line=0) for ins in bc.instrs]
    verify_line_info(program)                 # must not raise


def test_optimize_program_runs_the_check():
    program = _lowered(CONVERTING)
    optimize_program(program, 2)              # idempotent, still clean
    assert program.bytecode is not None
