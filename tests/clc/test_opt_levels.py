"""Every opt level lowers to bytecode, and bytecode is the only IR the
engines execute.

``-O0`` runs no rewriting pass but still produces bytecode, so there is
one execution path per engine.  A program that reaches an engine without
bytecode of the current :data:`~repro.clc.lower.BYTECODE_VERSION` is
rejected with a typed error instead of being executed some other way.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.ocl as cl
from repro.clc import compile_source
from repro.clc.__main__ import main as clc_main
from repro.clc.binary import ProgramBinary
from repro.clc.lower import BYTECODE_VERSION, disassemble
from repro.clc.passes.manager import opt_signature, optimize_program
from repro.errors import InvalidProgramExecutable
from repro.ocl import TESLA_C2050
from repro.ocl.engines.base import (BufferBinding, available_engines,
                                    get_engine_class)
from tests.conftest import ENGINE_LEGS

SOURCE = """__kernel void k(__global int* out)
{
    int i = get_global_id(0);
    out[i] = i * 2 + 1;
}
"""



@pytest.mark.parametrize("options", ["-cl-opt-disable", "-O0", "-O1", "-O2"])
def test_build_attaches_bytecode_at_every_level(options):
    device = cl.Device(TESLA_C2050, "jit")
    program = cl.Program(cl.Context([device]), SOURCE).build(options)
    assert program.ir.bytecode is not None
    assert program.ir.bytecode.version == BYTECODE_VERSION
    assert program.ir.bytecode.opt_level == program.ir.opt_level


def test_o0_runs_no_rewriting_pass():
    """-O0 bytecode lowers the front-end tree as written: only the
    uniformity analysis runs, and it tags without rewriting."""
    seen = []
    program = optimize_program(compile_source(SOURCE), 0,
                               lambda name, _prog, changed:
                               seen.append((name, changed)))
    assert seen == [("uniformity", False)]
    assert program.bytecode.opt_level == 0


def test_o0_cache_key_differs_from_the_tree_only_pipeline():
    """Disk-cache entries from the pipeline that left -O0 without
    bytecode must miss, not load."""
    assert opt_signature(0) != "O0:pipe1:bc1"


def test_no_engine_advertises_a_tree_path():
    for name in available_engines():
        assert not [attr for attr in dir(get_engine_class(name))
                    if "tree" in attr]


def _run_binary(engine: str, binary):
    out = np.zeros(4, np.int32)
    engine_cls = get_engine_class(engine)
    return engine_cls(binary, TESLA_C2050).run("k", [BufferBinding(out)],
                                               (4,))


@pytest.mark.parametrize("engine", ENGINE_LEGS)
def test_missing_bytecode_raises_typed_error(engine):
    binary = ProgramBinary.from_ir(compile_source(SOURCE))  # front end only
    assert binary.bytecode is None
    with pytest.raises(InvalidProgramExecutable,
                       match=r"'k'.*found version None, expected "
                             rf"{BYTECODE_VERSION}"):
        _run_binary(engine, binary)


@pytest.mark.parametrize("engine", ENGINE_LEGS)
def test_stale_bytecode_version_raises_typed_error(engine):
    binary = ProgramBinary.from_ir(
        optimize_program(compile_source(SOURCE), 2))
    binary.bytecode.version = BYTECODE_VERSION + 1
    with pytest.raises(InvalidProgramExecutable,
                       match=rf"'k'.*found version {BYTECODE_VERSION + 1}, "
                             rf"expected {BYTECODE_VERSION}"):
        _run_binary(engine, binary)


def test_dump_at_o0_prints_bytecode(tmp_path, capsys):
    path = tmp_path / "k.cl"
    path.write_text(SOURCE)
    assert clc_main(["dump", str(path), "-O", "0"]) == 0
    out = capsys.readouterr().out
    assert "== bytecode (version" in out
    assert "-O0) ==" in out
    assert "kernel k(out)" in out


def test_dump_at_o2_prints_each_pass_run_and_the_built_bytecode(
        tmp_path, capsys):
    """fold, dce and strength reduction each change this kernel once;
    fold and dce then confirm the fixpoint, and strength reduction,
    which ran last, is not run again."""
    source = """__kernel void k(__global uint* out)
{
    uint i = get_global_id(0);
    int unused = 3;
    unused = 4;
    out[i] = i / 4u + (2 * 3);
}
"""
    path = tmp_path / "k.cl"
    path.write_text(source)
    assert clc_main(["dump", str(path), "-O", "2"]) == 0
    out = capsys.readouterr().out
    passes = [line[len("== after pass "):].split(" ")[0].rstrip(":")
              for line in out.splitlines()
              if line.startswith("== after pass ")]
    assert passes == ["fold", "dce", "strength_reduce", "fold", "dce",
                      "uniformity"]

    device = cl.Device(TESLA_C2050, "jit")
    built = cl.Program(cl.Context([device]), source).build("-O2").ir
    header = f"== bytecode (version {BYTECODE_VERSION}, -O2) ==\n"
    assert out.split(header)[1] == "".join(
        disassemble(bc) + "\n\n" for bc in built.bytecode.functions.values())
