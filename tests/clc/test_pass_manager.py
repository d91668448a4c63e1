"""The pass manager runs each rewriter only after another one changed the
program, and the result equals the round-robin pipeline it replaced.

The oracle below is that pipeline: every round runs fold, dce and (at
-O2) strength reduction once each, until a whole round changes nothing.
It runs dce as a single liveness sweep per function, and uniformity
with a separate tagging walk after its levels settle, which is how
those two passes ran under it.  The pass manager must produce the same
tree, the same uniformity facts and the same bytecode.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clc import compile_source
from repro.clc.__main__ import format_program
from repro.clc.lower import disassemble, lower_program
from repro.clc.passes import (MAX_PIPELINE_ROUNDS, PIPELINE_VERSION,
                              DeadCodePass, FoldPass, StrengthReducePass,
                              UniformityPass, manager, optimize_program,
                              pipeline_passes)
from repro.clc.passes.manager import stmt_exprs, walk_exprs, walk_stmts
from tests.clc.corpus import fuzz_sources, paper_sources
from tests.clc.test_opt_differential import _KernelGen


class _OneSweepDce(DeadCodePass):
    """dce as the round-robin pipeline ran it: one liveness sweep per
    function per run, the rest left to later rounds."""

    def run(self, program):
        swept = [self._sweep(f) for f in program.functions.values()]
        return any(swept)


class _TaggingWalkUniformity(UniformityPass):
    """uniformity as the round-robin pipeline ran it: the fixpoint walks,
    then one more walk that tags every expression with the settled
    levels."""

    def _analyze(self, func):
        super()._analyze(func)
        self._visit_block(func.body, self._func_floor)


def _round_robin(program, level: int):
    """The oracle: the pipeline as it was before each rewriter ran to its
    own fixpoint."""
    rewriters, _ = pipeline_passes(level)
    rewriters = [_OneSweepDce() if isinstance(p, DeadCodePass) else p
                 for p in rewriters]
    for _round in range(MAX_PIPELINE_ROUNDS):
        changed = False
        for p in rewriters:
            changed |= p.run(program)
        if not changed:
            break
    _TaggingWalkUniformity().run(program)
    program.opt_level = level
    program.bytecode = lower_program(program, level, PIPELINE_VERSION)
    return program


def _facts(program) -> dict:
    """Everything the optimized program hands on: its tree, and per
    function the uniform variables, every expression's tag and the
    bytecode listing."""
    funcs = {}
    for name, func in program.functions.items():
        tags = [getattr(e, "_uniform", None)
                for stmt in walk_stmts(func.body)
                for top in stmt_exprs(stmt) for e in walk_exprs(top)]
        funcs[name] = (func._uniform_vars, tags,
                       disassemble(program.bytecode.functions[name]))
    return {"tree": format_program(program), "functions": funcs}


def _both(source: str, level: int):
    new = optimize_program(compile_source(source), level)
    old = _round_robin(compile_source(source), level)
    return _facts(new), _facts(old)


@pytest.fixture(scope="module")
def corpus() -> dict:
    sources = {f"paper/{k}": v for k, v in paper_sources().items()}
    sources.update(fuzz_sources(200))
    return sources


@pytest.mark.parametrize("level", [1, 2])
def test_pipeline_matches_the_round_robin_oracle(corpus, level):
    mismatched = []
    for name, source in corpus.items():
        new, old = _both(source, level)
        if new != old:
            mismatched.append(name)
    assert mismatched == []


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), level=st.sampled_from([1, 2]))
def test_pipeline_matches_the_oracle_on_fuzz_kernels(seed, level):
    new, old = _both(_KernelGen(seed).source(), level)
    assert new == old


# -- each rewriter runs to its own fixpoint -----------------------------------

@pytest.mark.parametrize("rewriter",
                         [FoldPass, DeadCodePass, StrengthReducePass])
def test_one_more_run_after_the_pipeline_changes_nothing(corpus, rewriter):
    for name, source in corpus.items():
        program = optimize_program(compile_source(source), 2)
        before = format_program(program)
        assert rewriter().run(program) is False, name
        assert format_program(program) == before, name


def test_dce_removes_a_chain_of_dead_stores_in_one_run():
    program = compile_source("""__kernel void k(__global int* out)
{
    int a;
    int b;
    int c;
    a = b;
    b = c;
    c = 1;
    out[0] = 7;
}
""")
    assert DeadCodePass().run(program) is True
    tree = format_program(program)
    assert tree == ("__kernel void k(__global int* out) {\n"
                    "    out[0] = 7;\n"
                    "}")
    assert DeadCodePass().run(program) is False


# -- the pass manager ---------------------------------------------------------

class _AlwaysChanges:
    def __init__(self, name: str) -> None:
        self.name = name

    def run(self, program) -> bool:
        return True


def _run_order(monkeypatch, source: str, level: int, rewriters=None):
    if rewriters is not None:
        monkeypatch.setattr(manager, "pipeline_passes",
                            lambda _level: (rewriters, []))
    seen = []
    manager.run_pipeline(compile_source(source), level,
                         lambda name, _prog, changed: seen.append(name))
    return seen


_QUIET = """__kernel void k(__global int* out)
{
    out[get_global_id(0)] = 1;
}
"""


def test_rewriters_that_always_change_stop_at_the_round_cap(monkeypatch):
    seen = _run_order(monkeypatch, _QUIET, 2,
                      [_AlwaysChanges("a"), _AlwaysChanges("b")])
    assert seen == ["a", "b"] * MAX_PIPELINE_ROUNDS


def test_each_rewriter_runs_once_when_nothing_changes(monkeypatch):
    assert _run_order(monkeypatch, _QUIET, 2) == [
        "fold", "dce", "strength_reduce", "uniformity"]
    assert _run_order(monkeypatch, _QUIET, 1) == [
        "fold", "dce", "uniformity"]
