"""Pass manager and IR-walking helpers for the optimizing middle-end.

The pipeline rewrites the typed tree IR produced by sema *in place*
(every pass receives a :class:`~repro.clc.ir.ProgramIR` and mutates it),
then a final analysis pass tags work-item uniformity for the lowerer.
The rewriting passes are run to a fixpoint — constant folding exposes
dead branches, dead-code elimination exposes more foldable stores — and
each execution of a pass is observable: it runs under a ``pass:<name>``
trace span (category ``clc``) and bumps the ``clc.pass_<name>`` counter
plus a ``clc.pass_seconds_<name>`` accumulator, which is how the
benchsuite proves a warm cache start performed *zero* pass executions.
"""

from __future__ import annotations

import os
import time

from .. import ir as I

#: Version of the pass pipeline.  Part of the persistent kernel cache key
#: (together with the opt level and the bytecode version), so changing
#: what the passes do invalidates cached post-optimization artifacts.
PIPELINE_VERSION = 2

#: opt level used when neither build options nor configuration choose one
DEFAULT_OPT_LEVEL = 2

#: upper bound on fold/dce/strength fixpoint rounds (each round runs
#: every rewriting pass once; real kernels settle in 2-3)
MAX_PIPELINE_ROUNDS = 8

_opt_level_override: int | None = None


def _clamp(level: int) -> int:
    """Opt levels above 2 behave as 2 (like -O3 on a real driver)."""
    return max(0, min(2, int(level)))


def set_default_opt_level(level) -> None:
    """Set (or with ``None`` clear) the process-wide default opt level.

    This is what ``hpl.configure(opt_level=...)`` calls; an explicit
    override wins over the ``HPL_OPT_LEVEL`` environment variable.
    """
    global _opt_level_override
    _opt_level_override = None if level is None else _clamp(level)


def default_opt_level() -> int:
    """The opt level used by builds that do not pass ``-O<n>`` options."""
    if _opt_level_override is not None:
        return _opt_level_override
    env = os.environ.get("HPL_OPT_LEVEL")
    if env:
        try:
            return _clamp(int(env))
        except ValueError:
            pass
    return DEFAULT_OPT_LEVEL


def resolve_opt_level(options: str = "") -> int:
    """Effective opt level of one ``Program.build(options)`` call.

    ``-cl-opt-disable`` always wins (O0, the OpenCL-standard spelling);
    otherwise the last ``-O0``/``-O1``/``-O2``/``-O3`` option decides,
    falling back to :func:`default_opt_level`.
    """
    level = None
    for tok in (options or "").split():
        if tok == "-cl-opt-disable":
            return 0
        if len(tok) == 3 and tok[:2] == "-O" and tok[2] in "0123":
            level = int(tok[2])
    return default_opt_level() if level is None else _clamp(level)


def opt_signature(level: int) -> str:
    """Cache-key component describing the optimization configuration."""
    from ..lower import BYTECODE_VERSION
    return f"O{level}:pipe{PIPELINE_VERSION}:bc{BYTECODE_VERSION}"


# -- pipeline --------------------------------------------------------------

def pipeline_passes(level: int):
    """(rewriting passes, analysis passes) for an opt level."""
    from .dce import DeadCodePass
    from .fold import FoldPass
    from .strength import StrengthReducePass
    from .uniformity import UniformityPass

    rewriters = []
    if level >= 1:
        rewriters = [FoldPass(), DeadCodePass()]
    if level >= 2:
        rewriters.append(StrengthReducePass())
    return rewriters, [UniformityPass()]


def run_pipeline(program: I.ProgramIR, level: int, observer=None) -> None:
    """Run the pass pipeline for ``level`` over ``program`` in place.

    ``observer(name, program, changed)`` — when given — is called after
    every pass execution; the ``python -m repro.clc dump`` subcommand
    uses it to print the IR between passes.
    """
    rewriters, analyses = pipeline_passes(level)
    if rewriters:
        for _round in range(MAX_PIPELINE_ROUNDS):
            changed = False
            for p in rewriters:
                changed |= _run_pass(p, program, observer)
            if not changed:
                break
    for p in analyses:
        _run_pass(p, program, observer)


def _run_pass(p, program: I.ProgramIR, observer=None) -> bool:
    from ... import trace

    registry = trace.get_registry()
    start = time.perf_counter()
    with trace.span(f"pass:{p.name}", category="clc"):
        changed = bool(p.run(program))
    registry.counter(f"clc.pass_{p.name}").inc()
    registry.counter(f"clc.pass_seconds_{p.name}").inc(
        time.perf_counter() - start)
    if observer is not None:
        observer(p.name, program, changed)
    return changed


def optimize_program(program: I.ProgramIR, opt_level: int,
                     observer=None) -> I.ProgramIR:
    """Optimize ``program`` in place and attach its kernel bytecode.

    Every level lowers: at O0 no rewriting pass runs (only the
    uniformity analysis, which tags but never rewrites), so the
    bytecode executes the front-end's tree exactly as written, which is
    what ``-cl-opt-disable`` promises.  At O1+ the rewriting passes run
    to fixpoint first.  :func:`repro.clc.lower.lower_program` then
    produces the flat register bytecode every engine executes.  The
    result (tree + bytecode + level) is what the persistent kernel
    cache serializes, so warm starts skip *both* the front-end and the
    middle-end.
    """
    from ... import trace
    from ..lower import lower_program

    level = _clamp(opt_level)
    program.opt_level = level
    with trace.span("optimize", category="clc", opt_level=level):
        run_pipeline(program, level, observer)
        program.bytecode = lower_program(program, level, PIPELINE_VERSION)
        verify_line_info(program)
    return program


#: bytecode ops the lowerer legitimately emits without source lines:
#: parameter/constant materialization and work-item-id prologue queries.
_LINE_EXEMPT_OPS = ("const", "wiq")


def verify_line_info(program: I.ProgramIR) -> None:
    """Check that lowering preserved source-line debug info.

    The per-line profiler (:mod:`repro.prof`) attributes modeled cost to
    kernel source lines through the ``line`` field of each bytecode
    instruction, so an optimizer pass or the lowerer dropping line info
    silently degrades attribution.  For every function whose *tree* IR is
    fully line-annotated (all statements and expressions carry a
    positive ``line``), every emitted instruction other than the exempt
    prologue ops must carry one too.  Functions with incomplete tree
    annotations — synthetic IR built by tests or tools — are skipped
    rather than reported, since the lowerer cannot invent lines the
    front-end never recorded.
    """
    if program.bytecode is None:
        return
    for func in program.functions.values():
        annotated = True
        for stmt in walk_stmts(func.body):
            if getattr(stmt, "line", 0) <= 0:
                annotated = False
                break
            for top in stmt_exprs(stmt):
                for expr in walk_exprs(top):
                    # constants lower to the exempt "const" op, and the
                    # folding pass synthesizes them without lines
                    if isinstance(expr, I.Const):
                        continue
                    if getattr(expr, "line", 0) <= 0:
                        annotated = False
                        break
                if not annotated:
                    break
            if not annotated:
                break
        if not annotated:
            continue
        bc = program.bytecode.functions.get(func.name)
        if bc is None:
            continue
        for ins in bc.instrs:
            if ins.op in _LINE_EXEMPT_OPS:
                continue
            if ins.line <= 0:
                raise AssertionError(
                    f"lowering dropped line info: {func.name!r} emitted "
                    f"{ins.op!r} (dst r{ins.dst}) with line=0 although the "
                    "source tree is fully annotated")


# -- IR walking helpers shared by the passes -------------------------------

def map_expr(expr, fn):
    """Post-order rewrite: children first, then ``fn`` on the node."""
    if isinstance(expr, I.Load):
        expr.index = map_expr(expr.index, fn)
    elif isinstance(expr, (I.Unary, I.Convert)):
        expr.operand = map_expr(expr.operand, fn)
    elif isinstance(expr, I.Binary):
        expr.lhs = map_expr(expr.lhs, fn)
        expr.rhs = map_expr(expr.rhs, fn)
    elif isinstance(expr, I.Select):
        expr.cond = map_expr(expr.cond, fn)
        expr.then = map_expr(expr.then, fn)
        expr.otherwise = map_expr(expr.otherwise, fn)
    elif isinstance(expr, (I.CallBuiltin, I.CallFunction)):
        expr.args = [map_expr(a, fn) for a in expr.args]
    return fn(expr)


def rewrite_stmt_exprs(stmt, fn) -> None:
    """Apply ``map_expr(..., fn)`` to every expression site of ``stmt``
    (recursing into nested statement lists)."""
    if isinstance(stmt, I.DeclVar):
        if stmt.init is not None:
            stmt.init = map_expr(stmt.init, fn)
    elif isinstance(stmt, I.Store):
        if stmt.target.index is not None:
            stmt.target.index = map_expr(stmt.target.index, fn)
        stmt.value = map_expr(stmt.value, fn)
    elif isinstance(stmt, I.AtomicRMW):
        if stmt.target.index is not None:
            stmt.target.index = map_expr(stmt.target.index, fn)
        if stmt.value is not None:
            stmt.value = map_expr(stmt.value, fn)
    elif isinstance(stmt, I.EvalExpr):
        stmt.expr = map_expr(stmt.expr, fn)
    elif isinstance(stmt, I.If):
        stmt.cond = map_expr(stmt.cond, fn)
        rewrite_block_exprs(stmt.then, fn)
        rewrite_block_exprs(stmt.otherwise, fn)
    elif isinstance(stmt, I.While):
        stmt.cond = map_expr(stmt.cond, fn)
        rewrite_block_exprs(stmt.body, fn)
        rewrite_block_exprs(stmt.update, fn)
    elif isinstance(stmt, I.Return):
        if stmt.value is not None:
            stmt.value = map_expr(stmt.value, fn)


def rewrite_block_exprs(stmts: list, fn) -> None:
    for stmt in stmts:
        rewrite_stmt_exprs(stmt, fn)


def walk_stmts(stmts: list):
    """Yield every statement, depth first."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, I.If):
            yield from walk_stmts(stmt.then)
            yield from walk_stmts(stmt.otherwise)
        elif isinstance(stmt, I.While):
            yield from walk_stmts(stmt.body)
            yield from walk_stmts(stmt.update)


def walk_exprs(expr):
    """Yield ``expr`` and every sub-expression."""
    yield expr
    if isinstance(expr, I.Load):
        yield from walk_exprs(expr.index)
    elif isinstance(expr, (I.Unary, I.Convert)):
        yield from walk_exprs(expr.operand)
    elif isinstance(expr, I.Binary):
        yield from walk_exprs(expr.lhs)
        yield from walk_exprs(expr.rhs)
    elif isinstance(expr, I.Select):
        yield from walk_exprs(expr.cond)
        yield from walk_exprs(expr.then)
        yield from walk_exprs(expr.otherwise)
    elif isinstance(expr, (I.CallBuiltin, I.CallFunction)):
        for a in expr.args:
            yield from walk_exprs(a)


def stmt_exprs(stmt):
    """Yield the top-level expressions a statement evaluates directly
    (not recursing into nested statement lists)."""
    if isinstance(stmt, I.DeclVar):
        if stmt.init is not None:
            yield stmt.init
    elif isinstance(stmt, I.Store):
        if stmt.target.index is not None:
            yield stmt.target.index
        yield stmt.value
    elif isinstance(stmt, I.AtomicRMW):
        if stmt.target.index is not None:
            yield stmt.target.index
        if stmt.value is not None:
            yield stmt.value
    elif isinstance(stmt, I.EvalExpr):
        yield stmt.expr
    elif isinstance(stmt, I.If):
        yield stmt.cond
    elif isinstance(stmt, I.While):
        yield stmt.cond
    elif isinstance(stmt, I.Return):
        if stmt.value is not None:
            yield stmt.value


def is_pure(expr) -> bool:
    """True when evaluating ``expr`` can neither fault nor have effects.

    Memory reads can trap on out-of-bounds indices and helper-function
    calls can do anything, so both pin an expression in place; every
    other node in the subset (arithmetic, selects, builtins, work-item
    queries) is total and side-effect free.
    """
    for e in walk_exprs(expr):
        if isinstance(e, (I.Load, I.CallFunction)):
            return False
    return True
