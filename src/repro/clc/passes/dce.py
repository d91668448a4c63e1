"""Dead-code elimination: unused locals, dead stores, dead branches.

Runs interleaved with constant folding: folding turns conditions into
constants, this pass deletes the untaken branch, which exposes further
folds.  Liveness is name-based and deliberately conservative — a scalar
variable is removable only when *no* expression anywhere in the function
mentions it, so no flow analysis can be wrong about loops or barriers.
One run recomputes liveness and cleans again until a sweep removes
nothing, so a dead store, the declaration nothing assigns after it and
the stores that only fed it all go in one run.

``__local`` array declarations are always kept even when unused: they
participate in the engines' local-memory accounting (occupancy and
:class:`~repro.errors.OutOfResources` checks), which must not change
with the opt level.
"""

from __future__ import annotations

from ...ocl.engines.carith import truth
from .. import ir as I
from .manager import is_pure, stmt_exprs, walk_exprs, walk_stmts


def _collect_liveness(func: I.Function):
    """(reads, assigned): names any expression observes, and names that
    some remaining scalar store or declaration initializer assigns."""
    reads: set[str] = set()
    assigned: set[str] = set()
    for stmt in walk_stmts(func.body):
        if isinstance(stmt, (I.Store, I.AtomicRMW)):
            if stmt.target.index is not None:
                reads.add(stmt.target.name)
            elif isinstance(stmt, I.Store):
                assigned.add(stmt.target.name)
        for expr in stmt_exprs(stmt):
            for e in walk_exprs(expr):
                if isinstance(e, I.Var):
                    reads.add(e.name)
                elif isinstance(e, I.Load):
                    reads.add(e.base)
    return reads, assigned


def _const_truth(expr) -> bool | None:
    if isinstance(expr, I.Const):
        return bool(truth(expr.type.np_dtype.type(expr.value)))
    return None


class DeadCodePass:
    name = "dce"

    def run(self, program: I.ProgramIR) -> bool:
        changed = False
        for func in program.functions.values():
            # every sweep that reports a change removes statements, so
            # the loop ends
            while self._sweep(func):
                changed = True
        return changed

    def _sweep(self, func: I.Function) -> bool:
        """One liveness computation and one cleaning walk of ``func``."""
        self._reads, self._assigned = _collect_liveness(func)
        out, changed = self._clean_block(func.body)
        func.body[:] = out
        return changed

    def _clean_block(self, stmts: list):
        out: list = []
        changed = False
        for i, stmt in enumerate(stmts):
            kept, stmt_changed = self._clean_stmt(stmt)
            changed |= stmt_changed
            out.extend(kept)
            if kept and isinstance(kept[-1],
                                   (I.Return, I.Break, I.Continue)):
                if i + 1 < len(stmts):
                    changed = True   # drop unreachable trailing statements
                break
        return out, changed

    def _clean_stmt(self, stmt):
        if isinstance(stmt, I.DeclVar):
            if stmt.name not in self._reads \
                    and stmt.name not in self._assigned \
                    and (stmt.init is None or is_pure(stmt.init)):
                return [], True
            return [stmt], False
        if isinstance(stmt, I.DeclArray):
            if stmt.space != "local" and stmt.name not in self._reads:
                return [], True
            return [stmt], False
        if isinstance(stmt, I.Store):
            if stmt.target.index is None \
                    and stmt.target.name not in self._reads \
                    and is_pure(stmt.value):
                return [], True
            return [stmt], False
        if isinstance(stmt, I.EvalExpr):
            if is_pure(stmt.expr):
                return [], True
            return [stmt], False
        if isinstance(stmt, I.If):
            return self._clean_if(stmt)
        if isinstance(stmt, I.While):
            return self._clean_while(stmt)
        return [stmt], False

    def _clean_if(self, stmt: I.If):
        known = _const_truth(stmt.cond)
        if known is not None:
            taken = stmt.then if known else stmt.otherwise
            cleaned, _ = self._clean_block(taken)
            return cleaned, True
        then, c1 = self._clean_block(stmt.then)
        otherwise, c2 = self._clean_block(stmt.otherwise)
        stmt.then[:] = then
        stmt.otherwise[:] = otherwise
        if not then and not otherwise and is_pure(stmt.cond):
            return [], True
        return [stmt], c1 or c2

    def _clean_while(self, stmt: I.While):
        known = _const_truth(stmt.cond)
        if known is False and not stmt.is_do_while:
            return [], True
        body, c1 = self._clean_block(stmt.body)
        update, c2 = self._clean_block(stmt.update)
        stmt.body[:] = body
        stmt.update[:] = update
        return [stmt], c1 or c2
