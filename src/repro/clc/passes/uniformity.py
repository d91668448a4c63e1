"""Work-item uniformity analysis.

Classifies every expression and scalar variable on a three-level
lattice:

* ``LAUNCH`` (2) — the value is identical for *every* work-item of the
  launch (constants, ``get_global_size``, loop counters of uniform
  loops, ...).
* ``GROUP`` (1) — identical within one work-group but not across groups
  (anything derived from ``get_group_id``).
* ``VARYING`` (0) — may differ between work-items (``get_global_id``,
  memory loads, helper-call results).

The analysis is a greatest-fixpoint dataflow: variables start at
``LAUNCH`` and are lowered by every assignment to the minimum of the
assigned value's level and the *control level* of the assignment (an
assignment under a varying branch makes the variable varying even if
the value is uniform, because some items skip it).  ``break`` /
``continue`` lower the control level of their loop, ``return`` lowers
the whole function — so a ``LAUNCH`` classification really does mean
"all lanes execute this in lock step with the same value", which is
what lets the lock-step engine compute such expressions once as scalars
instead of per-lane arrays.

Results are attached as ``expr._uniform`` (an ad-hoc attribute the IR
codec ignores) and ``func._uniform_vars``; the bytecode lowerer bakes
them into instruction flags.
"""

from __future__ import annotations

from .. import ir as I
from .manager import walk_stmts

LAUNCH = 2
GROUP = 1
VARYING = 0

#: work-item query functions by result level
_BUILTIN_LEVELS = {
    "get_global_size": LAUNCH, "get_local_size": LAUNCH,
    "get_num_groups": LAUNCH, "get_work_dim": LAUNCH,
    "get_global_offset": LAUNCH,
    "get_group_id": GROUP,
    "get_global_id": VARYING, "get_local_id": VARYING,
}


class UniformityPass:
    name = "uniformity"

    def run(self, program: I.ProgramIR) -> bool:
        for func in program.functions.values():
            self._analyze(func)
        return False   # analysis only — never rewrites the tree

    def _analyze(self, func: I.Function) -> None:
        levels: dict[str, int] = {}
        for p in func.params:
            # scalar kernel args are set once per launch; helper-function
            # parameters take per-call (hence potentially per-item) values
            levels[p.name] = LAUNCH if func.is_kernel else VARYING
        for stmt in walk_stmts(func.body):
            if isinstance(stmt, I.DeclVar):
                levels.setdefault(stmt.name, LAUNCH)
            elif isinstance(stmt, I.DeclArray):
                levels.setdefault(stmt.name, VARYING)
        self._levels = levels
        self._loop_floors: dict[int, int] = {}
        self._loop_stack: list[int] = []
        self._func_floor = LAUNCH if func.is_kernel else VARYING

        # every walk tags the expressions it visits, so the first walk
        # that lowers nothing has tagged them with the settled levels
        for _ in range(64):   # |lattice| * |vars| bounds real iteration
            self._changed = False
            self._visit_block(func.body, self._func_floor)
            if not self._changed:
                break
        else:
            # the cap cut iteration short: tag with the levels reached
            self._visit_block(func.body, self._func_floor)
        func._uniform_vars = dict(levels)

    def _lower_var(self, name: str, level: int) -> None:
        old = self._levels.get(name, VARYING)
        if level < old:
            self._levels[name] = level
            self._changed = True

    def _lower_func(self, level: int) -> None:
        if level < self._func_floor:
            self._func_floor = level
            self._changed = True

    # -- statements ---------------------------------------------------------

    def _visit_block(self, stmts: list, ctrl: int) -> None:
        for stmt in stmts:
            ctrl = min(ctrl, self._func_floor)
            if isinstance(stmt, I.DeclVar):
                lvl = (self._expr(stmt.init) if stmt.init is not None
                       else LAUNCH)
                self._lower_var(stmt.name, min(lvl, ctrl))
            elif isinstance(stmt, I.Store):
                lvl = self._expr(stmt.value)
                if stmt.target.index is None:
                    self._lower_var(stmt.target.name, min(lvl, ctrl))
                else:
                    self._expr(stmt.target.index)
            elif isinstance(stmt, I.AtomicRMW):
                if stmt.target.index is not None:
                    self._expr(stmt.target.index)
                if stmt.value is not None:
                    self._expr(stmt.value)
            elif isinstance(stmt, I.EvalExpr):
                self._expr(stmt.expr)
            elif isinstance(stmt, I.If):
                inner = min(ctrl, self._expr(stmt.cond))
                self._visit_block(stmt.then, inner)
                self._visit_block(stmt.otherwise, inner)
            elif isinstance(stmt, I.While):
                floor = self._loop_floors.setdefault(id(stmt), LAUNCH)
                inner = min(ctrl, self._expr(stmt.cond), floor)
                self._loop_stack.append(id(stmt))
                self._visit_block(stmt.body, inner)
                self._visit_block(stmt.update, inner)
                self._loop_stack.pop()
            elif isinstance(stmt, (I.Break, I.Continue)):
                if self._loop_stack:
                    loop_id = self._loop_stack[-1]
                    if ctrl < self._loop_floors.get(loop_id, LAUNCH):
                        self._loop_floors[loop_id] = ctrl
                        self._changed = True
            elif isinstance(stmt, I.Return):
                if stmt.value is not None:
                    self._expr(stmt.value)
                self._lower_func(ctrl)

    # -- expressions --------------------------------------------------------

    def _expr(self, expr) -> int:
        lvl = self._expr_level(expr)
        expr._uniform = lvl
        return lvl

    def _expr_level(self, expr) -> int:
        if isinstance(expr, I.Const):
            return LAUNCH
        if isinstance(expr, I.Var):
            return self._levels.get(expr.name, VARYING)
        if isinstance(expr, I.Load):
            self._expr(expr.index)
            return VARYING
        if isinstance(expr, (I.Unary, I.Convert)):
            return self._expr(expr.operand)
        if isinstance(expr, I.Binary):
            return min(self._expr(expr.lhs), self._expr(expr.rhs))
        if isinstance(expr, I.Select):
            return min(self._expr(expr.cond), self._expr(expr.then),
                       self._expr(expr.otherwise))
        if isinstance(expr, I.CallBuiltin):
            arg_lvl = LAUNCH
            for a in expr.args:
                arg_lvl = min(arg_lvl, self._expr(a))
            base = _BUILTIN_LEVELS.get(expr.name)
            if base is not None:
                return base
            return arg_lvl
        if isinstance(expr, I.CallFunction):
            for a in expr.args:
                self._expr(a)
            return VARYING
        return VARYING
