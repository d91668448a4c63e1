"""Constant folding and algebraic simplification.

Folded results are computed with the *same* NumPy-backed C semantics the
engines use (:mod:`repro.ocl.engines.carith`), so a folded expression is
bit-identical to what either engine would have produced at run time —
including integer wraparound, truncating division, shift-modulo-width
and float rounding.  Identities are only applied where C semantics make
them exact: e.g. ``x + 0`` is *not* folded for floats (``-0.0 + 0.0``
is ``+0.0``) but ``x - 0.0`` and ``x * 1.0`` are.
"""

from __future__ import annotations

import numpy as np

from ...ocl.engines.carith import (c_div, c_imod, c_shl, c_shr, to_dtype,
                                   truth)
from .. import ir as I
from ..builtins import BUILTINS
from ..types import INT
from .manager import (is_pure, map_expr, rewrite_stmt_exprs, walk_exprs,
                      walk_stmts)

_COMPARISONS = ("==", "!=", "<", ">", "<=", ">=")


def _const(type_, value, line):
    """A Const of ``type_`` holding ``value`` coerced to its dtype."""
    coerced = type_.np_dtype.type(np.asarray(to_dtype(value, type_.np_dtype)))
    return I.Const(type=type_, line=line, value=coerced.item())


def _typed(expr: I.Const):
    """Runtime value of a Const, exactly as the engines materialize it."""
    return expr.type.np_dtype.type(expr.value)


def _is_const(expr, value=None) -> bool:
    if not isinstance(expr, I.Const):
        return False
    if value is None:
        return True
    try:
        return _typed(expr) == value
    except (TypeError, ValueError):  # pragma: no cover
        return False


#: nodes no rule rewrites (a Load's index is folded as its child)
_LEAVES = (I.Var, I.Const, I.Load)


class FoldPass:
    name = "fold"

    def run(self, program: I.ProgramIR) -> bool:
        self._changed = False
        with np.errstate(all="ignore"):
            for func in program.functions.values():
                for stmt in walk_stmts(func.body):
                    self._fold_stmt(stmt)
        return self._changed

    def _fold_stmt(self, stmt) -> None:
        # rewrite only this statement's direct expressions; walk_stmts
        # already visits nested statements, so recursion here would fold
        # every inner statement once per nesting depth
        if isinstance(stmt, (I.If, I.While)):
            stmt.cond = map_expr(stmt.cond, self._fold)
        else:
            rewrite_stmt_exprs(stmt, self._fold)

    # -- the single-node rewrite (children already folded) ------------------

    def _fold(self, expr):
        if type(expr) in _LEAVES:
            return expr
        out = self._rewrite(expr)
        if out is not expr:
            self._changed = True
        return out

    def _fold_node(self, expr):
        with np.errstate(all="ignore"):
            return self._rewrite(expr)

    def _rewrite(self, expr):
        """The rule for ``expr``'s node type; the caller has entered
        ``np.errstate(all="ignore")``."""
        t = type(expr)
        if t is I.Binary:
            return self._fold_binary(expr)
        if t is I.Convert:
            return self._fold_convert(expr)
        if t is I.Unary:
            return self._fold_unary(expr)
        if t is I.Select:
            if _is_const(expr.cond):
                taken = (expr.then if truth(_typed(expr.cond))
                         else expr.otherwise)
                if taken.type is expr.type:
                    return taken
            return expr
        if t is I.CallBuiltin:
            return self._fold_builtin(expr)
        return expr

    def _fold_convert(self, expr: I.Convert):
        if _is_const(expr.operand):
            return _const(expr.type, _typed(expr.operand), expr.line)
        return expr

    def _fold_unary(self, expr: I.Unary):
        if not _is_const(expr.operand):
            return expr
        x = _typed(expr.operand)
        if expr.op == "-":
            return _const(expr.type, -x, expr.line)
        if expr.op == "~":
            return _const(expr.type, ~x, expr.line)
        if expr.op == "!" and expr.type is INT:
            return _const(INT, 0 if truth(x) else 1, expr.line)
        return expr

    def _fold_binary(self, expr: I.Binary):
        op, lhs, rhs = expr.op, expr.lhs, expr.rhs
        if _is_const(lhs) and _is_const(rhs):
            folded = self._eval_binary(expr, _typed(lhs), _typed(rhs))
            if folded is not None:
                return folded
        return self._simplify_binary(expr)

    def _eval_binary(self, expr: I.Binary, x, y):
        """The engines' binary-op semantics (:mod:`repro.ocl.engines
        .carith`) over two constants."""
        op = expr.op
        if op in _COMPARISONS:
            if expr.type is not INT:
                return None
            table = {"==": x == y, "!=": x != y, "<": x < y,
                     ">": x > y, "<=": x <= y, ">=": x >= y}
            return _const(INT, 1 if table[op] else 0, expr.line)
        if op == "&&":
            if expr.type is not INT:
                return None
            return _const(INT, 1 if truth(x) and truth(y) else 0, expr.line)
        if op == "||":
            if expr.type is not INT:
                return None
            return _const(INT, 1 if truth(x) or truth(y) else 0, expr.line)
        if op == "+":
            result = x + y
        elif op == "-":
            result = x - y
        elif op == "*":
            result = x * y
        elif op == "/":
            result = c_div(x, y, expr.type.is_float)
        elif op == "%":
            result = c_imod(x, y)
        elif op == "<<":
            result = c_shl(x, y)
        elif op == ">>":
            result = c_shr(x, y)
        elif op == "&":
            result = x & y
        elif op == "|":
            result = x | y
        elif op == "^":
            result = x ^ y
        else:  # pragma: no cover
            return None
        return _const(expr.type, result, expr.line)

    def _simplify_binary(self, expr: I.Binary):
        op, lhs, rhs = expr.op, expr.lhs, expr.rhs
        t = expr.type
        is_int = not t.is_float

        def same(side):
            # identity rewrites may only drop the node when the kept
            # operand already has the result type (no hidden conversion)
            return side.type is t

        if op == "*":
            if _is_const(rhs, 1) and same(lhs):
                return lhs
            if _is_const(lhs, 1) and same(rhs):
                return rhs
            if is_int and _is_const(rhs, 0) and is_pure(lhs):
                return _const(t, 0, expr.line)
            if is_int and _is_const(lhs, 0) and is_pure(rhs):
                return _const(t, 0, expr.line)
        elif op == "+":
            if is_int and _is_const(rhs, 0) and same(lhs):
                return lhs
            if is_int and _is_const(lhs, 0) and same(rhs):
                return rhs
        elif op == "-":
            # x - 0 is exact for floats too (unlike x + 0 with -0.0)
            if _is_const(rhs, 0) and same(lhs):
                return lhs
        elif op == "/":
            if _is_const(rhs, 1) and same(lhs):
                return lhs
        elif op == "%":
            if is_int and _is_const(rhs, 1) and is_pure(lhs):
                return _const(t, 0, expr.line)
        elif op in ("<<", ">>"):
            if _is_const(rhs, 0) and same(lhs):
                return lhs
        elif op == "&":
            if _is_const(rhs, 0) and is_pure(lhs):
                return _const(t, 0, expr.line)
            if _is_const(lhs, 0) and is_pure(rhs):
                return _const(t, 0, expr.line)
        elif op in ("|", "^"):
            if _is_const(rhs, 0) and same(lhs):
                return lhs
            if _is_const(lhs, 0) and same(rhs):
                return rhs
        elif op == "&&" and t is INT:
            if _is_const(lhs) and not truth(_typed(lhs)):
                return _const(INT, 0, expr.line)
            if _is_const(rhs) and not truth(_typed(rhs)) and is_pure(lhs):
                return _const(INT, 0, expr.line)
        elif op == "||" and t is INT:
            if _is_const(lhs) and truth(_typed(lhs)):
                return _const(INT, 1, expr.line)
            if _is_const(rhs) and truth(_typed(rhs)) and is_pure(lhs):
                return _const(INT, 1, expr.line)
        return expr

    def _fold_builtin(self, expr: I.CallBuiltin):
        if expr.name.startswith("get_"):
            return expr
        b = BUILTINS.get(expr.name)
        if b is None or not all(_is_const(a) for a in expr.args):
            return expr
        args = [_typed(a) for a in expr.args]
        try:
            result = b.impl(*args)
        except Exception:  # pragma: no cover - defensive
            return expr
        return _const(expr.type, result, expr.line)


#: the single-node rule on its own (children already folded); sema
#: folds the implicit conversion of a constant with it
fold_node = FoldPass()._fold_node


def constant_value(expr):
    """The value of the constant expression ``expr`` under the rules
    above, or None when it reads a variable or memory or does not
    reduce to a Const.  Sema evaluates array sizes, ``barrier`` flags
    and work-item dimensions with this.  Rewrites ``expr`` in place."""
    if any(isinstance(e, (I.Var, I.Load)) for e in walk_exprs(expr)):
        return None
    folded = map_expr(expr, fold_node)
    return folded.value if isinstance(folded, I.Const) else None
