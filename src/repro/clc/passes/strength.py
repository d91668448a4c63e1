"""Strength reduction (O2): divisions and remainders by constants.

Three exact rewrites:

* unsigned ``x / 2**k``  ->  ``x >> k``
* unsigned ``x % 2**k``  ->  ``x & (2**k - 1)``
* float ``x / c`` with ``c`` an exact power of two -> ``x * (1/c)``
  (the reciprocal of a power of two is exact in binary floating point,
  so the product rounds identically to the quotient)

Signed integer division is deliberately left alone: C truncates toward
zero while ``>>`` floors, so the shift form differs for negative values.
"""

from __future__ import annotations

import math

import numpy as np

from .. import ir as I
from ..types import INT
from .manager import map_expr, rewrite_stmt_exprs, walk_stmts


def _power_of_two_int(expr) -> int | None:
    """k when ``expr`` is a Const integer power of two ``2**k``, else None."""
    if not isinstance(expr, I.Const):
        return None
    try:
        v = int(expr.value)
    except (TypeError, ValueError):
        return None
    if v <= 0 or v & (v - 1):
        return None
    return v.bit_length() - 1


def _exact_float_reciprocal(expr):
    """``1/c`` when ``c`` is a Const float power of two whose reciprocal
    is exactly representable in the constant's dtype, else None."""
    if not isinstance(expr, I.Const):
        return None
    try:
        c = float(expr.value)
    except (TypeError, ValueError):
        return None
    if not math.isfinite(c) or c == 0.0:
        return None
    mantissa, _ = math.frexp(c)
    if abs(mantissa) != 0.5:
        return None
    recip = 1.0 / c
    typed = expr.type.np_dtype.type(recip)
    if not np.isfinite(typed) or typed == 0.0 or float(typed) != recip:
        return None
    return recip


class StrengthReducePass:
    name = "strength_reduce"

    def run(self, program: I.ProgramIR) -> bool:
        self._changed = False
        for func in program.functions.values():
            for stmt in walk_stmts(func.body):
                if not isinstance(stmt, (I.If, I.While)):
                    rewrite_stmt_exprs(stmt, self._reduce)
                else:
                    stmt.cond = map_expr(stmt.cond, self._reduce)
        return self._changed

    def _reduce(self, expr):
        out = self._reduce_node(expr)
        if out is not expr:
            self._changed = True
        return out

    def _reduce_node(self, expr):
        if not isinstance(expr, I.Binary):
            return expr
        t = expr.type
        if expr.lhs.type is not t:
            return expr
        if t.is_float:
            if expr.op == "/":
                recip = _exact_float_reciprocal(expr.rhs)
                if recip is not None:
                    return I.Binary(
                        type=t, line=expr.line, op="*", lhs=expr.lhs,
                        rhs=I.Const(type=t, line=expr.rhs.line,
                                    value=t.np_dtype.type(recip).item()))
            return expr
        if t.signed:
            return expr
        if expr.op == "/":
            k = _power_of_two_int(expr.rhs)
            if k is not None:
                return I.Binary(
                    type=t, line=expr.line, op=">>", lhs=expr.lhs,
                    rhs=I.Const(type=INT, line=expr.rhs.line, value=k))
        elif expr.op == "%":
            k = _power_of_two_int(expr.rhs)
            if k is not None:
                mask = t.np_dtype.type((1 << k) - 1).item()
                return I.Binary(
                    type=t, line=expr.line, op="&", lhs=expr.lhs,
                    rhs=I.Const(type=t, line=expr.rhs.line, value=mask))
        return expr
