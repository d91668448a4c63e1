"""Kernel AST captured while tracing an HPL kernel function.

When ``eval(f)(...)`` first runs a kernel, the Python function ``f`` is
executed once over *proxy* arguments.  Every arithmetic operation,
indexing, assignment and control-flow construct performed on the proxies
builds nodes of this AST instead of computing values — the same
operator-overloading capture the C++ HPL library performs (paper §III).
:mod:`repro.hpl.codegen` then turns the AST into OpenCL C.

Python cannot overload ``=``, so plain scalar assignment is spelled
``v.assign(expr)``; augmented assignments (``+=`` ...) work natively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import KernelCaptureError
from . import dtypes as D

# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------

_COMPARISONS = ("==", "!=", "<", ">", "<=", ">=")
_BOOL_OPS = ("&&", "||")


def as_expr(value, hint: D.HPLType | None = None) -> "Expr":
    """Coerce a Python value or expression into an AST node.

    Bare Python numbers become *adaptive* constants: they adopt the type
    of the expression they combine with (so ``v * 0.5`` stays ``float``
    when ``v`` is a float array), matching how literals are written by
    hand in OpenCL C kernels.
    """
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return Const(int(value), D.int_)
    if isinstance(value, int):
        return Const(value, hint if hint is not None else None)
    if isinstance(value, float):
        if hint is not None and hint.is_float:
            return Const(value, hint)
        return Const(value, None)
    import numpy as np
    if isinstance(value, np.integer):
        return Const(int(value), D.from_numpy_dtype(value.dtype))
    if isinstance(value, np.floating):
        return Const(float(value), D.from_numpy_dtype(value.dtype))
    raise KernelCaptureError(
        f"cannot use a {type(value).__name__} inside an HPL kernel "
        "expression")


def _combine(a: D.HPLType | None, b: D.HPLType | None,
             float_literal: bool) -> D.HPLType | None:
    """Result type of a binary op where either side may be untyped."""
    if a is not None and b is not None:
        return D.promote(a, b)
    known = a if a is not None else b
    if known is None:
        return None
    if float_literal and not known.is_float:
        return D.double_
    return known


class Expr:
    """Base class of all kernel expressions (operator-overloading mixin)."""

    dtype: D.HPLType | None = None

    # -- arithmetic -------------------------------------------------------

    def _bin(self, op: str, other, reflected: bool = False) -> "Expr":
        rhs = as_expr(other, hint=self.dtype)
        lhs: Expr = self
        if reflected:
            lhs, rhs = rhs, lhs
        float_lit = (isinstance(other, float)
                     or (isinstance(lhs, Const) and lhs.dtype is None
                         and isinstance(lhs.value, float)))
        if op in _COMPARISONS or op in _BOOL_OPS:
            dtype = D.int_
        else:
            dtype = _combine(lhs.dtype, rhs.dtype, float_lit)
        return BinOp(op, lhs, rhs, dtype)

    def __add__(self, other):
        return self._bin("+", other)

    def __radd__(self, other):
        return self._bin("+", other, True)

    def __sub__(self, other):
        return self._bin("-", other)

    def __rsub__(self, other):
        return self._bin("-", other, True)

    def __mul__(self, other):
        return self._bin("*", other)

    def __rmul__(self, other):
        return self._bin("*", other, True)

    def __truediv__(self, other):
        return self._bin("/", other)

    def __rtruediv__(self, other):
        return self._bin("/", other, True)

    def __mod__(self, other):
        return self._bin("%", other)

    def __rmod__(self, other):
        return self._bin("%", other, True)

    def __lshift__(self, other):
        return self._bin("<<", other)

    def __rshift__(self, other):
        return self._bin(">>", other)

    def __and__(self, other):
        return self._bin("&", other)

    def __rand__(self, other):
        return self._bin("&", other, True)

    def __or__(self, other):
        return self._bin("|", other)

    def __ror__(self, other):
        return self._bin("|", other, True)

    def __xor__(self, other):
        return self._bin("^", other)

    def __rxor__(self, other):
        return self._bin("^", other, True)

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):  # type: ignore[override]
        return self._bin("==", other)

    def __ne__(self, other):  # type: ignore[override]
        return self._bin("!=", other)

    def __lt__(self, other):
        return self._bin("<", other)

    def __le__(self, other):
        return self._bin("<=", other)

    def __gt__(self, other):
        return self._bin(">", other)

    def __ge__(self, other):
        return self._bin(">=", other)

    __hash__ = None  # expressions are not hashable (== builds AST)

    # -- unary -------------------------------------------------------------

    def __neg__(self):
        return UnOp("-", self, self.dtype)

    def __pos__(self):
        return self

    def __invert__(self):
        return UnOp("~", self, self.dtype)

    # -- guards -------------------------------------------------------------

    def __bool__(self):
        raise KernelCaptureError(
            "an HPL kernel expression has no Python truth value: use if_/"
            "while_ constructs instead of Python if/while on kernel data")

    def __iter__(self):
        raise KernelCaptureError(
            "HPL kernel expressions are not iterable; index them "
            "explicitly")


@dataclass(eq=False)
class Const(Expr):
    value: object
    dtype: D.HPLType | None = None


@dataclass(eq=False)
class VarRef(Expr):
    """A private scalar variable or by-value scalar parameter."""
    name: str
    dtype: D.HPLType = None
    is_param: bool = False


@dataclass(eq=False)
class PredefinedRef(Expr):
    """idx/lidx/gidx/szx/... — resolved by codegen to get_*_id calls."""
    name: str
    dtype: D.HPLType = field(default_factory=lambda: D.int_)


@dataclass(eq=False)
class IndexRef(Expr):
    """``array[indices...]`` used as a value."""
    array: object            # ArrayHandle (proxy or declaration)
    indices: list = field(default_factory=list)
    dtype: D.HPLType = None


@dataclass(eq=False)
class BinOp(Expr):
    op: str
    lhs: Expr = None
    rhs: Expr = None
    dtype: D.HPLType | None = None


@dataclass(eq=False)
class UnOp(Expr):
    op: str
    operand: Expr = None
    dtype: D.HPLType | None = None


@dataclass(eq=False)
class Call(Expr):
    """Call of a device builtin (sqrt, fmin, ...)."""
    name: str
    args: list = field(default_factory=list)
    dtype: D.HPLType | None = None


@dataclass(eq=False)
class Cast(Expr):
    target: D.HPLType = None
    operand: Expr = None

    def __post_init__(self):
        self.dtype = self.target


@dataclass(eq=False)
class Ternary(Expr):
    """``where(cond, a, b)`` — the C ternary operator."""
    cond: Expr = None
    then: Expr = None
    otherwise: Expr = None
    dtype: D.HPLType | None = None


# ---------------------------------------------------------------------------
# statement nodes
# ---------------------------------------------------------------------------

@dataclass
class Stmt:
    pass


@dataclass
class DeclScalar(Stmt):
    name: str
    dtype: D.HPLType
    init: Expr | None = None


@dataclass
class DeclArray(Stmt):
    name: str
    dtype: D.HPLType
    shape: tuple
    mem: str = D.PRIVATE      # private | local


@dataclass
class Assign(Stmt):
    """``target op value`` where op is '=', '+=', '-=', ...  The target is
    a VarRef or IndexRef."""
    target: Expr
    op: str
    value: Expr


@dataclass
class If(Stmt):
    branches: list = field(default_factory=list)  # [(cond|None, body)]


@dataclass
class For(Stmt):
    """``for (var = start; var < limit; var += step)`` (paper's for_)."""
    var: VarRef = None
    start: Expr = None
    limit: Expr = None
    step: Expr = None
    body: list = field(default_factory=list)
    #: comparison used against limit ('<' default, '>' for negative steps)
    cmp: str = "<"


@dataclass
class While(Stmt):
    cond: Expr = None
    body: list = field(default_factory=list)


@dataclass
class Barrier(Stmt):
    flags: int = 1


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Return(Stmt):
    pass


# ---------------------------------------------------------------------------
# helpers used across the capture machinery
# ---------------------------------------------------------------------------

def resolve_untyped(expr: Expr, target: D.HPLType) -> Expr:
    """Give an untyped literal constant a concrete type."""
    if isinstance(expr, Const) and expr.dtype is None:
        return Const(expr.value, target)
    return expr


def eval_host(expr) -> object:
    """Evaluate a *constant* expression tree on the host (for domain
    sizes given as expressions); raises if it references kernel state."""
    if isinstance(expr, (int, float)):
        return expr
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, UnOp) and expr.op == "-":
        return -eval_host(expr.operand)
    if isinstance(expr, BinOp):
        a, b = eval_host(expr.lhs), eval_host(expr.rhs)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            return a // b if isinstance(a, int) and isinstance(b, int) \
                else a / b
        if expr.op == "%":
            return a % b if isinstance(a, int) else math.fmod(a, b)
    raise KernelCaptureError("expected a host-evaluable constant expression")
