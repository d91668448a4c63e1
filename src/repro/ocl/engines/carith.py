"""C arithmetic semantics on top of NumPy.

NumPy's integer division/modulo floor toward negative infinity; C (and
OpenCL C) truncate toward zero.  Shifts in OpenCL take the amount modulo
the bit width.  These helpers implement the C behaviour for both array and
scalar operands, and are shared by every execution backend so no two can
disagree.  :func:`binary_value` / :func:`compare_value` are the single
bytecode arithmetic dispatch used by the serial and vector interpreters
(previously two identical if/elif tables) and by the JIT code generator,
which emits the same expressions these helpers compute.
"""

from __future__ import annotations

import numpy as np

from ...clc.lower import (OP_ADD, OP_BAND, OP_BOR, OP_CEQ, OP_CGE, OP_CGT,
                          OP_CLE, OP_CLT, OP_CNE, OP_DIV, OP_LAND, OP_MOD,
                          OP_MUL, OP_SHL, OP_SHR, OP_SUB)


def c_idiv_raw(a, b):
    """:func:`c_idiv` without the errstate guard — for callers already
    running under ``np.errstate(all="ignore")`` (the engines' launch
    loop, the JIT's generated code)."""
    # np.fmod on integers is the C '%' (remainder has the dividend's
    # sign), so truncated division is (a - fmod(a, b)) / b exactly
    if np.ndim(b) == 0 and b != 0:
        # scalar nonzero divisor (the common shape: ``x / N``) — skip
        # the div-by-zero select entirely
        return (a - np.fmod(a, b)) // b
    b_safe = np.where(b == 0, 1, b)
    q = (a - np.fmod(a, b_safe)) // b_safe
    return np.where(b == 0, np.asarray(0, dtype=np.result_type(q)), q)


def c_idiv(a, b):
    """C integer division: truncation toward zero, div-by-zero yields 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return c_idiv_raw(a, b)


def c_imod_raw(a, b):
    """:func:`c_imod` without the errstate guard (see
    :func:`c_idiv_raw`)."""
    if np.ndim(b) == 0 and b != 0:
        return np.fmod(a, b)
    return np.where(b == 0, np.asarray(0, dtype=np.result_type(a)),
                    np.fmod(a, np.where(b == 0, 1, b)))


def c_imod(a, b):
    """C integer remainder: ``a - b * c_idiv(a, b)`` (sign of ``a``)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return c_imod_raw(a, b)


def _shift_amount(a, b):
    """``b`` modulo the bit width of ``a``.  NumPy has no ``uint64``
    shift by a signed amount, so a ``ulong`` operand gets an unsigned
    one."""
    dtype = np.result_type(a)
    bits = dtype.itemsize * 8
    if not hasattr(b, "astype"):
        return int(b) % bits
    amount = b.astype(np.int64) % bits
    return amount.astype(dtype) if dtype == np.uint64 else amount


def c_shl(a, b):
    """OpenCL ``<<``: shift amount taken modulo the bit width of ``a``."""
    return a << _shift_amount(a, b)


def c_shr(a, b):
    """OpenCL ``>>`` (arithmetic for signed, logical for unsigned)."""
    return a >> _shift_amount(a, b)


def c_div(a, b, is_float: bool):
    """C ``/`` for either float or integer operand types."""
    if is_float:
        with np.errstate(divide="ignore", invalid="ignore"):
            return a / b
    return c_idiv(a, b)


def truth(x):
    """C truthiness of a value/array: nonzero -> 1."""
    return x != 0


def binary_value(op: int, lhs, rhs, is_float):
    """Raw (pre-``to_dtype``) result of an ``OP_ADD..OP_BXOR`` bytecode
    arithmetic instruction on scalar or lane-array operands."""
    if op == OP_ADD:
        return lhs + rhs
    if op == OP_SUB:
        return lhs - rhs
    if op == OP_MUL:
        return lhs * rhs
    if op == OP_DIV:
        return c_div(lhs, rhs, is_float)
    if op == OP_MOD:
        return c_imod(lhs, rhs)
    if op == OP_SHL:
        return c_shl(lhs, rhs)
    if op == OP_SHR:
        return c_shr(lhs, rhs)
    if op == OP_BAND:
        return lhs & rhs
    if op == OP_BOR:
        return lhs | rhs
    return lhs ^ rhs  # OP_BXOR


def compare_value(op: int, lhs, rhs):
    """Boolean result of an ``OP_CEQ..OP_LOR`` bytecode comparison
    (callers coerce to the C ``int`` result themselves)."""
    if op == OP_CEQ:
        return lhs == rhs
    if op == OP_CNE:
        return lhs != rhs
    if op == OP_CLT:
        return lhs < rhs
    if op == OP_CGT:
        return lhs > rhs
    if op == OP_CLE:
        return lhs <= rhs
    if op == OP_CGE:
        return lhs >= rhs
    if op == OP_LAND:
        return truth(lhs) & truth(rhs)
    return truth(lhs) | truth(rhs)  # OP_LOR


def to_dtype(value, np_dtype):
    """Convert a value/array to ``np_dtype`` with C truncation semantics.

    A float converted to an integer type truncates toward zero, and a
    NaN or infinity becomes 0.  This is a handful of ufunc calls on
    the whole array: trunc, zero the non-finite lanes (only if there
    are any), cast to ``int64``, narrow.
    """
    arr = np.asarray(value)
    if arr.dtype.kind == "f" and np.dtype(np_dtype).kind in "iu":
        with np.errstate(invalid="ignore", over="ignore"):
            t = np.trunc(arr)
            finite = np.isfinite(t)
            if t.ndim:
                if np.count_nonzero(finite) != t.size:
                    t[~finite] = 0.0
            elif not finite:
                t = t.dtype.type(0.0)
            # cast via int64 first so out-of-range values wrap instead of
            # raising on platforms where float->small-int is checked
            return t.astype(np.int64).astype(np_dtype, copy=False)
    with np.errstate(over="ignore", invalid="ignore"):
        return arr.astype(np_dtype, copy=False)
