"""HPL data types (paper §III-A).

``Array<type, ndim [, memoryFlag]>`` is the C++ template; here the element
types are :class:`HPLType` instances (``double_``, ``float_``, ``int_``,
...) and the convenience scalar classes ``Int``, ``Uint``, ``Double``, ...
play the same role as in the paper: host-side scalar containers that are
also usable to declare private scalar variables inside kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..clc import types as T

# Memory flags (paper §III-A) ---------------------------------------------------

GLOBAL = "global"
LOCAL = "local"
CONSTANT = "constant"
PRIVATE = "private"

#: aliases matching the paper's capitalised flag names
Global = GLOBAL
Local = LOCAL
Constant = CONSTANT
Private = PRIVATE


@dataclass(frozen=True)
class HPLType:
    """An element type usable in HPL Arrays and scalars."""

    name: str                 # OpenCL C spelling
    cl: T.ScalarType          # the compiler's scalar type

    @property
    def np_dtype(self) -> np.dtype:
        return self.cl.np_dtype

    @property
    def is_float(self) -> bool:
        return self.cl.is_float

    @property
    def itemsize(self) -> int:
        return self.cl.size

    def __str__(self) -> str:
        return self.name


int_ = HPLType("int", T.INT)
uint_ = HPLType("uint", T.UINT)
long_ = HPLType("long", T.LONG)
ulong_ = HPLType("ulong", T.ULONG)
short_ = HPLType("short", T.SHORT)
ushort_ = HPLType("ushort", T.USHORT)
char_ = HPLType("char", T.CHAR)
uchar_ = HPLType("uchar", T.UCHAR)
float_ = HPLType("float", T.FLOAT)
double_ = HPLType("double", T.DOUBLE)

ALL_TYPES = (int_, uint_, long_, ulong_, short_, ushort_, char_, uchar_,
             float_, double_)

_BY_NP = {t.np_dtype: t for t in ALL_TYPES}


def from_numpy_dtype(dtype) -> HPLType:
    """The HPL type matching a NumPy dtype (KeyError if unsupported)."""
    return _BY_NP[np.dtype(dtype)]


def infer_scalar_type(value) -> HPLType:
    """HPL type for a bare Python/NumPy scalar passed to a kernel."""
    if isinstance(value, (bool, np.bool_)):
        return int_
    if isinstance(value, (int, np.integer)):
        if isinstance(value, np.integer):
            return from_numpy_dtype(value.dtype)
        return int_ if -(2**31) <= value < 2**31 else long_
    if isinstance(value, (float, np.floating)):
        if isinstance(value, np.float32):
            return float_
        return double_
    raise TypeError(f"cannot infer an HPL scalar type for {value!r}")


def promote(a: HPLType, b: HPLType) -> HPLType:
    """The C usual-arithmetic-conversion result of two HPL types."""
    return from_numpy_dtype(
        T.usual_arithmetic_conversion(a.cl, b.cl).np_dtype)
