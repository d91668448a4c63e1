"""The OpenCL C scalar/pointer/array type system used by sema and engines.

Only the scalar subset (plus pointers into the four address spaces and
fixed-size private/local arrays) is modelled; vector types (``float4``...)
are outside the subset — see DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

import numpy as np

# Address spaces ---------------------------------------------------------------

GLOBAL = "global"
LOCAL = "local"
CONSTANT = "constant"
PRIVATE = "private"

ADDRESS_SPACES = (GLOBAL, LOCAL, CONSTANT, PRIVATE)


@dataclass(frozen=True)
class CLType:
    """Base class for all types."""

    def __str__(self) -> str:  # pragma: no cover - overridden
        return "<?>"

    @property
    def is_scalar(self) -> bool:
        return False

    @property
    def is_pointer(self) -> bool:
        return False

    @property
    def is_array(self) -> bool:
        return False

    @property
    def is_void(self) -> bool:
        return False


@dataclass(frozen=True)
class VoidType(CLType):
    @property
    def is_void(self) -> bool:
        return True

    def __str__(self) -> str:
        return "void"


@total_ordering
@dataclass(frozen=True, eq=False)
class ScalarType(CLType):
    """An arithmetic scalar type.

    ``rank`` orders types for the usual arithmetic conversions; equal-rank
    signed/unsigned pairs convert to the unsigned member as in C.
    """

    name: str
    np_dtype: np.dtype
    rank: int
    signed: bool
    is_float: bool

    @property
    def is_scalar(self) -> bool:
        return True

    @property
    def size(self) -> int:
        return np.dtype(self.np_dtype).itemsize

    def __str__(self) -> str:
        return self.name

    # identity-based equality: the scalar types below are singletons
    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        return id(self)

    def __lt__(self, other: "ScalarType") -> bool:
        return (self.rank, not self.signed) < (other.rank, not other.signed)


@dataclass(frozen=True)
class PointerType(CLType):
    pointee: CLType
    address_space: str = GLOBAL

    @property
    def is_pointer(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"__{self.address_space} {self.pointee}*"


@dataclass(frozen=True)
class ArrayType(CLType):
    """A fixed-size in-kernel array (``__local float s[64];``)."""

    element: CLType
    size: int
    address_space: str = PRIVATE

    @property
    def is_array(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"__{self.address_space} {self.element}[{self.size}]"


# Singleton scalar instances ------------------------------------------------------

VOID = VoidType()

BOOL = ScalarType("bool", np.dtype(np.int8), 0, True, False)
CHAR = ScalarType("char", np.dtype(np.int8), 1, True, False)
UCHAR = ScalarType("uchar", np.dtype(np.uint8), 1, False, False)
SHORT = ScalarType("short", np.dtype(np.int16), 2, True, False)
USHORT = ScalarType("ushort", np.dtype(np.uint16), 2, False, False)
INT = ScalarType("int", np.dtype(np.int32), 3, True, False)
UINT = ScalarType("uint", np.dtype(np.uint32), 3, False, False)
LONG = ScalarType("long", np.dtype(np.int64), 4, True, False)
ULONG = ScalarType("ulong", np.dtype(np.uint64), 4, False, False)
SIZE_T = ScalarType("size_t", np.dtype(np.uint64), 4, False, False)
FLOAT = ScalarType("float", np.dtype(np.float32), 5, True, True)
DOUBLE = ScalarType("double", np.dtype(np.float64), 6, True, True)

#: Name → type lookup used by the parser/sema.
SCALAR_TYPES: dict[str, ScalarType] = {
    t.name: t for t in (BOOL, CHAR, UCHAR, SHORT, USHORT, INT, UINT,
                        LONG, ULONG, SIZE_T, FLOAT, DOUBLE)
}
SCALAR_TYPES["ptrdiff_t"] = LONG

INTEGER_TYPES = tuple(t for t in SCALAR_TYPES.values() if not t.is_float)
FLOAT_TYPES = (FLOAT, DOUBLE)


def promote(t: ScalarType) -> ScalarType:
    """C integer promotion: anything smaller than ``int`` becomes ``int``."""
    if not t.is_float and t.rank < INT.rank:
        return INT
    return t


def usual_arithmetic_conversion(a: ScalarType, b: ScalarType) -> ScalarType:
    """The common type of a binary arithmetic expression, per C rules."""
    a, b = promote(a), promote(b)
    if a is b:
        return a
    if a.is_float or b.is_float:
        if DOUBLE in (a, b):
            return DOUBLE
        if a.is_float and b.is_float:
            return FLOAT
        return a if a.is_float else b
    # both integers
    hi = a if (a.rank, not a.signed) >= (b.rank, not b.signed) else b
    lo = b if hi is a else a
    if hi.rank == lo.rank and hi.signed != lo.signed:
        return hi if not hi.signed else lo
    if not hi.signed and lo.signed and hi.rank > lo.rank:
        return hi
    if hi.signed and not lo.signed and hi.rank > lo.rank:
        # signed type can represent all unsigned values of lower rank here
        return hi
    return hi


def can_convert(src: CLType, dst: CLType) -> bool:
    """True when an implicit conversion ``src -> dst`` is allowed."""
    if src is dst or src == dst:
        return True
    if isinstance(src, ScalarType) and isinstance(dst, ScalarType):
        return True  # all arithmetic conversions are implicit in C
    if isinstance(src, ArrayType) and isinstance(dst, PointerType):
        return (src.element == dst.pointee
                and src.address_space == dst.address_space)
    if isinstance(src, PointerType) and isinstance(dst, PointerType):
        return src == dst
    return False
