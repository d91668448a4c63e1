"""Kernel objects: argument binding ahead of enqueue."""

from __future__ import annotations

import numbers

import numpy as np

from ..errors import InvalidKernelArgs, InvalidValue
from .buffer import Buffer, LocalMemory
from .engines.base import (BufferBinding, LocalBinding, ScalarBinding,
                           param_rows)


#: scalar argument types bound without the abstract-class checks
_PLAIN_SCALARS = frozenset({int, float})


class Kernel:
    """Mirror of ``cl_kernel``: a kernel entry point plus bound arguments."""

    def __init__(self, program, name: str) -> None:
        self.program = program
        self.name = name
        self.function = program.ir.functions[name]
        self._args: list = [None] * len(self.function.params)
        #: what binding each argument needs, shared by every kernel
        #: object of the program (see :func:`param_rows`)
        self._rows = param_rows(self.function)

    @property
    def num_args(self) -> int:
        return len(self._rows)

    def set_arg(self, index: int, value) -> None:
        """Bind one argument (``clSetKernelArg``)."""
        if not 0 <= index < len(self._rows):
            raise InvalidValue(
                f"kernel {self.name!r} has {self.num_args} arguments; "
                f"index {index} is out of range")
        name, kind, ctype, dtype, space = self._rows[index]
        if kind == 0:
            if type(value) not in _PLAIN_SCALARS:
                if isinstance(value, (Buffer, LocalMemory)):
                    raise InvalidKernelArgs(
                        f"argument {name!r} expects a scalar")
                if not isinstance(value, (numbers.Number, np.generic)):
                    raise InvalidKernelArgs(
                        f"argument {name!r}: cannot pass "
                        f"{type(value).__name__} as a scalar")
            self._args[index] = ScalarBinding(value, ctype)
        elif kind == 1:
            if not isinstance(value, LocalMemory):
                raise InvalidKernelArgs(
                    f"argument {name!r} is a __local pointer; "
                    "pass LocalMemory(nbytes)")
            self._args[index] = LocalBinding(value.nbytes)
        elif kind == 2:
            if not isinstance(value, Buffer):
                raise InvalidKernelArgs(
                    f"argument {name!r} expects a Buffer")
            self._args[index] = BufferBinding(value.view(dtype), space)
        else:  # pragma: no cover - signatures exclude other types
            raise InvalidKernelArgs(f"unsupported parameter type {ctype}")

    def set_args(self, *values) -> "Kernel":
        """Bind all arguments at once; returns self for chaining."""
        if len(values) != self.num_args:
            raise InvalidKernelArgs(
                f"kernel {self.name!r} expects {self.num_args} "
                f"argument(s), got {len(values)}")
        for i, v in enumerate(values):
            self.set_arg(i, v)
        return self

    def bound_args(self) -> list:
        args = list(self._args)
        for arg in args:
            if arg is None:
                missing = [p.name for p, a in zip(self.function.params, args)
                           if a is None]
                raise InvalidKernelArgs(
                    f"kernel {self.name!r} has unbound argument(s): "
                    + ", ".join(missing))
        return args

    def __repr__(self) -> str:
        return f"<Kernel {self.name!r} ({self.num_args} args)>"
