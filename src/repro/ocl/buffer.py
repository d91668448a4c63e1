"""Device memory objects."""

from __future__ import annotations

import numpy as np

from ..errors import InvalidMemObject, InvalidValue, OutOfResources
from .api import mem_flags
from .context import Context


class Buffer:
    """A device buffer, as created by ``clCreateBuffer``.

    The backing store is a byte array on the host (we *are* the device).
    ``hostbuf`` with ``COPY_HOST_PTR`` seeds the contents; ``USE_HOST_PTR``
    aliases the host array so kernel writes are visible in place (zero-copy,
    as CPU OpenCL implementations do).
    """

    def __init__(self, context: Context, flags: mem_flags = mem_flags.READ_WRITE,
                 size: int | None = None, hostbuf: np.ndarray | None = None) -> None:
        if not isinstance(context, Context):
            raise InvalidValue("first argument must be a Context")
        self.context = context
        self.flags = flags

        if hostbuf is not None:
            hostbuf = np.ascontiguousarray(hostbuf)
            if size is None:
                size = hostbuf.nbytes
            elif size != hostbuf.nbytes:
                raise InvalidValue(
                    f"size {size} does not match hostbuf ({hostbuf.nbytes} B)")
        if size is None or size <= 0:
            raise InvalidValue("buffer size must be positive")
        limit = context.max_buffer_bytes
        if size > limit:
            raise OutOfResources(
                f"buffer of {size} B exceeds device memory ({limit} B)")
        self.size = int(size)

        if hostbuf is not None and flags & mem_flags.USE_HOST_PTR:
            self._data = hostbuf.reshape(-1).view(np.uint8)
        else:
            self._data = np.zeros(self.size, dtype=np.uint8)
            if hostbuf is not None and flags & mem_flags.COPY_HOST_PTR:
                self._data[:] = hostbuf.reshape(-1).view(np.uint8)

    # -- host access used by the queue -----------------------------------------

    def view(self, dtype) -> np.ndarray:
        """The buffer contents viewed as a 1-D array of ``dtype``."""
        dtype = np.dtype(dtype)
        if self.size % dtype.itemsize:
            raise InvalidMemObject(
                f"buffer of {self.size} B cannot be viewed as {dtype}")
        return self._data.view(dtype)

    def read_into(self, out: np.ndarray) -> None:
        out = out.reshape(-1)
        nbytes = out.nbytes
        if nbytes > self.size:
            raise InvalidValue(
                f"read of {nbytes} B exceeds buffer size {self.size}")
        out.view(np.uint8)[:] = self._data[:nbytes]

    def write_from(self, src: np.ndarray) -> None:
        src = np.ascontiguousarray(src).reshape(-1)
        nbytes = src.nbytes
        if nbytes > self.size:
            raise InvalidValue(
                f"write of {nbytes} B exceeds buffer size {self.size}")
        self._data[:nbytes] = src.view(np.uint8)

    def __repr__(self) -> str:
        return f"<Buffer {self.size} B flags={self.flags!r}>"


class LocalMemory:
    """Size-only kernel argument for ``__local`` pointer parameters
    (``clSetKernelArg(kernel, i, nbytes, NULL)``)."""

    def __init__(self, nbytes: int) -> None:
        if nbytes <= 0:
            raise InvalidValue("local memory size must be positive")
        self.nbytes = int(nbytes)

    def __repr__(self) -> str:
        return f"<LocalMemory {self.nbytes} B>"
