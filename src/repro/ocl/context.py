"""Contexts tie devices, buffers and programs together."""

from __future__ import annotations

from ..errors import InvalidDevice, InvalidValue
from .device import Device


class Context:
    """A SimCL context over one or more devices of the platform."""

    def __init__(self, devices) -> None:
        if isinstance(devices, Device):
            devices = [devices]
        devices = list(devices)
        if not devices:
            raise InvalidValue("a context needs at least one device")
        for d in devices:
            if not isinstance(d, Device):
                raise InvalidDevice(f"{d!r} is not a Device")
        self.devices = tuple(devices)
        #: the largest buffer every device of the context can hold
        self.max_buffer_bytes = min(d.global_mem_size for d in devices)

    def __repr__(self) -> str:
        names = ", ".join(d.name for d in self.devices)
        return f"<Context [{names}]>"
