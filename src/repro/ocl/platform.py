"""The SimCL platform: entry point of the simulated OpenCL host API.

``get_platforms()[0].get_devices()`` is the discovery path, exactly like a
real OpenCL installation.  The set of simulated devices defaults to the
paper's machine (Tesla C2050 + Quadro FX 380 + Xeon host) and can be
reconfigured for tests via :func:`set_platform_devices`.
"""

from __future__ import annotations

from .api import device_type
from .device import Device
from .devicedb import DEFAULT_DEVICES, DeviceSpec

_current_specs: tuple[DeviceSpec, ...] = DEFAULT_DEVICES
_default_engine: str | None = None


def set_platform_devices(specs, engine: str | None = None) -> None:
    """Replace the simulated device roster (affects new ``get_platforms``).

    ``engine=None`` leaves devices on the process-wide default backend
    (``hpl.configure(engine=)`` / ``$HPL_ENGINE`` / ``jit``); an
    explicit name pins every roster device to that backend.
    """
    global _current_specs, _default_engine
    _current_specs = tuple(specs)
    _default_engine = engine


def reset_platform_devices() -> None:
    """Restore the paper's default machine configuration."""
    set_platform_devices(DEFAULT_DEVICES, None)


class Platform:
    """The (single) SimCL platform."""

    name = "SimCL"
    vendor = "repro"
    version = "OpenCL 1.2 SimCL"
    profile = "FULL_PROFILE"

    def __init__(self, specs=None, engine: str | None = None) -> None:
        specs = _current_specs if specs is None else tuple(specs)
        engine = _default_engine if engine is None else engine
        self._devices = tuple(Device(s, engine, index=i)
                              for i, s in enumerate(specs))

    def get_devices(self, dtype: device_type = device_type.ALL):
        """Devices of the requested type, GPU-class devices first."""
        if dtype == device_type.DEFAULT:
            dtype = device_type.ALL
        return [d for d in self._devices if d.type & dtype]

    def __repr__(self) -> str:
        return f"<Platform {self.name} with {len(self._devices)} devices>"


def get_platforms() -> list[Platform]:
    """Like ``clGetPlatformIDs``: the list of available platforms."""
    return [Platform()]
