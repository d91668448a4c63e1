"""Device objects exposed by the SimCL platform."""

from __future__ import annotations

from .devicedb import DeviceSpec
from .engines.base import default_engine, get_engine_class


class Device:
    """One simulated compute device.

    Mirrors the informational surface of ``clGetDeviceInfo`` and selects
    the execution engine used for kernels enqueued to it.  Engines come
    from the :mod:`repro.ocl.engines.base` registry; pass ``engine=`` for
    an explicit choice, set ``engine`` on the :class:`DeviceSpec` for a
    per-device default, or leave both unset to track the process-wide
    default (``hpl.configure(engine=)`` / ``$HPL_ENGINE`` / ``jit``).
    The unset case re-resolves on every launch, so reconfiguring the
    default mid-session affects already-constructed devices.

    ``index`` is the device's position in the platform roster.  Two
    devices of the same model share a *name* but never an index, so
    :attr:`label` is the identity to key per-device accounting by
    (timeline buckets, trace rows); keying by ``name`` merges same-model
    devices into one bucket.
    """

    def __init__(self, spec: DeviceSpec, engine: str | None = None,
                 index: int | None = None) -> None:
        if engine is not None:
            get_engine_class(engine)    # unknown name -> helpful error now
        self.spec = spec
        self._engine = engine
        self.index = index
        #: unique identity: the name suffixed with the roster index;
        #: directly-constructed devices (no roster) keep the bare name
        self.label = spec.name if index is None \
            else f"{spec.name}#{index}"

    @property
    def engine_name(self) -> str:
        """The resolved backend name: explicit ``Device(engine=)`` >
        ``DeviceSpec.engine`` > process default."""
        if self._engine is not None:
            return self._engine
        spec_engine = getattr(self.spec, "engine", None)
        if spec_engine is not None:
            return spec_engine
        return default_engine()

    # -- clGetDeviceInfo-style properties -----------------------------------

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def vendor(self) -> str:
        return self.spec.vendor

    @property
    def type(self):
        return self.spec.type

    @property
    def max_compute_units(self) -> int:
        return self.spec.compute_units

    @property
    def max_clock_frequency(self) -> int:
        """In MHz, like the real query."""
        return int(self.spec.clock_ghz * 1000)

    @property
    def global_mem_size(self) -> int:
        return self.spec.global_mem_bytes

    @property
    def local_mem_size(self) -> int:
        return self.spec.local_mem_bytes

    @property
    def max_work_group_size(self) -> int:
        return self.spec.max_work_group_size

    @property
    def max_work_item_sizes(self) -> tuple:
        return self.spec.max_work_item_sizes

    @property
    def max_constant_buffer_size(self) -> int:
        return self.spec.max_constant_buffer_bytes

    @property
    def extensions(self) -> str:
        return self.spec.extensions

    @property
    def supports_fp64(self) -> bool:
        return self.spec.has_fp64

    @property
    def is_cpu(self) -> bool:
        return self.spec.is_cpu

    @property
    def is_gpu(self) -> bool:
        from .api import device_type
        return bool(self.spec.type & device_type.GPU)

    def make_engine(self, program):
        return get_engine_class(self.engine_name)(program, self.spec)

    def __repr__(self) -> str:
        return f"<Device {self.name!r} ({self.engine_name} engine)>"
