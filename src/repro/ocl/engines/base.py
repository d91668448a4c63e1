"""Shared engine infrastructure: the execution-backend registry, NDRange
geometry, argument bindings, and the helpers every backend needs.

An execution backend ("engine") is a class with

* a ``name`` class attribute (the registry key),
* ``__init__(self, program, spec)`` taking the compiled
  :class:`~repro.clc.binary.ProgramBinary` (signatures + bytecode) and a
  :class:`~repro.ocl.devicedb.DeviceSpec`,
* ``run(kernel_name, args, global_size, local_size=None)`` returning a
  filled :class:`~repro.ocl.costmodel.CostCounters`.

Backends register themselves with :func:`register_engine` (usable as a
decorator); :class:`~repro.ocl.device.Device` resolves names through
:func:`get_engine_class`.  The default engine for devices constructed
without an explicit name is resolved by :func:`default_engine`:
``hpl.configure(engine=...)`` wins, then the ``HPL_ENGINE`` environment
variable, then ``"jit"``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ...clc.lower import BYTECODE_VERSION, linked_program
from ...clc.types import CLType, PointerType, ScalarType
from ...errors import (InvalidKernelArgs, InvalidProgramExecutable,
                       InvalidWorkDimension, InvalidWorkGroupSize,
                       OutOfResources)

#: environment variable naming the default execution backend
ENV_ENGINE = "HPL_ENGINE"

#: loop-iteration cap shared by every backend (infinite-loop tripwire)
MAX_LOOP_ITERATIONS = 50_000_000

#: work-item id-array keys per query kind, indexed by dimension — the
#: dispatch tables previously duplicated by the serial and vector engines
GLOBAL_ID_KEYS = ("idx", "idy", "idz")
LOCAL_ID_KEYS = ("lidx", "lidy", "lidz")
GROUP_ID_KEYS = ("gidx", "gidy", "gidz")

#: atomic op name -> NumPy ufunc (``.at`` for unbuffered scatter);
#: ``inc``/``dec`` are normalized to add/sub with an operand of 1
ATOMIC_UFUNCS = {"add": np.add, "inc": np.add,
                 "sub": np.subtract, "dec": np.subtract,
                 "min": np.minimum, "max": np.maximum}


# -- backend registry ----------------------------------------------------------------

_REGISTRY: dict[str, type] = {}
_default_override: str | None = None


def register_engine(cls):
    """Register an execution backend class under ``cls.name``.

    Usable as a class decorator.  The class must carry a non-empty
    ``name`` and a ``run`` method; re-registering a name replaces the
    previous backend (latest wins), which is what lets tests install
    instrumented engines.
    """
    name = getattr(cls, "name", None)
    if not name or not isinstance(name, str):
        raise ValueError(
            f"engine class {cls!r} must define a string 'name' attribute")
    if not callable(getattr(cls, "run", None)):
        raise ValueError(f"engine {name!r} must define a run() method")
    _REGISTRY[name] = cls
    return cls


def available_engines() -> list[str]:
    """Sorted names of every registered execution backend."""
    return sorted(_REGISTRY)


def get_engine_class(name: str):
    """The backend class registered under ``name``.

    Unknown names raise a ``ValueError`` that lists the registered
    backends, so a typo'd ``Device(engine=...)`` or ``HPL_ENGINE`` is
    immediately actionable.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; registered backends: "
            + ", ".join(available_engines())) from None


def set_default_engine(name: str | None) -> None:
    """Set (or with ``None`` clear) the process-wide default backend.

    This is what ``hpl.configure(engine=...)`` calls; it takes
    precedence over ``$HPL_ENGINE``.  Devices constructed without an
    explicit engine re-resolve on every launch, so switching the
    default mid-session takes effect immediately.
    """
    global _default_override
    if name is not None:
        get_engine_class(name)          # validate eagerly
    _default_override = name


def default_engine() -> str:
    """The engine name devices fall back to: the
    ``hpl.configure(engine=...)`` override, else a validated
    ``$HPL_ENGINE``, else ``"jit"``."""
    if _default_override is not None:
        return _default_override
    env = os.environ.get(ENV_ENGINE)
    if env:
        get_engine_class(env)           # validate: typos must not
        return env                      # silently fall back
    return "jit"


def linked_entry(program, kernel_name: str):
    """``(linked functions dict, (code, KernelBytecode))`` for
    ``kernel_name``.  Shared by every backend so the version check
    cannot drift: a program without bytecode, or with bytecode of
    another :data:`~repro.clc.lower.BYTECODE_VERSION`, raises
    :class:`~repro.errors.InvalidProgramExecutable`."""
    pbc = program.bytecode
    found = getattr(pbc, "version", None)
    if found != BYTECODE_VERSION:
        raise InvalidProgramExecutable(
            f"kernel {kernel_name!r} has no executable bytecode: found "
            f"version {found}, expected {BYTECODE_VERSION}")
    linked = linked_program(pbc)
    return linked, linked[kernel_name]


def wiq_value(qcode: int, dim: int, name: str, ids, nd):
    """Value of an ``OP_WIQ`` work-item query: lane id arrays when
    ``ids`` holds the whole NDRange (lock-step backends), plain ints for
    a single item (serial backend).  Callers coerce to the destination
    dtype themselves."""
    if qcode == 0:
        return ids[GLOBAL_ID_KEYS[dim]]
    if qcode == 1:
        return ids[LOCAL_ID_KEYS[dim]]
    if qcode == 2:
        return ids[GROUP_ID_KEYS[dim]]
    if qcode == 3:
        return np.int32(nd.dim)
    if qcode == 4:
        return np.int64(0)
    return np.int64(nd.size_of(name, dim))


class Mem:
    """A memory object visible to kernel code under a name (shared by
    the lock-step backends; the serial engine keeps its own slim view)."""

    __slots__ = ("array", "kind", "space", "name")

    def __init__(self, array: np.ndarray, kind: str, space: str,
                 name: str) -> None:
        self.array = array
        self.kind = kind      # buffer | local | private
        self.space = space    # global | constant | local | private
        self.name = name

    @property
    def size(self) -> int:
        return self.array.shape[-1]


def _as_tuple(size) -> tuple[int, ...]:
    if isinstance(size, int):
        return (size,)
    return tuple(int(s) for s in size)


def _size_key(size):
    """Hashable form of an NDRange size argument (int, sequence or None):
    an int and its 1-tuple share a key."""
    if size is None:
        return None
    if isinstance(size, int):
        return (size,)
    return tuple(size)


#: launch shape + device limits -> validated NDRange; see launch_ndrange()
_NDRANGE_CACHE: dict = {}


def launch_ndrange(global_size, local_size, spec) -> "NDRange":
    """The validated :class:`NDRange` of one launch on a device ``spec``.

    Memoized across launches and engine instances (a device builds a
    new engine for every launch).  Only a valid geometry is stored, so
    an invalid one raises on every launch.  The memo holds at most 64
    shapes; NDRanges are never mutated after construction.
    """
    key = (_size_key(global_size), _size_key(local_size),
           spec.max_work_group_size, tuple(spec.max_work_item_sizes))
    nd = _NDRANGE_CACHE.get(key)
    if nd is None:
        nd = NDRange(global_size, local_size,
                     max_work_group_size=spec.max_work_group_size,
                     max_work_item_sizes=spec.max_work_item_sizes)
        if len(_NDRANGE_CACHE) >= 64:
            _NDRANGE_CACHE.clear()
        _NDRANGE_CACHE[key] = nd
    return nd


#: (global_size, local_size) -> read-only lane-id arrays; see lane_ids()
_LANE_IDS_CACHE: dict = {}


class _LaneIds1D(dict):
    """The lane-id arrays of a 1-D NDRange, each built on its first
    read: a launch that only reads ``get_global_id(0)`` builds no
    ``lidy``/``gidz``/... arrays.  The values equal
    :meth:`NDRange._all_lane_ids`: in one dimension the global id is
    the lane, the group is ``lane // local``, and every y/z id is 0.

    Multi-dimensional launches keep the eager build: making it lazy
    there changed the process's allocation history enough to cost a
    warm 2-D transpose thousands of page faults per launch (numbers in
    docs/engines.md).
    """

    __slots__ = ("_n", "_local")

    def __init__(self, n: int, local: int) -> None:
        super().__init__()
        self._n = n
        self._local = local

    def __missing__(self, key: str) -> np.ndarray:
        n = self._n
        if key in ("lane", "idx"):
            value = np.arange(n, dtype=np.int64)
        elif key == "lidx":
            value = np.arange(n, dtype=np.int64) % self._local
        elif key in ("gidx", "group_flat"):
            value = np.arange(n, dtype=np.int64) // self._local
        elif key in ("lidy", "lidz", "gidy", "gidz", "idy", "idz"):
            value = np.zeros(n, dtype=np.int64)
        else:
            raise KeyError(key)
        self[key] = value
        return value


class NDRange:
    """Geometry of one kernel launch: global/local domains up to 3-D.

    Work-items are flattened **group-major**: all items of group 0 first
    (local x fastest), then group 1, ... — the natural layout for the
    lock-step jit engine and for per-warp coalescing measurement.
    """

    def __init__(self, global_size, local_size=None,
                 max_work_group_size: int = 1 << 30,
                 max_work_item_sizes=(1 << 30,) * 3) -> None:
        gsize = _as_tuple(global_size)
        if not 1 <= len(gsize) <= 3:
            raise InvalidWorkDimension(
                f"global domain must have 1-3 dimensions, got {len(gsize)}")
        if any(g <= 0 for g in gsize):
            raise InvalidWorkDimension(f"empty global domain {gsize}")
        if local_size is None:
            lsize = self._default_local(gsize, max_work_group_size,
                                        max_work_item_sizes)
        else:
            lsize = _as_tuple(local_size)
            if len(lsize) != len(gsize):
                raise InvalidWorkGroupSize(
                    f"local domain {lsize} must match global domain "
                    f"dimensionality {gsize}")
        for g, l, cap in zip(gsize, lsize, max_work_item_sizes):
            if l <= 0 or l > cap:
                raise InvalidWorkGroupSize(f"bad local size {lsize}")
            if g % l != 0:
                raise InvalidWorkGroupSize(
                    f"local size {lsize} does not divide global size "
                    f"{gsize}")
        group_items = math.prod(lsize)
        if group_items > max_work_group_size:
            raise InvalidWorkGroupSize(
                f"work-group of {group_items} items exceeds the device "
                f"maximum {max_work_group_size}")

        self.dim = len(gsize)
        self.global_size = gsize
        self.local_size = lsize
        self.num_groups = tuple(g // l for g, l in zip(gsize, lsize))
        self.items_per_group = group_items
        self.total_items = math.prod(gsize)
        self.total_groups = math.prod(self.num_groups)

    @staticmethod
    def _default_local(gsize: tuple[int, ...], cap: int,
                       item_caps=(1 << 30,) * 3) -> tuple[int, ...]:
        """Pick a local size the way the HPL runtime does: the largest
        power-of-two divisor of each dimension whose product stays within
        the device limit (at most 256 items, a universally safe default).

        Each dimension is additionally clamped to the device's
        per-dimension ``max_work_item_sizes`` cap, so the auto-picked
        default always passes the validation the explicit path enforces.
        """
        budget = min(cap, 256)
        lsize = []
        for g, dim_cap in zip(gsize, item_caps):
            limit = min(budget, dim_cap)
            l = 1
            while l * 2 <= limit and g % (l * 2) == 0:
                l *= 2
            lsize.append(l)
            budget = max(1, budget // l)
        return tuple(lsize)

    # -- flattened id arrays (lock-step engine) -------------------------------

    def lane_ids(self) -> dict[str, np.ndarray]:
        """Per-lane id arrays in group-major order (see class docstring).

        Memoized across launches of the same NDRange shape; the arrays
        are shared and must be treated as read-only, which every engine
        already does (registers are never mutated in place).  A 1-D
        launch builds each array on its first read (see
        :class:`_LaneIds1D`); a multi-dimensional one builds all eleven
        up front.
        """
        key = (self.global_size, self.local_size)
        hit = _LANE_IDS_CACHE.get(key)
        if hit is not None:
            return hit
        n = self.total_items
        if self.dim == 1:
            ids = _LaneIds1D(n, self.local_size[0])
        else:
            ids = self._all_lane_ids()
        if n <= (1 << 20):          # don't pin huge launches in memory
            if len(_LANE_IDS_CACHE) >= 64:
                _LANE_IDS_CACHE.clear()
            _LANE_IDS_CACHE[key] = ids
        return ids

    def _all_lane_ids(self) -> dict[str, np.ndarray]:
        lane = np.arange(self.total_items, dtype=np.int64)
        ipg = self.items_per_group
        group = lane // ipg
        within = lane % ipg

        lx_, ly_, lz_ = (self.local_size + (1, 1, 1))[:3]
        ngx, ngy, _ngz = (self.num_groups + (1, 1, 1))[:3]

        lx = within % lx_
        ly = (within // lx_) % ly_
        lz = within // (lx_ * ly_)
        gx_ = group % ngx
        gy_ = (group // ngx) % ngy
        gz_ = group // (ngx * ngy)

        ids = {
            "lidx": lx, "lidy": ly, "lidz": lz,
            "gidx": gx_, "gidy": gy_, "gidz": gz_,
            "idx": gx_ * lx_ + lx,
            "idy": gy_ * ly_ + ly,
            "idz": gz_ * lz_ + lz,
            "group_flat": group,
            "lane": lane,
        }
        return {k: v.astype(np.int64) for k, v in ids.items()}

    def item_ids(self, flat: int) -> dict[str, int]:
        """Scalar ids of one flattened work-item (serial engine)."""
        ipg = self.items_per_group
        group, within = divmod(flat, ipg)
        lx_, ly_, lz_ = (self.local_size + (1, 1, 1))[:3]
        ngx, ngy, _ngz = (self.num_groups + (1, 1, 1))[:3]
        lx = within % lx_
        ly = (within // lx_) % ly_
        lz = within // (lx_ * ly_)
        gx_ = group % ngx
        gy_ = (group // ngx) % ngy
        gz_ = group // (ngx * ngy)
        return {
            "lidx": lx, "lidy": ly, "lidz": lz,
            "gidx": gx_, "gidy": gy_, "gidz": gz_,
            "idx": gx_ * lx_ + lx, "idy": gy_ * ly_ + ly,
            "idz": gz_ * lz_ + lz,
            "group_flat": group,
        }

    def size_of(self, what: str, dim: int) -> int:
        """Value of a ``get_*_size``-style query for dimension ``dim``."""
        table = {
            "get_global_size": self.global_size,
            "get_local_size": self.local_size,
            "get_num_groups": self.num_groups,
        }
        seq = table[what]
        return seq[dim] if dim < len(seq) else 1


# -- argument bindings ---------------------------------------------------------------

@dataclass
class ScalarBinding:
    """A by-value scalar kernel argument."""
    value: object
    type: ScalarType


@dataclass
class BufferBinding:
    """A device buffer bound to a pointer parameter.

    ``array`` is the buffer's backing store viewed with the parameter's
    element dtype (1-D).  ``space`` is ``global`` or ``constant``.
    """
    array: np.ndarray
    space: str = "global"


@dataclass
class LocalBinding:
    """A ``__local`` pointer argument given by size only (clSetKernelArg
    with a NULL pointer), as the reduction benchmark uses."""
    nbytes: int


def check_args(kernel, args, spec=None) -> None:
    """Validate binding kinds/counts against the kernel signature.

    With a :class:`~repro.ocl.devicedb.DeviceSpec` the address-space
    checks become device-aware: a ``__constant`` pointer parameter must
    be fed a constant-space buffer that fits the device's constant
    buffer size limit (``CL_DEVICE_MAX_CONSTANT_BUFFER_SIZE``).
    """
    params = kernel.params
    if len(args) != len(params):
        raise InvalidKernelArgs(
            f"kernel {kernel.name!r} expects {len(params)} argument(s), "
            f"got {len(args)}")
    for param, arg in zip(params, args):
        ptype: CLType = param.type
        if isinstance(ptype, ScalarType):
            if not isinstance(arg, ScalarBinding):
                raise InvalidKernelArgs(
                    f"argument {param.name!r} must be a scalar")
        elif isinstance(ptype, PointerType):
            if ptype.address_space == "local":
                if not isinstance(arg, LocalBinding):
                    raise InvalidKernelArgs(
                        f"argument {param.name!r} is a __local pointer; "
                        "bind it with a LocalBinding(size)")
            elif not isinstance(arg, BufferBinding):
                raise InvalidKernelArgs(
                    f"argument {param.name!r} must be a buffer")
            else:
                if arg.array.dtype != ptype.pointee.np_dtype:
                    raise InvalidKernelArgs(
                        f"buffer dtype {arg.array.dtype} does not match "
                        f"parameter {param.name!r} element type "
                        f"{ptype.pointee}")
                if arg.space != ptype.address_space:
                    raise InvalidKernelArgs(
                        f"argument {param.name!r} is a "
                        f"__{ptype.address_space} pointer but the bound "
                        f"buffer lives in __{arg.space} memory")
                if (ptype.address_space == "constant" and spec is not None
                        and arg.array.nbytes
                        > spec.max_constant_buffer_bytes):
                    raise OutOfResources(
                        f"__constant argument {param.name!r} is "
                        f"{arg.array.nbytes} B, but {spec.name} caps "
                        f"constant buffers at "
                        f"{spec.max_constant_buffer_bytes} B")
        else:  # pragma: no cover - signature rules prevent this
            raise InvalidKernelArgs(f"unsupported parameter type {ptype}")
