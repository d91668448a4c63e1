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
import operator
import os
from dataclasses import dataclass
from functools import cached_property

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


def _shape(size) -> tuple[int, ...]:
    """An NDRange size argument (an integer, or a tuple or list of
    integers, NumPy integers included) as a tuple of ints.  One form
    for the memo key and the :class:`NDRange`, so ``np.int64(64)``,
    ``64`` and ``(64,)`` share a shape; anything else (a float, a
    string, ...) raises :class:`~repro.errors.InvalidWorkDimension`."""
    dims = size if isinstance(size, (tuple, list)) else (size,)
    try:
        return tuple(map(operator.index, dims))
    except TypeError:
        raise InvalidWorkDimension(
            f"an NDRange size must be an integer or a sequence of "
            f"integers, got {size!r}") from None


#: launch shape + device limits -> validated NDRange; see launch_ndrange()
_NDRANGE_CACHE: dict = {}


def launch_ndrange(global_size, local_size, spec) -> "NDRange":
    """The validated :class:`NDRange` of one launch on a device ``spec``.

    Memoized across launches and engine instances (a device builds a
    new engine for every launch), and the only per-shape memo of the
    engines: an NDRange carries its lane ids and the jit's id-query
    plans, so they live as long as it does.  Only a valid geometry is
    stored, so an invalid one raises on every launch.  The memo holds
    at most 64 shapes; an NDRange's geometry is never mutated after
    construction.
    """
    key = (_shape(global_size),
           None if local_size is None else _shape(local_size),
           spec.max_work_group_size, tuple(spec.max_work_item_sizes))
    nd = _NDRANGE_CACHE.get(key)
    if nd is None:
        nd = NDRange(key[0], key[1],
                     max_work_group_size=spec.max_work_group_size,
                     max_work_item_sizes=spec.max_work_item_sizes)
        if len(_NDRANGE_CACHE) >= 64:
            _NDRANGE_CACHE.clear()
        _NDRANGE_CACHE[key] = nd
    return nd


def lane_id_dtype(n: int) -> np.dtype:
    """The dtype of the lane-id arrays of an ``n``-lane launch: sema
    types every id query as ``int``, so int32 while the lane count
    fits it, and int64 from ``2**31`` lanes on."""
    return np.dtype(np.int32 if n < (1 << 31) else np.int64)


class _LaneIds(dict):
    """The lane-id arrays of an NDRange, each built on its first read
    directly at :func:`lane_id_dtype`: a launch that only reads
    ``get_global_id(0)`` builds ``idx`` and nothing else.

    Lanes are flattened group-major, so the lanes of a launch form a
    C-ordered grid of shape ``(ngz, ngy, ngx, lz, ly, lx)``, and each id
    is a broadcast of one or two per-axis ``arange``s over that grid,
    written into its output array without a full-size intermediate.
    ``_warp<w>`` keys hold each lane's warp for warp width ``w``.
    """

    __slots__ = ("_n", "_grid")

    #: id key -> the grid axes it sums, each with the axis whose extent
    #: scales it (a global id is ``group * local + local id``)
    _TERMS = {
        "lidx": ((5, None),), "lidy": ((4, None),), "lidz": ((3, None),),
        "gidx": ((2, None),), "gidy": ((1, None),), "gidz": ((0, None),),
        "idx": ((2, 5), (5, None)), "idy": ((1, 4), (4, None)),
        "idz": ((0, 3), (3, None)),
    }

    def __init__(self, nd: "NDRange") -> None:
        super().__init__()
        self._n = nd.total_items
        lz, ly, lx = (nd.local_size + (1, 1))[:3][::-1]
        ngz, ngy, ngx = (nd.num_groups + (1, 1))[:3][::-1]
        self._grid = (ngz, ngy, ngx, lz, ly, lx)

    def __missing__(self, key: str) -> np.ndarray:
        n, grid = self._n, self._grid
        dtype = lane_id_dtype(n)
        if key == "lane":
            value = np.arange(n, dtype=dtype)
        elif key == "group_flat":
            groups = grid[0] * grid[1] * grid[2]
            value = np.arange(groups, dtype=dtype).repeat(n // groups)
        elif key.startswith("_warp"):
            width = max(1, int(key[5:]))
            value = np.arange(-(-n // width), dtype=dtype).repeat(width)[:n]
        else:
            terms = [(axis, scale) for axis, scale in self._TERMS[key]
                     if grid[axis] > 1]
            if not terms:
                value = np.zeros(n, dtype=dtype)
            else:
                parts = []
                for axis, scale in terms:
                    shape = [1] * 6
                    shape[axis] = grid[axis]
                    ramp = np.arange(grid[axis], dtype=dtype)
                    if scale is not None:
                        ramp *= grid[scale]
                    parts.append(ramp.reshape(shape))
                value = np.empty(grid, dtype=dtype)
                if len(parts) == 1:
                    value[...] = parts[0]
                else:
                    np.add(parts[0], parts[1], out=value)
                value = value.reshape(n)
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
        gsize = _shape(global_size)
        if not 1 <= len(gsize) <= 3:
            raise InvalidWorkDimension(
                f"global domain must have 1-3 dimensions, got {len(gsize)}")
        if min(gsize) <= 0:
            raise InvalidWorkDimension(f"empty global domain {gsize}")
        if local_size is None:
            lsize = self._default_local(gsize, max_work_group_size,
                                        max_work_item_sizes)
        else:
            lsize = _shape(local_size)
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
        self._ids = None
        #: the jit's access plans of id queries, keyed by (id key, item
        #: size, segment bytes, warp size): devices with equal limits
        #: share an NDRange but not their segment and warp sizes
        self.plans: dict = {}

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
            # the largest power of two dividing g, capped at the largest
            # power of two within the limit
            l = min(g & -g, 1 << (limit.bit_length() - 1)) \
                if limit > 1 else 1
            lsize.append(l)
            budget = max(1, budget // l)
        return tuple(lsize)

    # -- flattened id arrays (lock-step engine) -------------------------------

    def lane_ids(self) -> dict[str, np.ndarray]:
        """Per-lane id arrays in group-major order (see class docstring).

        Memoized on this NDRange, so shared by every launch of its
        shape; the arrays must be treated as read-only, which every
        engine already does (registers are never mutated in place).
        Each array is built on its first read (see :class:`_LaneIds`).
        Launches over ``2**20`` lanes build a fresh dict each time
        rather than pin their ids in memory.
        """
        ids = self._ids
        if ids is None:
            ids = _LaneIds(self)
            if self.total_items <= (1 << 20):
                self._ids = ids
        return ids

    # -- lane coordinates (jit affine accesses, 1-D and 2-D) --------------------

    @cached_property
    def extents(self) -> tuple[int, int, int, int]:
        """``(ngy, ngx, ly, lx)`` of a 1-D or 2-D launch: lanes are
        flattened group-major, so lane ``((gy * ngx + gx) * ly + y) *
        lx + x`` has coordinates ``(gy, gx, y, x)``."""
        lx, ly = (self.local_size + (1,))[:2]
        ngx, ngy = (self.num_groups + (1,))[:2]
        return (ngy, ngx, ly, lx)

    @cached_property
    def coords(self) -> list:
        """``(extent, probe lane)`` of each coordinate of extent above
        1, outermost first: the probe is the lane one step along it."""
        ngy, ngx, ly, lx = self.extents
        return [(e, p) for e, p in ((ngy, ngx * lx * ly), (ngx, lx * ly),
                                    (ly, lx), (lx, 1)) if e > 1]

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


def param_rows(kernel) -> tuple:
    """``(name, kind, type, dtype, space)`` of each parameter of
    ``kernel``, what binding an argument and checking a binding need:
    kind 0 is a scalar of ``type``, 1 a ``__local`` pointer, 2 a
    global or constant buffer of ``type`` elements (NumPy ``dtype``)
    in ``space``, 3 a type no binding fits.  Memoized on the signature,
    which every ``Kernel`` object and every launch of the kernel
    share."""
    rows = getattr(kernel, "_param_rows", None)
    if rows is None:
        built = []
        for param in kernel.params:
            ptype: CLType = param.type
            if isinstance(ptype, ScalarType):
                built.append((param.name, 0, ptype, None, None))
            elif isinstance(ptype, PointerType):
                if ptype.address_space == "local":
                    built.append((param.name, 1, ptype, None, "local"))
                else:
                    built.append((param.name, 2, ptype.pointee,
                                  ptype.pointee.np_dtype,
                                  ptype.address_space))
            else:  # pragma: no cover - signature rules prevent this
                built.append((param.name, 3, ptype, None, None))
        rows = kernel._param_rows = tuple(built)
    return rows


def check_args(kernel, args, spec=None) -> None:
    """Validate binding kinds/counts against the kernel signature.

    With a :class:`~repro.ocl.devicedb.DeviceSpec` the address-space
    checks become device-aware: a ``__constant`` pointer parameter must
    be fed a constant-space buffer that fits the device's constant
    buffer size limit (``CL_DEVICE_MAX_CONSTANT_BUFFER_SIZE``).
    """
    rows = param_rows(kernel)
    if len(args) != len(rows):
        raise InvalidKernelArgs(
            f"kernel {kernel.name!r} expects {len(rows)} argument(s), "
            f"got {len(args)}")
    for (name, kind, ctype, dtype, space), arg in zip(rows, args):
        if kind == 0:
            if not isinstance(arg, ScalarBinding):
                raise InvalidKernelArgs(
                    f"argument {name!r} must be a scalar")
        elif kind == 1:
            if not isinstance(arg, LocalBinding):
                raise InvalidKernelArgs(
                    f"argument {name!r} is a __local pointer; "
                    "bind it with a LocalBinding(size)")
        elif kind == 3:  # pragma: no cover - signature rules prevent this
            raise InvalidKernelArgs(f"unsupported parameter type {ctype}")
        elif not isinstance(arg, BufferBinding):
            raise InvalidKernelArgs(
                f"argument {name!r} must be a buffer")
        else:
            array = arg.array
            if array.dtype != dtype:
                raise InvalidKernelArgs(
                    f"buffer dtype {array.dtype} does not match "
                    f"parameter {name!r} element type {ctype}")
            if arg.space != space:
                raise InvalidKernelArgs(
                    f"argument {name!r} is a __{space} pointer but the "
                    f"bound buffer lives in __{arg.space} memory")
            if (space == "constant" and spec is not None
                    and array.nbytes > spec.max_constant_buffer_bytes):
                raise OutOfResources(
                    f"__constant argument {name!r} is "
                    f"{array.nbytes} B, but {spec.name} caps "
                    f"constant buffers at "
                    f"{spec.max_constant_buffer_bytes} B")
