"""Device specifications for the SimCL platform.

The registry models the three processors of the paper's evaluation
(Section V):

* an NVIDIA **Tesla C2050/C2070** — "448 thread processors with a clock rate
  of 1.15 GHz and 6 GB of DRAM",
* an NVIDIA **Quadro FX 380** — "16 thread processors with a clock rate of
  700 MHz and 256 MB of DRAM", no double-precision support,
* the host: "4x Dual-Core Intel 2.13 GHz Xeon processors".

The remaining parameters (bandwidths, launch overhead, fp64 throughput
ratio) come from the public datasheets of those parts and were calibrated
*once* against the two speedup end-points the paper reports (EP ≈ 257x,
spmv ≈ 5.4x, Figure 7); every experiment reuses them unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from .api import device_type


@dataclass(frozen=True)
class DeviceSpec:
    """Static description + performance model parameters of one device."""

    name: str
    type: device_type
    vendor: str = "SimCL"
    #: number of scalar processing elements working in parallel
    compute_units: int = 1
    #: core clock in GHz
    clock_ghz: float = 1.0
    #: sustained instructions-per-clock of one processing element
    ipc: float = 1.0
    #: fp64 throughput as a fraction of fp32 throughput (0 => unsupported)
    fp64_ratio: float = 0.5
    #: sustained global-memory bandwidth, GB/s
    mem_bandwidth_gbs: float = 10.0
    #: global memory size in bytes
    global_mem_bytes: int = 1 << 30
    #: scratchpad (local) memory available per work-group, bytes
    local_mem_bytes: int = 48 * 1024
    max_work_group_size: int = 1024
    max_work_item_sizes: tuple = (1024, 1024, 64)
    #: per-buffer ``__constant`` size limit (OpenCL minimum: 64 KB)
    max_constant_buffer_bytes: int = 64 * 1024
    #: fixed kernel-launch overhead, microseconds
    launch_overhead_us: float = 8.0
    #: host<->device interconnect bandwidth, GB/s (PCIe for GPUs)
    transfer_gbs: float = 5.0
    #: one-off latency per host<->device transfer, microseconds
    transfer_latency_us: float = 15.0
    #: memory transaction (coalescing segment) size in bytes
    segment_bytes: int = 128
    #: SIMD width for the coalescing model
    warp_size: int = 32
    #: throughput penalty for local-memory traffic relative to registers
    local_access_cost: float = 1.0
    #: cycles a work-group barrier costs
    barrier_cycles: float = 32.0

    @property
    def has_fp64(self) -> bool:
        return self.fp64_ratio > 0.0

    @cached_property
    def is_cpu(self) -> bool:
        # cached: every launch's cost model asks, and flag arithmetic
        # on the (frozen) type is slow
        return bool(self.type & device_type.CPU)

    @property
    def extensions(self) -> str:
        exts = ["cl_khr_global_int32_base_atomics"]
        if self.has_fp64:
            exts.append("cl_khr_fp64")
        return " ".join(exts)


#: The Tesla C2050/C2070 of Section V-B.
TESLA_C2050 = DeviceSpec(
    name="SimCL Tesla C2050/C2070",
    type=device_type.GPU,
    vendor="SimCL (modeling NVIDIA)",
    compute_units=448,
    clock_ghz=1.15,
    ipc=1.0,
    fp64_ratio=0.5,
    mem_bandwidth_gbs=144.0,
    global_mem_bytes=6 * (1 << 30),
    local_mem_bytes=48 * 1024,
    max_work_group_size=1024,
    launch_overhead_us=8.0,
    transfer_gbs=5.5,
)

#: The Quadro FX 380 of Section V-C (16 PEs @ 700 MHz, 256 MB, no fp64).
QUADRO_FX380 = DeviceSpec(
    name="SimCL Quadro FX 380",
    type=device_type.GPU,
    vendor="SimCL (modeling NVIDIA)",
    compute_units=16,
    clock_ghz=0.70,
    ipc=1.0,
    fp64_ratio=0.0,
    mem_bandwidth_gbs=22.4,
    global_mem_bytes=256 * (1 << 20),
    local_mem_bytes=16 * 1024,
    max_work_group_size=512,
    launch_overhead_us=10.0,
    transfer_gbs=2.5,
)

#: The host of Section V-B ("4x Dual-Core Intel 2.13 GHz Xeon"), used both
#: as an OpenCL CPU device and as the serial baseline (1 core).
XEON_HOST = DeviceSpec(
    name="SimCL Xeon E5606 Host",
    type=device_type.CPU,
    vendor="SimCL (modeling Intel)",
    compute_units=8,
    clock_ghz=2.13,
    ipc=2.0,
    fp64_ratio=1.0,
    mem_bandwidth_gbs=12.8,
    global_mem_bytes=16 * (1 << 30),
    local_mem_bytes=32 * 1024,
    max_work_group_size=1024,
    launch_overhead_us=2.0,
    transfer_gbs=20.0,      # "transfers" on a CPU device are memcpys
    transfer_latency_us=1.0,
    warp_size=1,
    segment_bytes=64,
    barrier_cycles=200.0,
)

#: One serial core of the host - the baseline of Figures 6 and 7.
#: ``ipc=0.5`` is the calibration constant fixed in DESIGN.md §1: scalar,
#: non-vectorised g++ output on a 2006-era Xeon sustains well under one
#: weighted op per cycle on these kernels (division/transcendental-heavy,
#: dependent chains).  This single value reproduces both published
#: end-points of Figure 7 (EP ~257x, spmv ~5.4x) and is then reused
#: unchanged for every other experiment.
XEON_SERIAL = replace(
    XEON_HOST,
    name="SimCL Xeon (serial baseline)",
    compute_units=1,
    ipc=0.5,
    launch_overhead_us=0.0,
)

#: Default platform layout: what the paper's test machine exposes.
DEFAULT_DEVICES = (TESLA_C2050, QUADRO_FX380, XEON_HOST)


def spec_by_name(name: str) -> DeviceSpec:
    """Look up one of the registered specs by (exact) name."""
    for spec in (TESLA_C2050, QUADRO_FX380, XEON_HOST, XEON_SERIAL):
        if spec.name == name:
            return spec
    raise KeyError(name)
