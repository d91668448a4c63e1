"""Cost model and coalescing-measurement tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.ocl as cl
from repro.ocl import costmodel
from repro.ocl.costmodel import (CostCounters, count_affine_transactions,
                                 count_index_transactions,
                                 count_masked_affine_transactions,
                                 count_transactions, kernel_time,
                                 transfer_time)
from repro.ocl.devicedb import DEFAULT_DEVICES


class TestCoalescingCounter:
    def test_fully_coalesced_warp(self):
        # 32 lanes, consecutive 4-byte addresses -> one 128 B segment
        addr = np.arange(32) * 4
        warps = np.zeros(32, dtype=np.int64)
        assert count_transactions(addr, warps, 128) == 1

    def test_strided_access_needs_more_segments(self):
        addr = np.arange(32) * 128
        warps = np.zeros(32, dtype=np.int64)
        assert count_transactions(addr, warps, 128) == 32

    def test_same_address_broadcast_is_one_transaction(self):
        addr = np.full(32, 4096)
        warps = np.zeros(32, dtype=np.int64)
        assert count_transactions(addr, warps, 128) == 1

    def test_two_warps_do_not_share_segments(self):
        addr = np.zeros(64, dtype=np.int64)
        warps = np.repeat([0, 1], 32)
        assert count_transactions(addr, warps, 128) == 2

    def test_empty(self):
        assert count_transactions(np.array([], dtype=np.int64),
                                  np.array([], dtype=np.int64), 128) == 0

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=128))
    def test_bounds(self, addresses):
        """1 <= transactions <= lanes for a single warp."""
        addr = np.array(addresses, dtype=np.int64)
        warps = np.zeros(len(addr), dtype=np.int64)
        tx = count_transactions(addr, warps, 128)
        assert 1 <= tx <= len(addr)

    @given(st.lists(st.integers(0, 100_000), min_size=1, max_size=64))
    def test_transactions_only_grow_with_extra_accesses(self, addresses):
        addr = np.array(addresses, dtype=np.int64)
        warps = np.zeros(len(addr), dtype=np.int64)
        t_all = count_transactions(addr, warps, 128)
        t_prefix = count_transactions(addr[:-1], warps[:-1], 128) \
            if len(addr) > 1 else 0
        assert t_all >= t_prefix


class TestContiguousCount:
    """The affine count of a 1-D unit-stride access, the shape of
    ``x[get_global_id(0)]``, equals the measured count over
    ``arange(n)``."""

    @staticmethod
    def _measured(n, segment, itemsize, warp):
        lanes = np.arange(n, dtype=np.int64)
        return count_index_transactions(lanes, lanes // warp, segment,
                                        itemsize, warp)

    @given(st.integers(1, 8 * 32), st.sampled_from([1, 2, 4, 8]),
           st.sampled_from([32, 64, 128]), st.sampled_from([1, 32]))
    def test_closed_form_equals_the_measured_count(self, n, itemsize,
                                                   segment, warp):
        """Up to eight warps, ``n < warp`` and a partial last warp
        included; ``warp == 1`` with 64 B segments is the Xeon host."""
        got = count_affine_transactions(0, ((n, 1),), segment, itemsize,
                                        warp)
        assert type(got) is int
        assert got == self._measured(n, segment, itemsize, warp)

    def test_empty_and_warpless(self):
        assert count_affine_transactions(0, ((0, 1),), 128, 4, 32) == 0
        lanes = np.arange(40, dtype=np.int64)
        assert count_affine_transactions(0, ((40, 1),), 128, 4, 0) == \
            count_index_transactions(lanes, lanes, 128, 4, 0)


#: (segment bytes, warp width) of every device in the database
_DEVICE_SHAPES = sorted({(d.segment_bytes, d.warp_size)
                         for d in DEFAULT_DEVICES})


@st.composite
def _affine_launches(draw):
    """An affine access over a 1-D or 2-D launch: lane coordinates
    ``(group y, group x, local y, local x)`` with tiled local sizes,
    lanes group-major, and a random offset and stride per coordinate,
    0 and negative included."""
    two_d = draw(st.booleans())
    lx = draw(st.sampled_from([1, 2, 4, 8, 16, 24, 32, 64]))
    ly = draw(st.sampled_from([1, 2, 4, 16])) if two_d else 1
    ngx = draw(st.integers(1, 6))
    ngy = draw(st.integers(1, 4)) if two_d else 1
    strides = draw(st.lists(
        st.one_of(st.sampled_from([0, 1, -1, 16, 32, 128, -16, 1024]),
                  st.integers(-300, 300)), min_size=4, max_size=4))
    dims = tuple(zip((ngy, ngx, ly, lx), strides))
    low = sum(min(0, s * (e - 1)) for e, s in dims)
    offset = -low + draw(st.integers(0, 300))
    return offset, dims


class TestAffineCount:
    """``count_affine_transactions`` equals
    ``count_index_transactions`` over the materialised index array,
    lane by lane, for every device's warp and segment and every item
    size — the closed form and its fallbacks alike."""

    @staticmethod
    def _measured(offset, dims, segment, itemsize, warp):
        index = costmodel._lattice(offset, dims)
        lanes = np.arange(index.size, dtype=np.int64)
        return count_index_transactions(index, lanes // max(1, warp),
                                        segment, itemsize, warp)

    @given(_affine_launches(), st.sampled_from(_DEVICE_SHAPES),
           st.sampled_from([1, 2, 4, 8]))
    def test_equals_the_measured_count(self, launch, device, itemsize):
        offset, dims = launch
        segment, warp = device
        costmodel._AFFINE_COUNTS.clear()
        got = count_affine_transactions(offset, dims, segment, itemsize,
                                        warp)
        assert type(got) is int
        assert got == self._measured(offset, dims, segment, itemsize,
                                     warp)

    @given(_affine_launches(), st.sampled_from([24, 48, 96, 128]),
           st.sampled_from([0, 1, 8, 32, 64]), st.sampled_from([1, 4, 8]))
    def test_any_warp_and_segment(self, launch, segment, warp, itemsize):
        """Warps that straddle the coordinate box and segments that do
        not hold whole items fall back, and still count exactly."""
        offset, dims = launch
        costmodel._AFFINE_COUNTS.clear()
        assert count_affine_transactions(offset, dims, segment, itemsize,
                                         warp) == \
            self._measured(offset, dims, segment, itemsize, warp)

    @given(st.integers(1, 300), st.integers(-40, 40),
           st.sampled_from(_DEVICE_SHAPES), st.sampled_from([1, 2, 4, 8]),
           st.integers(0, 64))
    def test_1d_strides_with_a_partial_last_warp(self, n, stride, device,
                                                 itemsize, slack):
        """A cluster chunk's launch: any length, so the last warp is
        partial, at any stride."""
        segment, warp = device
        offset = max(0, -stride * (n - 1)) + slack
        costmodel._AFFINE_COUNTS.clear()
        assert count_affine_transactions(offset, ((n, stride),), segment,
                                         itemsize, warp) == \
            self._measured(offset, ((n, stride),), segment, itemsize, warp)

    @pytest.mark.parametrize("dims", [
        # Floyd's y * n + x over 16x16 groups: two rows per warp
        ((8, 16 * 128), (8, 16), (16, 128), (16, 1)),
        # a row of 24 lanes: warps of 32 straddle rows
        ((4, 24), (24, 1)),
    ], ids=["floyd-tiles", "straddling-row"])
    def test_floyd_tiles_and_a_straddling_row(self, dims):
        costmodel._AFFINE_COUNTS.clear()
        assert count_affine_transactions(3, dims, 128, 4, 32) == \
            self._measured(3, dims, 128, 4, 32)

    def test_memo_keys_on_the_offset_residue(self):
        """Offsets a whole segment apart share an entry; others do
        not.  (A single dimension is closed-form and not memoized.)"""
        costmodel._AFFINE_COUNTS.clear()
        dims = ((4, 64), (16, 1))
        for offset in (0, 32, 1, 33):
            assert count_affine_transactions(offset, dims, 128, 4, 32) == \
                self._measured(offset, dims, 128, 4, 32)
        assert len(costmodel._AFFINE_COUNTS) == 2


class TestMaskedAffineCount:
    """``count_masked_affine_transactions`` equals
    ``count_index_transactions`` over the active lanes of the
    materialised index whenever it gives a count, and gives one
    whenever each key of the full launch fills one run of lanes."""

    @staticmethod
    def _measured(mask, offset, dims, segment, itemsize, warp):
        index = costmodel._lattice(offset, dims)
        lanes = np.arange(index.size, dtype=np.int64)
        return count_index_transactions(index[mask],
                                        (lanes // max(1, warp))[mask],
                                        segment, itemsize, 0)

    @staticmethod
    def _runs_equal_keys(offset, dims, segment, itemsize, warp):
        index = costmodel._lattice(offset, dims)
        keys = (np.arange(index.size) // max(1, warp) * (1 << 40)
                + index * itemsize // segment)
        runs = 1 + np.count_nonzero(keys[1:] != keys[:-1])
        return runs == np.unique(keys).size

    @given(_affine_launches(),
           st.sampled_from(_DEVICE_SHAPES + [(24, 32), (96, 8), (128, 0),
                                             (64, 64)]),
           st.sampled_from([1, 2, 4, 8]),
           st.integers(0, 2**32 - 1), st.sampled_from([0.05, 0.3, 0.7, 1.0]))
    def test_equals_the_measured_count(self, launch, device, itemsize,
                                       seed, density):
        offset, dims = launch
        segment, warp = device
        n = int(np.prod([e for e, _s in dims]))
        mask = np.random.default_rng(seed).random(n) < density
        costmodel._AFFINE_RUNS.clear()
        got = count_masked_affine_transactions(mask, offset, dims, segment,
                                               itemsize, warp)
        exact = self._runs_equal_keys(offset, dims, segment, itemsize, warp)
        assert (got is not None) == exact
        if got is not None:
            assert type(got) is int
            assert got == self._measured(mask, offset, dims, segment,
                                         itemsize, warp)

    @given(_affine_launches(),
           st.sampled_from(_DEVICE_SHAPES + [(24, 32), (96, 8), (128, 0),
                                             (64, 64)]),
           st.sampled_from([1, 2, 4, 8]),
           st.integers(0, 2**32 - 1), st.integers(0, 3))
    def test_sparse_masks_equal_the_measured_count(self, launch, device,
                                                   itemsize, seed, active):
        """Masks with at most three active lanes, fewer than the runs
        of most launches: the count searches the run of each lane."""
        offset, dims = launch
        segment, warp = device
        n = int(np.prod([e for e, _s in dims]))
        mask = np.zeros(n, bool)
        mask[np.random.default_rng(seed).choice(n, min(active, n),
                                                replace=False)] = True
        costmodel._AFFINE_RUNS.clear()
        got = count_masked_affine_transactions(mask, offset, dims, segment,
                                               itemsize, warp)
        if got is not None:
            assert type(got) is int
            assert got == self._measured(mask, offset, dims, segment,
                                         itemsize, warp)

    def test_floyd_store_counts_from_runs(self):
        """Floyd's ``y * n + x`` over 16x16 tiles: each warp holds two
        tile rows, one segment each, so every key fills one run."""
        dims = ((8, 16 * 128), (8, 16), (16, 128), (16, 1))
        mask = np.random.default_rng(3).random(128 * 128) < 0.3
        costmodel._AFFINE_RUNS.clear()
        got = count_masked_affine_transactions(mask, 0, dims, 128, 4, 32)
        assert got == self._measured(mask, 0, dims, 128, 4, 32)

    def test_a_key_in_two_runs_gives_none(self):
        """Two rows of four lanes, each lane a segment of its own, the
        rows alike: a warp of eight meets every key twice."""
        dims = ((2, 0), (4, 64))
        costmodel._AFFINE_RUNS.clear()
        assert count_masked_affine_transactions(
            np.ones(8, bool), 0, dims, 128, 4, 32) is None

    def test_memo_is_bounded(self):
        costmodel._AFFINE_RUNS.clear()
        for stride in range(1, 301):
            count_masked_affine_transactions(np.ones(64, bool), 0,
                                             ((64, stride),), 128, 4, 32)
        assert 0 < len(costmodel._AFFINE_RUNS) <= 256


class TestKernelTime:
    def make(self, **kw):
        base = dict(work_items=1024, work_groups=8, alu_ops=1e6,
                    global_load_bytes=1 << 20,
                    global_load_transactions=8192, global_loads=262144)
        base.update(kw)
        return CostCounters(**base)

    def test_gpu_overlaps_compute_and_memory(self):
        c = self.make()
        t = kernel_time(c, cl.TESLA_C2050)
        assert t.total == pytest.approx(
            max(t.compute, t.memory) + t.barrier + t.launch)

    def test_cpu_adds_compute_and_memory(self):
        c = self.make()
        t = kernel_time(c, cl.XEON_HOST)
        assert t.total == pytest.approx(
            t.compute + t.memory + t.barrier + t.launch)

    def test_fp64_penalty(self):
        fast = kernel_time(self.make(), cl.TESLA_C2050).compute
        slow = kernel_time(self.make(alu_ops=0, fp64_ops=1e6),
                           cl.TESLA_C2050).compute
        assert slow == pytest.approx(fast / cl.TESLA_C2050.fp64_ratio)

    def test_fp64_on_unsupported_device_raises(self):
        with pytest.raises(ValueError):
            kernel_time(self.make(fp64_ops=10), cl.QUADRO_FX380)

    def test_more_compute_units_is_faster(self):
        from dataclasses import replace
        c = self.make(global_load_bytes=0, global_load_transactions=0)
        small = replace(cl.TESLA_C2050, compute_units=16)
        assert kernel_time(c, cl.TESLA_C2050).compute < \
            kernel_time(c, small).compute

    def test_scaled_counters(self):
        c = self.make()
        s = c.scaled(4.0)
        assert s.alu_ops == c.alu_ops * 4
        assert s.global_load_bytes == c.global_load_bytes * 4

    def test_merge_accumulates(self):
        a, b = self.make(), self.make()
        a.merge(b)
        assert a.alu_ops == 2e6

    def test_serial_baseline_slower_than_parallel_host(self):
        c = self.make()
        assert kernel_time(c, cl.XEON_SERIAL).total > \
            kernel_time(c, cl.XEON_HOST).total


class TestTransferTime:
    def test_latency_floor(self):
        assert transfer_time(0, cl.TESLA_C2050) == pytest.approx(
            cl.TESLA_C2050.transfer_latency_us * 1e-6)

    def test_bandwidth_term(self):
        one_gb = transfer_time(1 << 30, cl.TESLA_C2050)
        assert one_gb == pytest.approx(
            cl.TESLA_C2050.transfer_latency_us * 1e-6
            + (1 << 30) / (cl.TESLA_C2050.transfer_gbs * 1e9))

    def test_monotone_in_size(self):
        assert transfer_time(2 << 20, cl.TESLA_C2050) > \
            transfer_time(1 << 20, cl.TESLA_C2050)


class TestMeasuredCoalescing:
    """The engines must measure real coalescing differences."""

    def _counters(self, src, n, cl_run):
        device = cl.Device(cl.TESLA_C2050, "jit")
        a = np.zeros(n, dtype=np.float32)
        return cl_run(device, src, "f", [a], (n,)).counters

    def test_sequential_vs_strided_loads(self, cl_run):
        seq = """__kernel void f(__global float* a) {
            int i = get_global_id(0);
            a[i] = a[i] + 1.0f;
        }"""
        device = cl.Device(cl.TESLA_C2050, "jit")
        n = 4096
        a = np.zeros(2 * n, dtype=np.float32)
        ev_seq = cl_run(device, seq, "f", [a], (n,))

        strided = """__kernel void f(__global float* a) {
            int i = get_global_id(0);
            a[i * 2] = a[i * 2] + 1.0f;
        }"""
        ev_str = cl_run(device, strided, "f", [a], (n,))
        assert ev_str.counters.global_load_transactions > \
            ev_seq.counters.global_load_transactions

    def test_gather_costs_most(self, cl_run):
        device = cl.Device(cl.TESLA_C2050, "jit")
        n = 4096
        rng = np.random.default_rng(0)
        idx = rng.permutation(n).astype(np.int32)
        gather = """__kernel void f(__global float* o,
                __global const float* a, __global const int* idx) {
            int i = get_global_id(0);
            o[i] = a[idx[i]];
        }"""
        o = np.zeros(n, np.float32)
        a = rng.random(n).astype(np.float32)
        ev = cl_run(device, gather, "f", [o, a, idx], (n,))
        # random gather: far more transactions than the ~n*4/128 a
        # coalesced sweep of both arrays would need
        coalesced = 2 * (n * 4 // 128)
        assert ev.counters.global_load_transactions > 4 * coalesced
