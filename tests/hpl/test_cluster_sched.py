"""Cluster scheduling: policies, calibration, and the cluster-layer
bugfixes (device-identity timelines, tiny partitions, overlapped
gather, per-capture broadcast-write checks)."""

import numpy as np
import pytest

import repro.hpl as hpl
from repro import ocl
from repro.errors import HPLError, ProfilingDisabledError
from repro.hpl import Float, Int, endfor_, float_, for_, idx, int_
from repro.hpl.cluster import (Cluster, DistributedArray, DynamicScheduler,
                               Scheduler, UniformScheduler,
                               WeightedScheduler, calibration, cluster_eval,
                               get_scheduler, timeline_of)
from repro.ocl import (QUADRO_FX380, TESLA_C2050, XEON_HOST, XEON_SERIAL,
                       reset_platform_devices, set_platform_devices)


@pytest.fixture(autouse=True)
def _fresh(fresh_runtime):
    # calibration history is process-wide by design; isolate tests
    calibration().reset()
    yield
    calibration().reset()
    reset_platform_devices()
    hpl.reset_runtime()


def ep_part(y, x, a, offset, count):
    y[idx] = a * hpl.sqrt(x[idx] * x[idx] + 1.0) + y[idx]


K = 4   # row width of the ELL-style matrix in spmv_part


def spmv_part(y, vals, cols, xv, offset, count):
    # y is distributed over rows; the matrix and the full x vector are
    # broadcast (read-only) — each device computes its rows only
    row = Int()
    row.assign(offset + idx)
    acc = Float(0.0)
    j = Int()
    for_(j, 0, K)
    acc.assign(acc + vals[row * K + j] * xv[cols[row * K + j]])
    endfor_()
    y[idx] = acc


def _ep_problem(cluster, rng, n):
    xs = rng.random(n).astype(np.float32)
    ys = rng.random(n).astype(np.float32)
    dx = DistributedArray(float_, n, cluster, data=xs)
    dy = DistributedArray(float_, n, cluster, data=ys)
    return (dy, dx, Float(2.0)), dy


def _spmv_problem(cluster, rng, n):
    vals = hpl.Array(float_, n * K)
    cols = hpl.Array(int_, n * K)
    xv = hpl.Array(float_, n)
    vals.data[:] = rng.random(n * K).astype(np.float32)
    cols.data[:] = rng.integers(0, n, n * K)
    xv.data[:] = rng.random(n).astype(np.float32)
    dy = DistributedArray(float_, n, cluster)
    return (dy, vals, cols, xv), dy


PROBLEMS = {"ep": (ep_part, _ep_problem),
            "spmv": (spmv_part, _spmv_problem)}


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("problem", sorted(PROBLEMS))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_policies_bit_identical(self, rng, problem, k):
        kernel, make = PROBLEMS[problem]
        n = 257     # odd on purpose: uneven splits everywhere
        outs = {}
        for schedule in (None, "uniform", "weighted", "dynamic"):
            hpl.reset_runtime()
            c = Cluster(hpl.get_devices()[:k])
            args, out = make(c, np.random.default_rng(7), n)
            results = cluster_eval(kernel, c, *args, schedule=schedule)
            assert all(r.complete for r in results)
            outs[schedule] = out.gather()
        base = outs[None]
        for schedule, got in outs.items():
            assert np.array_equal(got, base), \
                f"{schedule} diverged from default partitioning"

    def test_explicit_weights_respected(self, rng):
        c = Cluster(hpl.get_devices())
        args, out = _ep_problem(c, rng, 300)
        sched = WeightedScheduler(weights=[1.0, 0.0, 0.0])
        results = cluster_eval(ep_part, c, *args, schedule=sched)
        # zero-weight devices get empty partitions, skipped at launch
        assert len(results) == 1
        dy = args[0]
        assert [hi - lo for lo, hi in dy.bounds] == [300, 0, 0]

    def test_unknown_schedule_rejected(self):
        with pytest.raises(HPLError, match="unknown schedule"):
            get_scheduler("fastest")

    def test_dynamic_plans_no_pinned_chunks(self):
        # every chunk of a dynamic schedule is cut on demand, unpinned
        assert DynamicScheduler().plan(100, Cluster(hpl.get_devices())) \
            == []

    def test_base_scheduler_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Scheduler().plan(10, Cluster(hpl.get_devices()))


class TestProfilingDisabled:
    @pytest.mark.parametrize("schedule", [None, "uniform", "weighted",
                                          "dynamic"])
    def test_every_schedule_raises(self, schedule):
        # every completion reads its kernel's duration, so a queue
        # without profiling fails the same way under every schedule
        c = Cluster(hpl.get_devices())
        for d in c.devices:
            d.queue = ocl.CommandQueue(d.context, d.ocl, profiling=False)
        args, _dy = _ep_problem(c, np.random.default_rng(0), 1000)
        with pytest.raises(ProfilingDisabledError):
            cluster_eval(ep_part, c, *args, schedule=schedule)


class TestDeviceIdentityTimelines:
    def test_same_model_devices_get_separate_buckets(self, rng):
        # regression: busy time used to be keyed by device *name*, so
        # two devices of the same model merged into one bucket and the
        # serialized/overlap numbers were wrong
        set_platform_devices([TESLA_C2050, TESLA_C2050])
        hpl.reset_runtime()
        c = Cluster(hpl.get_devices())
        assert len(c) == 2
        args, _out = _ep_problem(c, rng, 1 << 12)
        results = cluster_eval(ep_part, c, *args)
        tl = timeline_of(results)
        assert set(tl.busy_seconds) == {
            "SimCL Tesla C2050/C2070#0", "SimCL Tesla C2050/C2070#1"}
        assert tl.serialized_seconds == pytest.approx(
            sum(tl.busy_seconds.values()))
        # identical devices with near-even blocks must overlap
        assert tl.overlap_factor > 1.5

    def test_labels_unique_across_roster(self):
        set_platform_devices([TESLA_C2050, TESLA_C2050, TESLA_C2050])
        hpl.reset_runtime()
        labels = [d.label for d in hpl.get_devices()]
        assert len(set(labels)) == 3


class TestTinyPartitions:
    def test_one_element_on_four_devices(self, rng):
        set_platform_devices(
            [TESLA_C2050, QUADRO_FX380, XEON_HOST, XEON_SERIAL])
        hpl.reset_runtime()
        c = Cluster(hpl.get_devices())
        assert len(c) == 4
        d = DistributedArray(float_, 1, c, data=np.array([3.0], np.float32))
        y = DistributedArray(float_, 1, c)
        results = cluster_eval(ep_part, c, y, d, Float(2.0))
        # only the single non-empty partition launched
        assert len(results) == 1
        assert y.parts.count(None) == 3
        expected = np.float32(2.0) * np.sqrt(np.float32(3.0) ** 2
                                             + np.float32(1.0))
        assert y.gather()[0] == pytest.approx(expected, rel=1e-6)

    def test_fewer_elements_than_devices(self, rng):
        c = Cluster(hpl.get_devices())
        data = np.arange(2, dtype=np.float32)
        d = DistributedArray(float_, 2, c, data=data)
        results = cluster_eval(ep_part, c, d, d, Float(2.0))
        assert len(results) == 2
        expected = np.float32(2.0) * np.sqrt(data * data
                                             + np.float32(1.0)) + data
        assert np.allclose(d.gather(), expected, rtol=1e-6)


class TestOverlappedGather:
    def test_gather_transfers_overlap(self, rng):
        # regression: gather used to block on each partition's d2h in
        # the host loop; now all copies are enqueued before any wait,
        # so transfers from different devices share the timeline
        set_platform_devices([TESLA_C2050, TESLA_C2050])
        hpl.reset_runtime()
        c = Cluster(hpl.get_devices())
        args, out = _ep_problem(c, rng, 1 << 14)
        cluster_eval(ep_part, c, *args)
        out.gather()
        events = out.last_gather_events
        assert len(events) == 2
        tl = timeline_of(events)
        assert set(tl.busy_seconds) == {d.label for d in c.devices}
        assert tl.makespan_seconds < tl.serialized_seconds
        assert tl.overlap_factor > 1.0

    def test_gather_without_device_writes_needs_no_events(self, rng):
        c = Cluster(hpl.get_devices())
        data = rng.random(64).astype(np.float32)
        d = DistributedArray(float_, 64, c, data=data)
        assert np.array_equal(d.gather(), data)
        assert d.last_gather_events == []


class TestCalibrationFeedback:
    def test_eval_records_throughput_for_all_devices(self, rng):
        c = Cluster(hpl.get_devices())
        args, _out = _ep_problem(c, rng, 3000)
        cluster_eval(ep_part, c, *args)
        for d in c.devices:
            tput = calibration().throughput("ep_part", d.label)
            assert tput is not None and tput > 0
            assert calibration().samples("ep_part", d.label) == 1

    def test_weighted_uses_history_once_complete(self, rng):
        c = Cluster(hpl.get_devices())
        sched = WeightedScheduler()
        _w, source = sched.weights_for(c, "ep_part")
        assert source == "spec"
        args, _out = _ep_problem(c, rng, 3000)
        cluster_eval(ep_part, c, *args)
        weights, source = sched.weights_for(c, "ep_part")
        assert source == "calibrated"
        assert weights == [calibration().throughput("ep_part", d.label)
                           for d in c.devices]
        # opting out of calibration returns to spec estimates
        _w, source = WeightedScheduler(calibrate=False).weights_for(
            c, "ep_part")
        assert source == "spec"

    def test_weighted_favours_faster_device(self, rng):
        # Tesla's spec throughput dwarfs the Quadro's; its block must
        # be the largest under either weight source
        c = Cluster(hpl.get_devices())
        plan = UniformScheduler().plan(3000, c)
        wplan = WeightedScheduler().plan(3000, c)
        assert sum(p.size for p in wplan) == 3000
        assert wplan[0].size > max(p.size for p in plan)


class TestBroadcastWriteCheckPerCapture:
    def test_closure_change_recaptures_and_rejects(self, rng):
        # the write-set of `flex` depends on a closure value, so the
        # capture consulted by the broadcast-write check must be the
        # capture for the *current* closure, not a cached earlier one
        write_broadcast = False

        def flex(y, acc, offset, count):
            if write_broadcast:
                acc[idx] = y[idx]
            else:
                y[idx] = y[idx] + acc[idx]

        c = Cluster(hpl.get_devices())
        dy = DistributedArray(float_, 60, c,
                              data=rng.random(60).astype(np.float32))
        acc = hpl.Array(float_, 60 // len(c))
        acc.data[:] = rng.random(60 // len(c)).astype(np.float32)
        cluster_eval(flex, c, dy, acc)      # read-only: fine

        write_broadcast = True
        with pytest.raises(HPLError, match="broadcast"):
            cluster_eval(flex, c, dy, acc)

    @pytest.mark.parametrize("schedule", ["uniform", "weighted", "dynamic"])
    def test_checked_under_every_policy(self, rng, schedule):
        def bad(y, acc, offset, count):
            acc[idx] = y[idx]

        c = Cluster(hpl.get_devices())
        dy = DistributedArray(float_, 60, c,
                              data=rng.random(60).astype(np.float32))
        acc = hpl.Array(float_, 60)
        with pytest.raises(HPLError, match="broadcast"):
            cluster_eval(bad, c, dy, acc, schedule=schedule)


class TestRepartition:
    def test_repartition_preserves_contents(self, rng):
        c = Cluster(hpl.get_devices())
        data = rng.random(100).astype(np.float32)
        d = DistributedArray(float_, 100, c, data=data)
        d.repartition([(0, 90), (90, 95), (95, 100)])
        assert [hi - lo for lo, hi in d.bounds] == [90, 5, 5]
        assert np.array_equal(d.gather(), data)

    def test_repartition_after_device_writes(self, rng):
        c = Cluster(hpl.get_devices())
        args, out = _ep_problem(c, rng, 120)
        cluster_eval(ep_part, c, *args)
        before = out.gather().copy()
        out.repartition([(0, 100), (100, 110), (110, 120)])
        assert np.array_equal(out.gather(), before)

    def test_bad_bounds_rejected(self, rng):
        c = Cluster(hpl.get_devices())
        d = DistributedArray(float_, 10, c)
        with pytest.raises(HPLError):
            d.repartition([(0, 4), (5, 10), (10, 10)])   # gap
        with pytest.raises(HPLError):
            d.repartition([(0, 4), (4, 9)])              # short cover


class TestDynamicDispatch:
    def test_fast_device_pulls_most_chunks(self, rng):
        c = Cluster(hpl.get_devices())
        args, out = _ep_problem(c, rng, 1 << 14)
        results = cluster_eval(ep_part, c, *args, schedule="dynamic")
        assert len(results) > len(c)     # really chunked
        per_device = {}
        for r in results:
            per_device[r.device.label] = \
                per_device.get(r.device.label, 0) + 1
        assert set(per_device) == {d.label for d in c.devices}
        # chunk bounds became the array's partitioning
        assert len(out.bounds) == len(results)

    def test_fixed_chunk_size(self, rng):
        c = Cluster(hpl.get_devices())
        args, out = _ep_problem(c, rng, 100)
        sched = DynamicScheduler(chunk_size=40)
        results = cluster_eval(ep_part, c, *args, schedule=sched)
        assert [hi - lo for lo, hi in args[0].bounds] == [40, 40, 20]
        assert len(results) == 3
