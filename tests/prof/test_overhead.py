"""Profiling-off must stay near-free (acceptance: <5% on benchsuite).

A wall-clock benchsuite comparison is too noisy for CI, so — like
``tests/trace/test_overhead.py`` — this pins the *mechanism*: a
disabled profiler hands the engines ``None`` instead of a collector, so
every per-instruction site reduces to one ``col is not None`` check on
a local, and the per-launch entry reduces to one attribute read.  Both
are bounded here at amortized sub-microsecond cost, orders of magnitude
below the interpreter work per counted instruction.
"""

from __future__ import annotations

import time

from repro import prof


class TestDisabledFastPath:
    def test_begin_launch_returns_none(self):
        prof.disable()
        assert prof.begin_launch("k", "jit", None, "", 64, 1) is None
        assert len(prof.get_profiler()) == 0

    def test_finish_launch_of_none_is_noop(self):
        prof.disable()
        assert prof.finish_launch(None, object()) is None
        assert len(prof.get_profiler()) == 0

    def test_disabled_begin_cost_is_sub_microsecond_amortized(self):
        prof.disable()
        n = 100_000
        t0 = time.perf_counter()
        for _ in range(n):
            prof.begin_launch("k", "jit", None, "", 64, 1)
        elapsed = time.perf_counter() - t0
        # generous CI bound: 10us/call would still pass; typical ~0.3us
        assert elapsed < n * 10e-6, (
            f"disabled begin_launch costs {elapsed / n * 1e6:.2f}us/call")

    def test_per_instruction_guard_cost_is_nanoseconds(self):
        # the engines' per-op fast path is literally this: a local that
        # is None plus a truthiness check before any recording call
        col = None
        n = 1_000_000
        t0 = time.perf_counter()
        for _ in range(n):
            if col is not None:
                raise AssertionError
        elapsed = time.perf_counter() - t0
        assert elapsed < n * 1e-6


class TestEnabledStillBounded:
    def test_collector_recording_is_cheap(self, profiler):
        col = profiler.begin_launch("k", "jit", None, "", 64, 1)
        n = 100_000
        t0 = time.perf_counter()
        for i in range(n):
            col.op(7, 64, 1.0, False, 64)
        elapsed = time.perf_counter() - t0
        assert elapsed < n * 20e-6
        assert col.lines[7].execs == n * 64
