"""Capture/compile cache growth: per-call lambdas must not leak."""

import gc

import numpy as np
import pytest

import repro.hpl as hpl
from repro.hpl import Array, Float, float_, get_runtime, idx, int_


@pytest.fixture(autouse=True)
def _fresh(fresh_runtime):
    yield


def _farray(n=16, value=1.0):
    a = Array(float_, n)
    a.data[:] = np.float32(value)
    return a


class TestPerCallLambdas:
    def test_loop_of_fresh_lambdas_shares_one_entry(self):
        # each iteration builds a NEW closure object over the same code
        # with the same captured value — the old id()-less keying grew
        # the caches by one entry per call
        rt = get_runtime()
        for _ in range(8):
            factor = 2.0

            def scale(y, s):
                y[idx] = y[idx] * factor

            a = _farray()
            hpl.eval(scale)(a, Float(1.0))
        assert rt.stats.kernels_captured == 1
        assert rt.stats.kernels_built == 1
        assert rt.cache_entries == 2          # one captured + one binary

    def test_different_closure_values_get_distinct_entries(self):
        rt = get_runtime()
        for factor in (2.0, 3.0):
            def scale(y):
                y[idx] = y[idx] * factor

            hpl.eval(scale)(_farray())
        assert rt.stats.kernels_captured == 2

    def test_gauge_tracks_cache_size(self):
        rt = get_runtime()

        def k(y):
            y[idx] = y[idx] + 1.0

        hpl.eval(k)(_farray())
        gauge = rt.stats.registry.gauge("hpl.cache_entries")
        assert gauge.value == rt.cache_entries
        assert rt.cache_entries == 2


class TestEngineSwitchRecompiles:
    def test_switching_engine_mid_session_recompiles(self):
        """The compiled-kernel cache key carries the resolved engine
        name: ``hpl.configure(engine=)`` mid-session must build a new
        executable, never reuse the other backend's cached code — and
        switching back hits the original entry again."""
        rt = get_runtime()

        def k(y):
            y[idx] = y[idx] * 3.0

        a_jit, a_serial = _farray(), _farray()
        hpl.eval(k)(a_jit)
        assert rt.stats.kernels_built == 1
        hpl.configure(engine="serial")
        try:
            switched = hpl.eval(k)(a_serial)
            assert not switched.from_cache
            assert rt.stats.kernels_built == 2
            again = hpl.eval(k)(_farray())
            assert again.from_cache         # same backend: cached now
        finally:
            hpl.configure(engine=None)
        back = hpl.eval(k)(_farray())
        assert back.from_cache              # original entry still valid
        assert rt.stats.kernels_built == 2
        np.testing.assert_array_equal(a_jit.data, a_serial.data)

    def test_reset_runtime_drops_jit_codegen(self, monkeypatch):
        """Launch counts and compiled code live on each program's
        bytecode, so a reset drops both: the next launch is interpreted
        again, and the one after it generates code afresh."""
        from repro import trace
        from repro.hpl import reset_runtime
        from repro.ocl.engines import jit as jit_mod

        calls = []
        original = jit_mod.generate_module
        monkeypatch.setattr(jit_mod, "generate_module",
                            lambda pbc: calls.append(pbc) or original(pbc))

        def k(y):
            y[idx] = y[idx] + 1.0

        def tiers():
            tracer = trace.enable(fresh=True)
            try:
                for _ in range(2):
                    hpl.eval(k)(_farray())
            finally:
                trace.disable()
            return [s.attrs["tier"] for s in tracer.spans()
                    if s.name == "engine_run"]

        assert tiers() == ["interp", "compiled"]
        reset_runtime()
        assert tiers() == ["interp", "compiled"]
        assert len(calls) == 2


class TestWeakrefPurge:
    def test_dead_nonprimitive_closure_is_evicted(self):
        # closing over an ndarray forces the weakref fallback; once the
        # function dies, its cache entries must go with it
        rt = get_runtime()

        def make(values):
            def k(y):
                y[idx] = y[idx] + float(values[0])

            return k

        kern = make(np.ones(3))
        hpl.eval(kern)(_farray())
        assert rt.cache_entries == 2
        del kern
        gc.collect()
        assert rt.cache_entries == 0
        assert rt.stats.registry.gauge("hpl.cache_entries").value == 0

    def test_live_nonprimitive_closure_stays_cached(self):
        rt = get_runtime()
        values = np.ones(3)

        def k(y):
            y[idx] = y[idx] + float(values[0])

        hpl.eval(k)(_farray())
        hit = hpl.eval(k)(_farray())
        assert hit.from_cache
        assert rt.stats.kernels_built == 1
        assert rt.cache_entries == 2


def _iarray(values):
    a = Array(int_, len(values))
    a.data[:] = values
    return a


class TestClosureValueCollisions:
    """Closure values that compare equal but trace to different kernels
    must not share a cache entry: a shared entry serves the kernel of
    whichever value was evaluated first."""

    def test_frozenset_of_int_then_of_float(self):
        def make(divisors):
            def k(y, x):
                for v in divisors:
                    y[idx] = x[idx] / v

            return k

        results = []
        for divisors in (frozenset({3}), frozenset({3.0})):
            y = _farray(4, 0.0)
            hpl.eval(make(divisors))(y, _iarray([7, 8, 9, 10]))
            results.append(y.read().copy())
        np.testing.assert_array_equal(results[0], [2, 2, 3, 3])
        np.testing.assert_allclose(results[1],
                                   np.float32([7, 8, 9, 10]) / 3)
        assert get_runtime().stats.kernels_captured == 2

    def test_positive_then_negative_zero(self):
        def make(c):
            def k(y, x):
                y[idx] = x[idx] / c

            return k

        results = []
        for c in (0.0, -0.0):
            y = _farray(4, 0.0)
            hpl.eval(make(c))(y, _farray(4))
            results.append(y.read().copy())
        assert np.all(results[0] == np.inf)
        assert np.all(results[1] == -np.inf)
        assert get_runtime().stats.kernels_captured == 2
