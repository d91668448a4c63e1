"""Profiler lifecycle: configure(), reset_runtime(), env parsing."""

from __future__ import annotations

import numpy as np
import pytest

import repro.hpl as hpl
import repro.ocl as cl
from repro import prof, trace
from repro.hpl import reset_runtime
from repro.ocl import TESLA_C2050
from repro.prof import _env_enabled

AXPY = """__kernel void axpy(__global float* y)
{
    y[get_global_id(0)] = 1.0f;
}
"""


def _launch(cl_run):
    device = cl.Device(TESLA_C2050, "jit")
    cl_run(device, AXPY, "axpy", [np.zeros(64, dtype=np.float32)],
           (64,), (64,))


class TestConfigure:
    def test_profile_toggle(self, profiler):
        hpl.configure(profile=False)
        assert not prof.is_enabled()
        hpl.configure(profile=True)
        assert prof.is_enabled()

    def test_unrelated_configure_leaves_profiler_alone(self, profiler):
        hpl.configure(opt_level=2)
        assert prof.is_enabled()
        hpl.configure(opt_level=None)


class TestResetRuntime:
    def test_drops_profiles_but_keeps_enabled(self, profiler, cl_run,
                                              fresh_runtime):
        _launch(cl_run)
        assert len(profiler) == 1
        reset_runtime()
        assert len(profiler) == 0
        # the benchsuite resets mid-run under --record: staying enabled
        # is what keeps the HPL leg's profile collectable
        assert profiler.enabled
        _launch(cl_run)
        assert len(profiler) == 1

    def test_reset_runtime_keeps_global_metrics(self, fresh_runtime):
        # the opt-pipeline experiment aggregates pass counters across
        # runtime resets — reset_runtime must not zero the registry
        counter = trace.get_registry().counter("clc.compiles")
        before = counter.value
        counter.inc()
        reset_runtime()
        assert trace.get_registry().counter("clc.compiles").value \
            == before + 1
        trace.get_registry().counter("clc.compiles").inc(-1)


class TestResetMetrics:
    def test_zeroes_every_instrument(self):
        registry = trace.get_registry()
        registry.counter("prof.test_counter").inc(5)
        trace.reset_metrics()
        assert registry.counter("prof.test_counter").value == 0


class TestEnvParsing:
    @pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
    def test_truthy(self, monkeypatch, value):
        monkeypatch.setenv("HPL_PROFILE", value)
        assert _env_enabled()

    @pytest.mark.parametrize("value", ["", "0", "false", "False", "no"])
    def test_falsy(self, monkeypatch, value):
        monkeypatch.setenv("HPL_PROFILE", value)
        assert not _env_enabled()

    def test_unset(self, monkeypatch):
        monkeypatch.delenv("HPL_PROFILE", raising=False)
        assert not _env_enabled()


class TestTraceIntegration:
    def test_profile_attaches_span_attributes(self, profiler, cl_run):
        old = trace.get_tracer()
        tracer = trace.set_tracer(trace.Tracer(enabled=True))
        try:
            _launch(cl_run)
            runs = [s for s in tracer.spans() if s.name == "engine_run"]
            assert runs, [s.name for s in tracer.spans()]
            attrs = runs[-1].attrs
            assert attrs["prof_bound"] in ("compute", "memory")
            assert attrs["prof_total_seconds"] > 0
            assert attrs["prof_attributed"] == pytest.approx(1.0)
        finally:
            trace.set_tracer(old)
            trace.disable()

    def test_profile_bumps_metrics(self, profiler, cl_run):
        registry = trace.get_registry()
        before = registry.counter("prof.launches").value
        _launch(cl_run)
        assert registry.counter("prof.launches").value == before + 1
