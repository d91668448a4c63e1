"""End-to-end instrumentation: HPL, SimCL and clc emit the right spans."""

from __future__ import annotations

import numpy as np
import pytest

import repro.hpl as hpl
from repro import trace
from repro.errors import ProfilingDisabledError, ProfilingInfoNotAvailable
from repro.hpl import Array, Double, double_, idx


def saxpy(y, x, a):
    y[idx] = a * x[idx] + y[idx]


def _run_saxpy_twice():
    n = 32
    x = Array(double_, n)
    y = Array(double_, n)
    x.data[:] = 1.0
    y.data[:] = 2.0
    first = hpl.eval(saxpy)(y, x, Double(3.0))
    second = hpl.eval(saxpy)(y, x, Double(3.0))
    y.read()
    return first, second


@pytest.fixture()
def traced_runtime(fresh_runtime, tracer):
    """Fresh HPL runtime under a fresh enabled tracer."""
    return tracer


class TestHplSpans:
    def test_cold_eval_emits_capture_build_launch(self, traced_runtime):
        _run_saxpy_twice()
        names = [(s.category, s.name) for s in traced_runtime.spans()]
        assert names.count(("hpl", "capture")) == 1
        assert names.count(("hpl", "build")) == 1
        assert names.count(("hpl", "eval")) == 2
        assert names.count(("hpl", "launch")) == 2
        assert names.count(("hpl", "bind_args")) == 2

    def test_eval_spans_record_cache_hit_and_miss(self, traced_runtime):
        _run_saxpy_twice()
        evals = [s for s in traced_runtime.spans()
                 if (s.category, s.name) == ("hpl", "eval")]
        assert [s.attrs["cache"] for s in evals] == ["miss", "hit"]
        assert all(s.attrs["kernel"] == "saxpy" for s in evals)
        assert all("device" in s.attrs for s in evals)

    def test_nesting_capture_under_eval(self, traced_runtime):
        _run_saxpy_twice()
        spans = traced_runtime.spans()
        by_id = {s.span_id: s for s in spans}
        capture = [s for s in spans if s.name == "capture"][0]
        build = [s for s in spans if s.name == "build"][0]
        assert by_id[capture.parent_id].name == "eval"
        assert by_id[build.parent_id].name == "eval"

    def test_build_span_attrs(self, traced_runtime):
        _run_saxpy_twice()
        build = [s for s in traced_runtime.spans()
                 if s.name == "build"][0]
        assert build.attrs["kernel"] == "saxpy"
        assert build.attrs["build_seconds"] > 0

    def test_launch_span_carries_sim_kernel_seconds(self, traced_runtime):
        _run_saxpy_twice()
        launches = [s for s in traced_runtime.spans()
                    if s.name == "launch"]
        assert all(s.attrs["sim_kernel_seconds"] > 0 for s in launches)


class TestClcSpans:
    def test_compile_pipeline_stages(self, traced_runtime):
        _run_saxpy_twice()
        clc = [s.name for s in traced_runtime.spans()
               if s.category == "clc"]
        for stage in ("compile", "preprocess", "lex", "parse", "sema"):
            assert stage in clc
        spans = traced_runtime.spans()
        by_id = {s.span_id: s for s in spans}
        parse = [s for s in spans if s.name == "parse"][0]
        assert by_id[parse.parent_id].name == "compile"
        assert parse.attrs["tokens"] > 0


class TestSimclSpans:
    def test_device_events_on_simulated_clock(self, traced_runtime):
        _run_saxpy_twice()
        sim = [s for s in traced_runtime.spans() if s.clock == "sim"]
        kinds = {s.name for s in sim}
        assert "ndrange_kernel" in kinds
        assert "write_buffer" in kinds
        assert "read_buffer" in kinds
        assert all(s.device for s in sim)
        # simulated timeline is monotone per device: spans don't overlap
        per_device: dict = {}
        for s in sorted(sim, key=lambda s: s.start_us):
            last = per_device.get(s.device, 0.0)
            assert s.start_us >= last - 1e-9
            per_device[s.device] = s.end_us

    def test_kernel_event_attrs_and_engine_span(self, traced_runtime):
        _run_saxpy_twice()
        spans = traced_runtime.spans()
        kernel_events = [s for s in spans if s.name == "ndrange_kernel"]
        assert all(s.attrs["kernel"] == "saxpy" for s in kernel_events)
        engine_runs = [s for s in spans if s.name == "engine_run"]
        assert len(engine_runs) == 2
        assert all(s.attrs["engine"] in ("jit", "serial")
                   for s in engine_runs)
        assert all(s.attrs["work_items"] == 32 for s in engine_runs)


class TestStatsIntegration:
    def test_transfer_seconds_accumulate(self, traced_runtime):
        _run_saxpy_twice()
        stats = hpl.get_runtime().stats
        assert stats.h2d_transfers == 2          # x and y, once each
        assert stats.h2d_seconds > 0
        assert stats.d2h_transfers == 1          # y readback
        assert stats.d2h_seconds > 0
        assert stats.transfer_seconds == pytest.approx(
            stats.h2d_seconds + stats.d2h_seconds)

    def test_stats_visible_in_registry_summary(self, traced_runtime):
        _run_saxpy_twice()
        stats = hpl.get_runtime().stats
        text = stats.registry.summary()
        assert "hpl.cache_hits" in text
        assert "hpl.h2d_seconds" in text


class TestProfilingDisabledError:
    def test_error_type_and_message_name_the_queue(self):
        import repro.ocl as cl
        from repro.ocl import TESLA_C2050

        device = cl.Device(TESLA_C2050, "jit")
        ctx = cl.Context([device])
        queue = cl.CommandQueue(ctx, device, profiling=False)
        buf = cl.Buffer(ctx, cl.mem_flags.READ_WRITE, size=64)
        event = queue.enqueue_write_buffer(
            buf, np.zeros(8, dtype=np.float64))
        with pytest.raises(ProfilingDisabledError) as exc:
            _ = event.duration_ns
        assert device.name in str(exc.value)
        assert "profiling=False" in str(exc.value)
        # the new error still satisfies the old contract
        assert isinstance(exc.value, ProfilingInfoNotAvailable)

    def test_profiling_enabled_queue_still_works(self):
        import repro.ocl as cl
        from repro.ocl import TESLA_C2050

        device = cl.Device(TESLA_C2050, "jit")
        ctx = cl.Context([device])
        queue = cl.CommandQueue(ctx, device, profiling=True)
        buf = cl.Buffer(ctx, cl.mem_flags.READ_WRITE, size=64)
        event = queue.enqueue_write_buffer(
            buf, np.zeros(8, dtype=np.float64))
        assert event.duration_ns > 0
        assert event.device_name == device.name


class TestDisabledByDefault:
    def test_default_tracer_records_nothing_from_hpl(self, fresh_runtime):
        assert not trace.is_enabled()
        before = len(trace.get_tracer())
        _run_saxpy_twice()
        assert len(trace.get_tracer()) == before
