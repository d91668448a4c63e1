"""The pluggable execution-backend registry and engine selection."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.hpl as hpl
import repro.ocl as cl
from repro import trace
from repro.ocl import TESLA_C2050
from repro.ocl.engines.base import (_REGISTRY, available_engines,
                                    default_engine, get_engine_class,
                                    register_engine, set_default_engine)
from repro.ocl.engines.vector import VectorEngine
from tests.conftest import run_cl_kernel

BUILTIN_ENGINES = ("jit", "serial")


@pytest.fixture(autouse=True)
def _clean_default():
    """Every test leaves the process-wide default engine untouched."""
    set_default_engine(None)
    yield
    set_default_engine(None)


class TestRegistry:
    def test_builtins_are_registered(self):
        for name in BUILTIN_ENGINES:
            assert name in available_engines()
            assert get_engine_class(name).name == name

    def test_fresh_process_registers_only_jit_and_serial(self):
        """Without the test suite's tier-pinned engines, the registry
        holds the two built-in engines, and the retired ``vector`` name
        is rejected like any unknown engine."""
        code = ("import repro.hpl as hpl\n"
                "from repro.ocl.engines import available_engines\n"
                "print(available_engines())\n"
                "try:\n"
                "    hpl.configure(engine='vector')\n"
                "except ValueError:\n"
                "    print('rejected')\n")
        src = str(Path(__file__).parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("HPL_ENGINE", None)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split("\n")[:2] == ["['jit', 'serial']",
                                              "rejected"]

    def test_unknown_engine_error_lists_backends(self):
        with pytest.raises(ValueError) as exc:
            get_engine_class("warpspeed")
        msg = str(exc.value)
        assert "warpspeed" in msg
        for name in BUILTIN_ENGINES:
            assert name in msg

    def test_device_rejects_unknown_engine_eagerly(self):
        with pytest.raises(ValueError, match="registered backends"):
            cl.Device(TESLA_C2050, "warpspeed")

    def test_register_engine_validates_shape(self):
        with pytest.raises(ValueError, match="name"):
            register_engine(type("Nameless", (), {}))
        with pytest.raises(ValueError, match="run"):
            register_engine(type("NoRun", (), {"name": "norun"}))

    def test_custom_engine_registers_and_runs(self):
        calls = []

        @register_engine
        class CountingEngine(VectorEngine):
            name = "counting-test"

            def run(self, *args, **kwargs):
                calls.append(args[0])
                return super().run(*args, **kwargs)

        try:
            device = cl.Device(TESLA_C2050, "counting-test")
            y = np.zeros(8, np.int32)
            run_cl_kernel(device, "__kernel void k(__global int* y) "
                                  "{ y[get_global_id(0)] = 7; }",
                          "k", [y], (8,))
            assert calls == ["k"]
            assert (y == 7).all()
        finally:
            del _REGISTRY["counting-test"]


class TestSelectionPrecedence:
    def test_default_is_jit(self):
        assert default_engine() == "jit"
        assert cl.Device(TESLA_C2050).engine_name == "jit"

    def test_env_override_and_validation(self, monkeypatch):
        monkeypatch.setenv("HPL_ENGINE", "serial")
        assert default_engine() == "serial"
        assert cl.Device(TESLA_C2050).engine_name == "serial"
        # an explicit Device(engine=) wins over the default
        assert cl.Device(TESLA_C2050, "jit").engine_name == "jit"
        monkeypatch.setenv("HPL_ENGINE", "warpspeed")
        with pytest.raises(ValueError, match="registered backends"):
            default_engine()

    def test_configure_beats_env(self, monkeypatch):
        monkeypatch.setenv("HPL_ENGINE", "serial")
        hpl.configure(engine="jit")
        assert default_engine() == "jit"
        hpl.configure(engine=None)      # back to the env override
        assert default_engine() == "serial"

    def test_configure_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="registered backends"):
            hpl.configure(engine="warpspeed")

    def test_unset_device_tracks_default_dynamically(self):
        device = cl.Device(TESLA_C2050)
        set_default_engine("serial")
        assert device.engine_name == "serial"
        set_default_engine(None)
        assert device.engine_name == "jit"

    def test_env_change_between_launches_is_honoured(self, monkeypatch):
        """A launch resolves the engine name once, at the time it runs:
        one kernel object launched under two ``$HPL_ENGINE`` values
        runs on each backend in turn, and each launch's span and
        engine agree."""
        device = cl.Device(TESLA_C2050)
        ctx = cl.Context([device])
        queue = cl.CommandQueue(ctx, device)
        kernel = cl.Program(ctx, "__kernel void k(__global int* y) "
                                 "{ y[get_global_id(0)] += 1; }").build() \
            .create_kernel("k")
        y = np.zeros(8, np.int32)
        buf = cl.Buffer(ctx, cl.mem_flags.READ_WRITE, size=y.nbytes)
        queue.enqueue_write_buffer(buf, y)
        kernel.set_arg(0, buf)
        tracer = trace.enable(fresh=True)
        try:
            for engine in ("serial", "jit", "serial"):
                monkeypatch.setenv("HPL_ENGINE", engine)
                queue.enqueue_nd_range_kernel(kernel, (8,))
            queue.finish()
        finally:
            trace.disable()
        spans = tracer.spans()
        for name in ("enqueue_kernel", "engine_run"):
            assert [sp.attrs["engine"] for sp in spans
                    if sp.name == name] == ["serial", "jit", "serial"]
        queue.enqueue_read_buffer(buf, y)
        assert (y == 3).all()

    def test_one_launch_resolves_the_default_once(self, monkeypatch):
        from repro.ocl import device as device_mod
        calls = []

        def counting():
            calls.append(1)
            return default_engine()

        device = cl.Device(TESLA_C2050)
        ctx = cl.Context([device])
        queue = cl.CommandQueue(ctx, device)
        kernel = cl.Program(ctx, "__kernel void k(__global int* y) "
                                 "{ y[get_global_id(0)] = 1; }").build() \
            .create_kernel("k")
        kernel.set_arg(0, cl.Buffer(ctx, cl.mem_flags.READ_WRITE, size=32))
        monkeypatch.setattr(device_mod, "default_engine", counting)
        queue.enqueue_nd_range_kernel(kernel, (8,))
        queue.finish()
        assert len(calls) == 1
