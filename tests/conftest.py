"""Shared fixtures for the test suite, and the test-only engines that
pin the ``jit`` engine to one tier."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import settings

import repro.ocl as cl
from repro.hpl import reset_runtime
from repro.ocl import QUADRO_FX380, TESLA_C2050, XEON_HOST
from repro.ocl.engines import JitEngine, register_engine


#: ``pytest --hypothesis-profile=ci``: ten times the default examples,
#: no per-example deadline (CI runners vary in speed)
settings.register_profile("ci", max_examples=1000, deadline=None)


@register_engine
class InterpretingJit(JitEngine):
    """The ``jit`` engine that never compiles: every launch runs the
    lock-step bytecode interpreter."""

    name = "jit-interp"
    _HOT_LAUNCHES = math.inf


@register_engine
class CompilingJit(JitEngine):
    """The ``jit`` engine that compiles on a program's first launch."""

    name = "jit-compiled"
    _HOT_LAUNCHES = 1


#: the engine legs of the differential tests: the serial reference and
#: the jit engine pinned to each tier.  The ids name the execution path
#: a leg covers — ``vector`` is the lock-step interpreter — and so keep
#: the test ids these legs had while that interpreter was an engine of
#: its own.
ENGINE_LEGS = [pytest.param("serial", id="serial"),
               pytest.param("jit-interp", id="vector"),
               pytest.param("jit-compiled", id="jit")]


@pytest.fixture()
def fresh_runtime():
    """An HPL runtime reset before and after the test."""
    reset_runtime()
    yield
    reset_runtime()


@pytest.fixture()
def tesla_jit():
    """A Tesla-spec device running the default lock-step jit engine."""
    return cl.Device(TESLA_C2050, "jit")


@pytest.fixture()
def tesla_serial():
    """A Tesla-spec device running the serial reference interpreter."""
    return cl.Device(TESLA_C2050, "serial")


@pytest.fixture(params=ENGINE_LEGS)
def any_engine_device(request):
    """Parametrized over the serial engine and both jit tiers."""
    return cl.Device(TESLA_C2050, request.param)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def run_cl_kernel(device, source, kernel_name, args, global_size,
                  local_size=None, options=""):
    """Compile + run a kernel on a one-device context; returns the event.

    ``args`` entries: numpy arrays become buffers (copied in and, after
    the run, copied back in place), numpy scalars pass by value, and
    ``("local", nbytes)`` tuples become size-only local arguments.
    """
    ctx = cl.Context([device])
    queue = cl.CommandQueue(ctx, device)
    program = cl.Program(ctx, source).build(options)
    kernel = program.create_kernel(kernel_name)
    buffers = []
    for i, arg in enumerate(args):
        if isinstance(arg, np.ndarray):
            buf = cl.Buffer(ctx, cl.mem_flags.READ_WRITE, size=arg.nbytes)
            queue.enqueue_write_buffer(buf, arg)
            kernel.set_arg(i, buf)
            buffers.append((buf, arg))
        elif isinstance(arg, tuple) and arg and arg[0] == "local":
            kernel.set_arg(i, cl.LocalMemory(arg[1]))
        else:
            kernel.set_arg(i, arg)
    event = queue.enqueue_nd_range_kernel(kernel, global_size, local_size)
    for buf, host in buffers:
        queue.enqueue_read_buffer(buf, host)
    queue.finish()
    return event


@pytest.fixture()
def cl_run():
    return run_cl_kernel
