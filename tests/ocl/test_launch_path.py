"""A chunk's launch depends on its shape, never on the shapes before it.

``cluster_eval`` gives most chunks a size no launch had before, so the
per-size launch state — the memoized ``NDRange`` with its id-query plans
and lane ids, the affine transaction memos — is built when a size first
appears and reused when it repeats.  These tests run random sequences
of launches through the prepared launch path (``PreparedKernel.bind``
and ``launch``, what every cluster chunk runs) twice: once keeping that
state, once clearing it before every launch.  Buffers, every cost
counter, the per-line profiles and every event stamp must come out the
same.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hpl as hpl
from repro import prof
from repro.hpl import Float, Int, float_, idx, idy, if_, sqrt
from repro.hpl.evaluator import prepare
from repro.ocl import costmodel, faults
from repro.ocl.engines import base as engines_base
from repro.prof import LineStat


def affine_part(y, x, a, offset, count):
    y[idx] = a * sqrt(x[idx] * x[idx] + 1.0) + x[idx]


def gather_part(y, x, a, offset, count):
    # the index of the first load is not affine: it reads the lane ids
    y[idx] = a * x[(idx * 7 + 3) % count] + x[idx]


def masked_part(y, x, a, offset, count):
    # a partial mask: the store counts its transactions over the
    # active lanes
    with if_(idx % 3 != 1):
        y[idx] = a * x[idx]


def grid_part(out, x, width):
    out[idy * width + idx] = 2.0 * x[idy * width + idx] + x[idx]


KERNELS_1D = (affine_part, gather_part, masked_part)

#: chunk sizes that recur; the rest are drawn from a wide range, so
#: nearly all of them are new to the launch path
SHARED_SIZES = (64, 300, 1024)

ENGINES = ("jit-interp", "jit-compiled")

launch_1d = st.tuples(
    st.sampled_from(KERNELS_1D),
    st.one_of(st.sampled_from(SHARED_SIZES), st.integers(1, 2500)))
launch_2d = st.tuples(
    st.just(grid_part),
    st.tuples(st.sampled_from([1, 2, 4, 8, 16, 24]), st.integers(1, 12)))
sequences = st.lists(st.one_of(launch_1d, launch_1d, launch_1d, launch_2d),
                     min_size=1, max_size=6)


@pytest.fixture(autouse=True)
def _quiet(fresh_runtime):
    """No ambient fault plan, the profiler on, defaults restored."""
    was_profiling = prof.is_enabled()
    faults.configure(None)
    prof.enable()
    prof.reset()
    yield
    hpl.configure(engine=None)
    faults.configure(None)
    prof.reset()
    if not was_profiling:
        prof.disable()


def forget_sizes() -> None:
    """Drop every per-size state of the launch path."""
    engines_base._NDRANGE_CACHE.clear()
    costmodel._AFFINE_COUNTS.clear()
    costmodel._AFFINE_RUNS.clear()


def _args(kernel, shape, seed: int) -> tuple:
    """``(args, global size)`` of one launch of ``kernel``."""
    rng = np.random.default_rng(seed)
    if kernel is grid_part:
        width, height = shape
        n = width * height
        x = hpl.Array(float_, n, data=rng.random(n, dtype=np.float32))
        return [hpl.Array(float_, n), x, Int(width)], (width, height)
    n = shape
    x = hpl.Array(float_, n, data=rng.random(n, dtype=np.float32))
    a = Float(float(rng.uniform(0.5, 2.0)))
    return [hpl.Array(float_, n), x, a, Int(0), Int(n)], (n,)


def _profile_rows() -> list:
    return [(p.kernel, dict(p.counters),
             {line: [getattr(rec, f) for f in LineStat.__slots__]
              for line, rec in sorted(p.lines.items())})
            for p in prof.get_profiler().drain()]


def run_sequence(sequence, engine: str, forget: bool) -> list:
    """Every launch of ``sequence`` on each device, in a fresh runtime:
    per launch its output, counters, profiles and event stamps."""
    hpl.reset_runtime()
    hpl.configure(engine=engine)
    prof.reset()
    prepared: dict = {}
    records = []
    for step, (kernel, shape) in enumerate(sequence):
        for device in hpl.get_devices():
            args, gsize = _args(kernel, shape, step)
            key = (kernel, device)
            if key not in prepared:
                prepared[key] = prepare(kernel, args, device)
            if forget:
                forget_sizes()
            transfers, deps = prepared[key].bind(args)
            result = prepared[key].launch(args, transfers, deps, gsize)
            result.wait()
            out = args[0].read()
            events = result.events + [args[0].host_event]
            records.append((
                kernel.__name__, device.label, out.tobytes(),
                vars(result.kernel_event.counters), _profile_rows(),
                [(e.command.name, e.start_ns, e.end_ns) for e in events]))
    return records


@pytest.mark.parametrize("engine", ENGINES)
@settings(deadline=None)
@given(sequence=sequences)
def test_launches_do_not_depend_on_earlier_shapes(engine, sequence):
    kept = run_sequence(sequence, engine, forget=False)
    cleared = run_sequence(sequence, engine, forget=True)
    assert len(kept) == 3 * len(sequence)
    for got, want in zip(kept, cleared):
        assert got == want, got[:2]


def test_the_outputs_are_right():
    """The launches the property compares compute the right values."""
    hpl.configure(engine="jit")
    for kernel, shape in ((affine_part, 700), (gather_part, 700),
                          (masked_part, 700), (grid_part, (8, 5))):
        device = hpl.get_devices()[0]
        args, gsize = _args(kernel, shape, 1)
        prepared = prepare(kernel, args, device)
        for _ in range(2):      # interpreted, then compiled
            transfers, deps = prepared.bind(args)
            prepared.launch(args, transfers, deps, gsize).wait()
            out = args[0].read()
            x = args[1].read()
            if kernel is grid_part:
                width, height = shape
                want = (2.0 * x + np.tile(x[:width], height))
            else:
                a = np.float32(args[2].value)
                lane = np.arange(shape)
                if kernel is affine_part:
                    want = a * np.sqrt(x * x + np.float32(1.0)) + x
                elif kernel is gather_part:
                    want = a * x[(lane * 7 + 3) % shape] + x
                else:
                    want = np.where(lane % 3 != 1, a * x, 0)
            np.testing.assert_allclose(out, want, rtol=1e-6)
