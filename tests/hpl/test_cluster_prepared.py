"""The prepared cluster launch: one resolution per device per call.

``cluster_eval`` resolves its kernel (closure key, compiled-cache
lookup, ``Kernel`` object) once per device per call, and each chunk
only binds its blocks and enqueues.  A plain ``hpl.eval`` still
resolves on every call.  The blocks a distributed array launches on are
slim views built without the validating ``Array`` constructor.

The spy and closure tests run under the ambient ``HPL_FAULTS`` plan,
so the CI ``faults`` job exercises the prepared launch under each of
its seeded plans; the build-fault test installs its own plans.
"""

from __future__ import annotations

import hashlib
import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hpl as hpl
from repro import ocl
from repro.hpl import Float, calibration, cluster_eval, float_
from repro.hpl.array import Array
from repro.hpl.cluster import Cluster, DistributedArray
from repro.hpl.runtime import HPLRuntime
from repro.ocl import faults
from repro.ocl.platform import reset_platform_devices

N = 3000


@pytest.fixture(autouse=True)
def _fresh(fresh_runtime):
    calibration().reset()
    faults.configure(os.environ.get(faults.ENV_VAR) or None)
    yield
    faults.configure(None)
    calibration().reset()
    reset_platform_devices()
    hpl.reset_runtime()


def saxpy_part(y, x, a, offset, count):
    y[hpl.idx] = a * x[hpl.idx] + y[hpl.idx]


def _problem(n=N, seed=5):
    cluster = Cluster(hpl.get_devices())
    rng = np.random.default_rng(seed)
    xd = rng.random(n).astype(np.float32)
    yd = rng.random(n).astype(np.float32)
    x = DistributedArray(float_, n, cluster, data=xd)
    y = DistributedArray(float_, n, cluster, data=yd)
    return cluster, y, x, xd, yd


@pytest.fixture()
def spies(monkeypatch):
    """Count ``get_compiled`` per device and ``create_kernel`` calls."""
    compiled: Counter = Counter()
    kernels: Counter = Counter()
    get_compiled = HPLRuntime.get_compiled
    create_kernel = ocl.Program.create_kernel

    def spy_compiled(self, func, args, device):
        compiled[device] += 1
        return get_compiled(self, func, args, device)

    def spy_kernel(self, name):
        kernels[name] += 1
        return create_kernel(self, name)

    monkeypatch.setattr(HPLRuntime, "get_compiled", spy_compiled)
    monkeypatch.setattr(ocl.Program, "create_kernel", spy_kernel)
    return compiled, kernels


class TestResolveOncePerDevice:
    def test_one_resolution_per_device_per_call(self, spies):
        compiled, kernels = spies
        cluster, y, x, _xd, _yd = _problem()
        for call in (1, 2):
            compiled.clear()
            kernels.clear()
            result = cluster_eval(saxpy_part, cluster, y, x, Float(2.0),
                                  schedule="dynamic")
            launched = {r.device for r in result}
            # every device that ran a chunk resolved the kernel exactly
            # once in this call, the second call included: the prepared
            # state dies with the call, so each call re-keys
            assert launched <= set(compiled)
            assert set(compiled.values()) == {1}
            assert kernels == {"saxpy_part": len(compiled)}
            assert len(result) > len(compiled)      # chunks reuse it

    def test_plain_eval_resolves_on_every_call(self, spies):
        compiled, kernels = spies
        faults.configure(None)      # a plain eval has no recovery
        a = hpl.Array(float_, 64)
        b = hpl.Array(float_, 64)
        b.data[:] = 1.0

        def twice(out, src):
            out[hpl.idx] = src[hpl.idx] * 2.0

        first = hpl.eval(twice)(a, b)
        second = hpl.eval(twice)(a, b)
        assert not first.from_cache and second.from_cache
        assert sum(compiled.values()) == 2
        assert kernels == {"twice": 2}
        assert hpl.get_runtime().stats.cache_hits == 1
        np.testing.assert_array_equal(a.read(), np.full(64, 2.0))

    def test_changed_closure_value_runs_in_the_next_call(self):
        cluster, y, x, xd, _yd = _problem()
        scale = 2.0

        def scaled(y, x, offset, count):
            y[hpl.idx] = x[hpl.idx] * scale

        cluster_eval(scaled, cluster, y, x, schedule="dynamic")
        np.testing.assert_array_equal(y.gather(), xd * np.float32(2.0))
        scale = 3.0
        cluster_eval(scaled, cluster, y, x, schedule="dynamic")
        np.testing.assert_array_equal(y.gather(), xd * np.float32(3.0))


def _digest(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


class TestBuildFaults:
    """A failed resolution is never kept: each of the device's next
    chunks draws the build again.  The summaries are pinned from the
    per-chunk ``hpl.eval`` launch this replaced."""

    CASES = {
        "tesla-twice": (
            "device=Tesla kind=transient op=build nth=1 count=2",
            dict(transient_failures=2, retries=2, devices_lost=[],
                 requeued_items=0,
                 backoff_seconds=0.00017581121465169204), 28),
        "storm": (
            "device=* kind=transient op=build prob=0.5; seed=7",
            dict(transient_failures=4, retries=3,
                 devices_lost=["SimCL Xeon E5606 Host#2"],
                 requeued_items=62,
                 backoff_seconds=0.0002664542456858626), 12),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_summary_matches_the_per_chunk_launch(self, case):
        plan, expected, launches = self.CASES[case]
        cluster, y, x, xd, yd = _problem()
        faults.configure(None)
        clean = cluster_eval(saxpy_part, cluster, y, x, Float(2.0),
                             schedule="dynamic")
        want = _digest(y.gather())
        assert clean.failures.clean

        calibration().reset()
        reset_platform_devices()
        hpl.reset_runtime()
        cluster, y, x, _xd, _yd = _problem()
        faults.configure(plan)
        result = cluster_eval(saxpy_part, cluster, y, x, Float(2.0),
                              schedule="dynamic")
        summary = result.failures.as_dict()
        assert {k: summary[k] for k in expected} == expected
        assert len(result) == launches
        assert _digest(y.gather()) == want


# -- slim block views ---------------------------------------------------------


def _state(array: Array) -> dict:
    """Everything but the host buffer, which is compared separately."""
    state = dict(vars(array))
    state.pop("_host")
    return state


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 200), data=st.data())
def test_block_views_match_the_validating_constructor(n, data):
    cuts = sorted(set(data.draw(st.lists(st.integers(1, n), max_size=6))))
    edges = [0] + [c for c in cuts if c < n] + [n]
    bounds = list(zip(edges, edges[1:]))
    cluster = Cluster(hpl.get_devices())
    values = np.arange(n, dtype=np.float32)
    dist = DistributedArray(float_, n, cluster, data=values, bounds=bounds)
    for (lo, hi), part in zip(bounds, dist.parts):
        twin = Array(float_, hi - lo, data=dist._full[lo:hi])
        assert type(part) is Array
        assert _state(part) == _state(twin)
        assert part._host.shape == twin._host.shape == (hi - lo,)
        assert np.shares_memory(part._host, dist._full)
        np.testing.assert_array_equal(part.read(), values[lo:hi])
        assert part.signature() == twin.signature()
