"""The per-chunk launch path does only the work that changes per chunk.

A cluster chunk binds its blocks and launches through a prepared
kernel, and most chunks have a size no launch had before.  These tests
pin the work such a launch no longer does, so it cannot come back
unnoticed:

* a launch builds a lane-id array only when something other than an
  affine access reads the id;
* what binding and checking an argument needs is resolved once per
  kernel signature, fault-plan clauses once per device and command
  type;
* binding, launching and reading back import nothing.
"""

from __future__ import annotations

import builtins
from collections import Counter

import numpy as np
import pytest

import repro.hpl as hpl
from repro import ocl
from repro.hpl import Float, Int, cluster_eval, float_, idx, sqrt
from repro.hpl.cluster import Cluster, DistributedArray
from repro.hpl.evaluator import prepare
from repro.ocl import faults
from repro.ocl.engines import base as engines_base
from repro.ocl.engines.base import param_rows


def affine_part(y, x, a, offset, count):
    y[idx] = a * sqrt(x[idx] * x[idx] + 1.0) + x[idx]


def gather_part(y, x, a, offset, count):
    y[idx] = a * x[(idx * 7 + 3) % count]


@pytest.fixture(autouse=True)
def _fresh(fresh_runtime):
    faults.configure(None)
    hpl.calibration().reset()
    yield
    hpl.configure(engine=None)
    faults.configure(None)
    hpl.calibration().reset()


@pytest.fixture()
def built_ids(monkeypatch):
    """The lane-id keys built, in order, from an empty shape memo."""
    monkeypatch.setattr(engines_base, "_NDRANGE_CACHE", {})
    keys: list = []
    missing = engines_base._LaneIds.__missing__

    def spy(self, key):
        keys.append(key)
        return missing(self, key)

    monkeypatch.setattr(engines_base._LaneIds, "__missing__", spy)
    return keys


def _chunk(kernel, n: int, device):
    """Bind and launch one chunk of ``n`` items; its output."""
    x = hpl.Array(float_, n, data=np.arange(n, dtype=np.float32))
    args = [hpl.Array(float_, n), x, Float(1.5), Int(0), Int(n)]
    prepared = prepare(kernel, args, device)
    transfers, deps = prepared.bind(args)
    prepared.launch(args, transfers, deps, (n,)).wait()
    return args[0].read()


class TestLaneIds:
    def test_affine_only_launch_of_a_new_size_builds_no_lane_ids(
            self, built_ids):
        hpl.configure(engine="jit-compiled")
        device = hpl.get_devices()[0]
        _chunk(affine_part, 100, device)
        built_ids.clear()
        for n in (1237, 2111, 977):     # sizes never launched before
            out = _chunk(affine_part, n, device)
            x = np.arange(n, dtype=np.float32)
            np.testing.assert_allclose(
                out, 1.5 * np.sqrt(x * x + 1) + x, rtol=1e-6)
        assert built_ids == []

    def test_a_non_affine_read_builds_the_id_it_reads(self, built_ids):
        hpl.configure(engine="jit-compiled")
        device = hpl.get_devices()[0]
        _chunk(gather_part, 100, device)
        built_ids.clear()
        _chunk(gather_part, 1237, device)
        # and the warps the gather counts its transactions over
        assert built_ids == ["idx", "_warp32"]

    def test_the_interpreter_reads_the_ids(self, built_ids):
        hpl.configure(engine="jit-interp")
        _chunk(affine_part, 1237, hpl.get_devices()[0])
        assert built_ids == ["idx", "_warp32"]


def test_binding_and_launching_import_nothing():
    hpl.configure(engine="jit-compiled")
    device = hpl.get_devices()[0]
    _chunk(affine_part, 100, device)
    _chunk(affine_part, 200, device)
    n = 333
    x = hpl.Array(float_, n, data=np.ones(n, dtype=np.float32))
    args = [hpl.Array(float_, n), x, Float(1.5), Int(0), Int(n)]
    prepared = prepare(affine_part, args, device)
    imports: Counter = Counter()
    real_import = builtins.__import__

    def spy(name, *rest, **kwargs):
        imports[name] += 1
        return real_import(name, *rest, **kwargs)

    builtins.__import__ = spy
    try:
        for _ in range(3):
            transfers, deps = prepared.bind(args)
            prepared.launch(args, transfers, deps, (n,)).wait()
            args[0].read()
            x.data[0] = 2.0     # dirty the host copy: the next bind copies
    finally:
        builtins.__import__ = real_import
    assert imports == Counter()


def _cluster_calls(calls: int) -> None:
    cluster = Cluster(hpl.get_devices())
    x = DistributedArray(float_, 4096, cluster,
                         data=np.arange(4096, dtype=np.float32))
    y = DistributedArray(float_, 4096, cluster)
    for _ in range(calls):
        cluster_eval(affine_part, cluster, y, x, Float(1.5),
                     schedule="dynamic")
        y.gather()


def test_parameter_rows_are_resolved_once_per_signature(monkeypatch):
    """Every kernel object of a program binds from the one row tuple
    memoized on the kernel's signature, which the launch's argument
    check reads too."""
    kernels = []
    create_kernel = ocl.Program.create_kernel

    def spy(program, name):
        kernels.append(create_kernel(program, name))
        return kernels[-1]

    monkeypatch.setattr(ocl.Program, "create_kernel", spy)
    _cluster_calls(3)
    programs = {id(k.program) for k in kernels}
    assert len(kernels) == 3 * len(programs)     # one per device per call
    for kernel in kernels:
        assert kernel._rows is param_rows(kernel.function)
        assert kernel._rows is param_rows(kernel.program.ir.functions[
            kernel.name])


def test_fault_clauses_are_matched_once_per_command_kind(monkeypatch):
    faults.configure("device=* kind=transient op=kernel prob=0.05; seed=3")
    _cluster_calls(1)
    matched = Counter()
    matches = faults.FaultSpec.matches_device

    def spy(spec, label):
        matched[label] += 1
        return matches(spec, label)

    monkeypatch.setattr(faults.FaultSpec, "matches_device", spy)
    _cluster_calls(3)
    assert matched == Counter()
