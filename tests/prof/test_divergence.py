"""SIMT divergence and lane-occupancy tracking (lock-step jit engine
only)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.ocl as cl
from repro.ocl import TESLA_C2050

#: a quarter of every 64-lane group takes the branch
DIVERGENT = """__kernel void divhalf(__global float* out)
{
    int lid = get_local_id(0);
    if (lid < 16) {
        out[get_global_id(0)] = 2.0f;
    }
}
"""
IF_LINE, BODY_LINE = 4, 5

#: every lane takes the branch — no divergence to report
UNIFORM = """__kernel void allon(__global float* out)
{
    int lid = get_local_id(0);
    if (lid < 64) {
        out[get_global_id(0)] = 2.0f;
    }
}
"""


def _run(cl_run, source, name, options="-O2"):
    device = cl.Device(TESLA_C2050, "jit")
    out = np.zeros(128, dtype=np.float32)
    cl_run(device, source, name, [out], (128,), (64,), options=options)
    return out


class TestDivergence:
    @pytest.mark.parametrize("options", ("-cl-opt-disable", "-O2"))
    def test_quarter_divergent_branch(self, profiler, cl_run, options):
        out = _run(cl_run, DIVERGENT, "divhalf", options)
        assert out.sum() == 2.0 * 32        # 16 lanes of 2 groups wrote

        (profile,) = profiler.profiles()
        branch = profile.branches[IF_LINE]
        assert branch.events == 1
        assert branch.divergent == 1
        assert branch.taken_fraction == pytest.approx(0.25)
        # the branch is the worst offender in the ranked listing
        assert profile.divergent_branches()[0][0] == IF_LINE

    @pytest.mark.parametrize("options", ("-cl-opt-disable", "-O2"))
    def test_body_occupancy_is_taken_fraction(self, profiler, cl_run,
                                              options):
        _run(cl_run, DIVERGENT, "divhalf", options)
        (profile,) = profiler.profiles()
        # only 32 of 128 lanes execute the masked store
        assert profile.lines[BODY_LINE].occupancy == pytest.approx(0.25)
        # the unmasked statement before the branch runs every lane
        assert profile.lines[IF_LINE].occupancy == pytest.approx(1.0)

    def test_uniform_branch_not_divergent(self, profiler, cl_run):
        _run(cl_run, UNIFORM, "allon")
        (profile,) = profiler.profiles()
        for branch in profile.branches.values():
            assert branch.divergent == 0
        assert profile.divergent_branches() == []

    def test_serial_engine_records_no_lane_data(self, profiler, cl_run):
        device = cl.Device(TESLA_C2050, "serial")
        out = np.zeros(128, dtype=np.float32)
        cl_run(device, DIVERGENT, "divhalf", [out], (128,), (64,))
        (profile,) = profiler.profiles()
        assert profile.branches == {}
        assert all(s.lane_slots == 0 for s in profile.lines.values())
        assert profile.lines[BODY_LINE].occupancy == 1.0
