"""Unit tests of the profiler data model: merge, serialize, derive."""

from __future__ import annotations

import pytest

from repro.prof import BranchStat, KernelProfile, LineStat
from repro.prof.core import merge_profiles


def _mk_profile(kernel="k", engine="jit", launches=1,
                compute_s=2.0, memory_s=1.0) -> KernelProfile:
    p = KernelProfile()
    p.kernel = kernel
    p.engine = engine
    p.device = "dev"
    p.launches = launches
    p.compute_s = compute_s
    p.memory_s = memory_s
    p.total_s = compute_s + memory_s
    p.weighted_ops = 100.0
    p.bytes_moved = 50
    p.compute_ceiling = 1e12
    p.bandwidth_ceiling = 1e11
    line = LineStat()
    line.execs = 10
    line.alu_ops = 10.0
    line.cost_seconds = compute_s + memory_s
    p.lines = {7: line}
    branch = BranchStat()
    branch.add(64, 16)
    p.branches = {7: branch}
    return p


class TestDerivedFields:
    def test_bound_follows_dominant_term(self):
        assert _mk_profile(compute_s=2.0, memory_s=1.0).bound == "compute"
        assert _mk_profile(compute_s=1.0, memory_s=2.0).bound == "memory"

    def test_arithmetic_intensity_and_ridge(self):
        p = _mk_profile()
        assert p.arithmetic_intensity == pytest.approx(2.0)
        assert p.ridge_point == pytest.approx(10.0)

    def test_attributed_fraction_ignores_line_zero(self):
        p = _mk_profile()
        zero = LineStat()
        zero.cost_seconds = p.lines[7].cost_seconds  # as much again
        p.lines[0] = zero
        assert p.attributed_fraction() == pytest.approx(0.5)

    def test_occupancy_defaults_to_full_without_lane_data(self):
        assert LineStat().occupancy == 1.0

    def test_coalescing_caps_at_one(self):
        s = LineStat()
        s.mem_bytes, s.transactions = 4096, 2
        assert s.coalescing(128) == 1.0
        s.transactions = 64          # 8192 segment bytes for 4096 useful
        assert s.coalescing(128) == pytest.approx(0.5)


class TestMerge:
    def test_same_key_profiles_aggregate(self):
        merged = merge_profiles([_mk_profile(), _mk_profile()])
        assert len(merged) == 1
        p = merged[0]
        assert p.launches == 2
        assert p.compute_s == pytest.approx(4.0)
        assert p.lines[7].execs == 20
        assert p.branches[7].events == 2

    def test_merge_leaves_inputs_untouched(self):
        a, b = _mk_profile(), _mk_profile()
        merge_profiles([a, b])
        assert a.launches == 1
        assert a.lines[7].execs == 10

    def test_different_kernels_stay_separate(self):
        merged = merge_profiles([_mk_profile("a"), _mk_profile("b")])
        assert sorted(p.kernel for p in merged) == ["a", "b"]

    def test_different_engines_stay_separate(self):
        merged = merge_profiles([_mk_profile(engine="serial"),
                                 _mk_profile(engine="jit")])
        assert len(merged) == 2


class TestSerialization:
    def test_dict_roundtrip(self):
        p = _mk_profile()
        clone = KernelProfile.from_dict(p.to_dict())
        assert clone.kernel == p.kernel
        assert clone.launches == p.launches
        assert clone.bound == p.bound
        assert clone.lines[7].execs == p.lines[7].execs
        assert clone.branches[7].taken_fraction \
            == p.branches[7].taken_fraction

    def test_to_dict_exposes_derived_fields(self):
        row = _mk_profile().to_dict()
        assert row["bound"] == "compute"
        assert row["arithmetic_intensity"] == pytest.approx(2.0)
