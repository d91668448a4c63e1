"""Profiler output through the run record and ``python -m repro.trace``.

These run the real benchmark kernels at small sizes, write their
merged profiles to a run record and render it with the trace CLI.  They
pin the acceptance criteria of the profiler: the reduction annotate view
attributes >=95% of modeled cost to source lines, the roofline
classifies EP compute-bound and spmv memory-bound.
"""

from __future__ import annotations

import re

import pytest

from repro.prof.core import merge_profiles
from repro.trace import MetricsRegistry, read_record, write_record
from repro.trace.__main__ import main


def _run_ep() -> None:
    from repro.benchsuite.datasets import EP_CLASSES
    from repro.benchsuite.ep.driver import ep_problem, run_hpl
    # class S scaled down to 8192 pairs: small enough to simulate in a
    # second, big enough that the LCG arithmetic dominates the fixed
    # per-item output traffic (EP must profile as compute-bound)
    run_hpl(ep_problem("S", shift=EP_CLASSES["S"] - 13),
            device_name="Tesla")


def _run_spmv() -> None:
    from repro.benchsuite.spmv.driver import run_hpl, spmv_problem
    run_hpl(spmv_problem(n_run=256), device_name="Tesla")


def _run_reduction() -> None:
    from repro.benchsuite.reduction.driver import reduction_problem, run_hpl
    # one element per work item (256 lanes x 64 groups)
    run_hpl(reduction_problem(n_run=1 << 14), device_name="Tesla")


DRIVERS = {"ep": _run_ep, "spmv": _run_spmv, "reduction": _run_reduction}


@pytest.fixture()
def record(fresh_runtime, profiler, tmp_path):
    """``record(name)``: profile one driver, return its record's path."""
    def make(name: str) -> str:
        DRIVERS[name]()
        empty = MetricsRegistry().snapshot()
        path = str(tmp_path / f"{name}.jsonl")
        write_record(path, [name], None, [], [
            {"name": name, "span": None, "meta": {}, "metrics": empty,
             "profiles": merge_profiles(profiler.drain())}])
        return path
    return make


def _run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


class TestRunAnnotate:
    def test_reduction_attributes_95_percent(self, capsys, record):
        rc, out = _run(capsys, "annotate", record("reduction"))
        assert rc == 0
        assert "kernel reduction_hpl_kernel" in out
        match = re.search(r"attributed: +([\d.]+)% of modeled cost", out)
        assert match, out
        assert float(match.group(1)) >= 95.0

    def test_annotate_layout(self, capsys, record):
        rc, out = _run(capsys, "annotate", record("reduction"))
        assert rc == 0
        # gutter header, hot-line marker and the divergence footer
        assert re.search(r"line +cost% +execs +ops +bytes +tx", out)
        assert "*HOT*" in out
        assert "divergent branches (worst first):" in out
        assert "barrier(CLK_LOCAL_MEM_FENCE);" in out


class TestRunRoofline:
    def test_ep_is_compute_bound(self, capsys, record):
        rc, out = _run(capsys, "roofline", record("ep"))
        assert rc == 0
        assert re.search(r"ep_hpl_kernel .*compute-bound", out)

    def test_spmv_is_memory_bound(self, capsys, record):
        rc, out = _run(capsys, "roofline", record("spmv"))
        assert rc == 0
        assert re.search(r"spmv_hpl_kernel .*memory-bound", out)


class TestSavedProfiles:
    def test_json_roundtrip_and_rerender(self, capsys, record):
        path = record("ep")
        (target,) = read_record(path).targets
        (profile,) = target["profiles"]
        assert profile.kernel == "ep_hpl_kernel"
        assert profile.bound == "compute"

        for command, needle in (
                ("annotate", "kernel ep_hpl_kernel"),
                ("flame", "ep_hpl_kernel [jit]"),
                ("roofline", "compute-bound"),
                ("report", "kernel ep_hpl_kernel ")):
            rc, out = _run(capsys, command, path)
            assert rc == 0
            assert needle in out

    def test_flame_lines_are_collapsed_stacks(self, capsys, record,
                                              tmp_path):
        out_path = tmp_path / "red.flame"
        rc, _ = _run(capsys, "flame", record("reduction"),
                     "-o", str(out_path))
        assert rc == 0
        lines = out_path.read_text().splitlines()
        assert lines
        for line in lines:
            # semicolon-separated frames, integer sample count at the end
            frames, _, count = line.rpartition(" ")
            assert frames.count(";") >= 2
            assert count.isdigit()

    def test_missing_profile_is_an_error(self, capsys, tmp_path):
        rc = main(["annotate", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_garbage_profile_is_an_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json")
        rc = main(["annotate", str(bad)])
        assert rc == 2
        assert "not a run record" in capsys.readouterr().err

    def test_empty_profile_list_is_an_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        write_record(str(empty), [], None, [], [])
        rc = main(["annotate", str(empty)])
        assert rc == 2
        assert "contains no profiles" in capsys.readouterr().err
