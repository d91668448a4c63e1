"""Experiment runner smoke tests and Table I standalone programs."""

import importlib
import runpy
import sys

import pytest

from repro import ocl
from repro.benchsuite import ep, runner
from repro.benchsuite.table1 import TABLE1_PAIRS, source_path
from repro.hpl import reset_runtime
from repro.benchsuite import report


@pytest.fixture(autouse=True)
def _fresh(fresh_runtime):
    yield


class TestTable1:
    def test_rows_cover_all_benchmarks(self):
        rows = runner.run_table1()
        assert {r["benchmark"] for r in rows} == set(TABLE1_PAIRS)

    def test_hpl_is_always_smaller(self):
        for row in runner.run_table1():
            assert row["hpl_sloc"] < row["opencl_sloc"], row

    def test_substantial_reduction(self):
        """Every benchmark must shed at least a third of its SLOC."""
        for row in runner.run_table1():
            assert row["reduction_pct"] > 33.0, row

    def test_formatting(self):
        text = report.format_table1(runner.run_table1())
        assert "Table I" in text and "EP" in text

    @pytest.mark.parametrize("which", sorted(TABLE1_PAIRS))
    def test_standalone_programs_run_and_agree(self, which, capsys):
        """Each OpenCL/HPL program pair runs and prints identical
        result lines (bar the simulated-timing line)."""
        outputs = []
        for filename in TABLE1_PAIRS[which]:
            reset_runtime()
            mod = runpy.run_path(source_path(filename))
            rc = mod["main"]()
            assert rc == 0
            captured = capsys.readouterr().out
            result_lines = [ln for ln in captured.strip().split("\n")
                            if "kernel time" not in ln]
            outputs.append(result_lines)
        assert outputs[0] == outputs[1]


class TestFiguresRunTable1Code:
    """Table I counts the programs the figures run: each driver builds
    the Table I OpenCL C and evaluates the Table I HPL kernel."""

    #: (benchmark, variant) pairs whose figure kernel is not the Table I
    #: one; EP's HPL kernel generates different (equivalent) OpenCL C
    FORKS = {("EP", "hpl")}

    @staticmethod
    def _table1_module(name, variant):
        filename = TABLE1_PAIRS[name][variant == "hpl"]
        return importlib.import_module(
            "repro.benchsuite.table1." + filename[:-len(".py")])

    @pytest.mark.parametrize("name", sorted(TABLE1_PAIRS))
    def test_run_opencl_builds_the_table1_source(self, name, monkeypatch):
        built = []
        program = ocl.Program
        monkeypatch.setattr(ocl, "Program", lambda context, source:
                            built.append(source) or program(context, source))
        module = runner._BENCH_MODULES[name]
        module.run_opencl(runner._problems_opt_tiny()[name])
        source = self._table1_module(name, "opencl").KERNEL_SOURCE
        assert [s is source for s in built] == [True]

    @pytest.mark.parametrize("name", sorted(TABLE1_PAIRS))
    def test_run_hpl_evaluates_the_table1_kernel(self, name, monkeypatch):
        module = runner._BENCH_MODULES[name]
        driver = importlib.import_module(module.__name__ + ".driver")
        evaluated = []
        real_eval = driver.hpl_eval
        monkeypatch.setattr(driver, "hpl_eval", lambda func:
                            evaluated.append(func) or real_eval(func))
        module.run_hpl(runner._problems_opt_tiny()[name])
        table1 = self._table1_module(name, "hpl")
        shared = {getattr(table1, f.__name__, None) is f for f in evaluated}
        assert shared == {(name, "hpl") not in self.FORKS}


class TestWarmCache:
    def test_second_invocation_cheaper(self):
        row = runner.run_warm_cache("S")
        assert row["warm_slowdown_pct"] < row["cold_slowdown_pct"]
        assert row["warm_overhead_seconds"] < \
            row["cold_overhead_seconds"]

    def test_report_formatting(self):
        row = runner.run_warm_cache("S")
        text = report.format_warm_cache(row)
        assert "first call" in text and "second call" in text


class TestFigureRunners:
    def test_fig6_rows(self):
        rows = runner.run_fig6(classes=("S",))
        row = rows[0]
        assert row["opencl_speedup"] > 1
        assert row["hpl_speedup"] > 1
        assert row["hpl_speedup"] <= row["opencl_speedup"] * 1.05

    def test_fig8_structure(self):
        problems = {"Spmv": runner.spmv.spmv_problem(n_run=256)}
        rows = runner.run_fig8(problems=problems)
        assert rows[0]["hpl_overhead_seconds"] > 0
        text = report.format_fig8(rows)
        assert "Slowdown" in text

    def test_fig8_transfers_dilute_overhead(self):
        problems = {
            "Matrix transpose":
                runner.transpose.transpose_problem(n_run=64)}
        dry = runner.run_fig8(problems=problems)
        reset_runtime()
        wet = runner.run_fig8(include_transfers=True, problems=problems)
        # §V-B: counting transfers shrinks transpose's relative overhead
        assert abs(wet[0]["slowdown_pct"]) <= \
            abs(dry[0]["slowdown_pct"]) + 0.5


class TestEngineJit:
    def test_engine_jit_wiring(self, monkeypatch):
        """`run_engine_jit` plumbing on tiny problems: interleaved
        rounds, per-tier bests, identical checksums.  The real >= 2x
        perf gate runs on the full sizes in CI."""
        from repro.benchsuite import floyd

        monkeypatch.setattr(
            runner, "_problems_engine_jit",
            lambda: {"Floyd-Warshall": (floyd.floyd_problem(64, n_run=4), 2)})
        row = runner.run_engine_jit(rounds=1)
        leg = row["benchmarks"]["Floyd-Warshall"]
        assert leg["interp_seconds"] > 0 and leg["compiled_seconds"] > 0
        assert row["checksums_identical"]
        text = report.format_engine_jit(row)
        assert "geomean" in text and "compiled" in text

    def test_engine_timing_keeps_the_callers_tracer(self):
        from repro import trace
        from repro.benchsuite import floyd
        from repro.ocl.engines import JitEngine

        saved = trace.get_tracer()
        mine = trace.set_tracer(trace.Tracer())
        try:
            with trace.span("target:ep", category="benchsuite"):
                wall, _checksum, tiers = runner._engine_run_seconds(
                    "compiled", floyd, floyd.floyd_problem(16, n_run=8), 1)
                with trace.span("after", category="benchsuite"):
                    pass
            current = trace.get_tracer()
        finally:
            trace.set_tracer(saved)
        assert wall > 0 and tiers == ["compiled"]
        assert JitEngine._HOT_LAUNCHES == 2     # restored after the leg
        assert current is mine and mine.enabled
        names = {s.name for s in mine.spans()}
        assert {"target:ep", "after"} <= names
        assert "engine_run" not in names

    def test_engine_jit_gate_fires(self):
        assert runner.gate_engine_jit({"geomean_speedup": 2.15}) == []
        assert runner.gate_engine_jit({"geomean_speedup": 1.99}) == [
            "geomean_speedup >= 2.0"]


# -- gates: each target's pass/fail rules as a pure function of its row -------
#
# The rows below hold the fields each gate reads, at the values the
# targets report at their default sizes; every doctored copy breaks one
# rule and must fail with exactly that rule named.

def _opt_pipeline_row():
    sims = {"EP": (0.005598, 0.005547), "Floyd-Warshall": (0.004664,) * 2,
            "Matrix transpose": (0.000238,) * 2, "Spmv": (0.000195,) * 2,
            "Reduction": (0.000314,) * 2}
    return {
        "benchmarks": {name: {"o0_sim_seconds": o0, "o2_sim_seconds": o2,
                              "checksums_identical": True}
                       for name, (o0, o2) in sims.items()},
        "warm_clc_compiles": 0, "warm_pass_runs": 0,
        "differential_identical": True, "verified": True,
        "warm_results_identical": True, "cold_clc_compiles": 5,
        "warm_disk_cache_hits": 5, "warm_disk_cache_misses": 0,
    }


def _set(path, value):
    def doctor(row):
        *parents, leaf = path
        for key in parents:
            row = row[key]
        row[leaf] = value
    return doctor


GATES = {
    "cluster-lb": (
        runner.gate_cluster_lb,
        lambda: {"results_identical": True, "speedup_weighted": 5.71,
                 "speedup_dynamic": 2.91},
        {"results_identical": _set(["results_identical"], False),
         "speedup_weighted >= 1.3": _set(["speedup_weighted"], 1.29),
         "speedup_dynamic >= 1.3": _set(["speedup_dynamic"], 1.29)}),
    "cluster-faults": (
        runner.gate_cluster_faults,
        lambda: {"results_identical": True, "recovery_overhead": 1.15,
                 "legs": {"transient": {"retries": 2},
                          "device-lost": {"requeued_items": 716}}},
        {"results_identical": _set(["results_identical"], False),
         "recovery_overhead <= 2.0": _set(["recovery_overhead"], 2.01),
         "transient retries >= 1": _set(["legs", "transient", "retries"], 0),
         "device-lost requeued_items >= 1":
             _set(["legs", "device-lost", "requeued_items"], 0)}),
    "cluster-resilience": (
        runner.gate_cluster_resilience,
        lambda: {"results_identical": True, "resume_bit_identical": True,
                 "straggler_overhead_unmitigated": 278.75,
                 "straggler_overhead_speculated": 1.04,
                 "speculation_wins": 12, "resumed_blocks": 2},
        {"results_identical": _set(["results_identical"], False),
         "resume_bit_identical": _set(["resume_bit_identical"], False),
         "straggler_overhead_unmitigated >= 2.0":
             _set(["straggler_overhead_unmitigated"], 1.99),
         "straggler_overhead_speculated <= 1.25":
             _set(["straggler_overhead_speculated"], 1.26),
         "speculation_wins >= 1": _set(["speculation_wins"], 0),
         "resumed_blocks >= 1": _set(["resumed_blocks"], 0)}),
    "opt-pipeline": (
        runner.gate_opt_pipeline, _opt_pipeline_row,
        {"-O2 checksums == -O0":
             _set(["benchmarks", "Spmv", "checksums_identical"], False),
         "-O2 sim seconds <= -O0":
             _set(["benchmarks", "EP", "o2_sim_seconds"], 0.0056),
         "warm_clc_compiles == 0": _set(["warm_clc_compiles"], 1),
         "warm_pass_runs == 0": _set(["warm_pass_runs"], 1),
         "differential_identical": _set(["differential_identical"], False),
         "verified": _set(["verified"], False),
         "warm_results_identical": _set(["warm_results_identical"], False),
         "cold_clc_compiles >= 5": _set(["cold_clc_compiles"], 4),
         "warm_disk_cache_hits >= 5": _set(["warm_disk_cache_hits"], 4),
         "warm_disk_cache_misses == 0":
             _set(["warm_disk_cache_misses"], 1)}),
    "engine-jit": (
        runner.gate_engine_jit, lambda: {"geomean_speedup": 2.15},
        {"geomean_speedup >= 2.0": _set(["geomean_speedup"], 1.99)}),
}


class TestGates:
    @pytest.mark.parametrize("target", sorted(GATES))
    def test_head_row_passes(self, target):
        gate, head_row, _doctored = GATES[target]
        assert gate(head_row()) == []

    @pytest.mark.parametrize("target, rule", [
        (target, rule) for target, (_g, _r, rules) in sorted(GATES.items())
        for rule in rules])
    def test_doctored_row_names_its_rule(self, target, rule):
        gate, head_row, doctored = GATES[target]
        row = head_row()
        doctored[rule](row)
        assert gate(row) == [rule]

    def test_cli_table_gates_exactly_these_targets(self):
        gated = {name for name, (_run, _fmt, gate)
                 in runner._cli_targets().items() if gate is not None}
        assert gated == set(GATES)

    @pytest.mark.parametrize("doctor, rc", [
        (lambda row: None, 0),
        (_set(["speedup_dynamic"], 1.0), 1)])
    def test_cli_writes_the_artifact_then_gates(self, monkeypatch,
                                                tmp_path, capsys,
                                                doctor, rc):
        import json

        gate, head_row, _doctored = GATES["cluster-lb"]
        row = head_row()
        doctor(row)
        monkeypatch.setattr(runner, "_cli_targets", lambda: {
            "cluster-lb": (lambda: row, None, gate)})
        monkeypatch.chdir(tmp_path)
        assert runner.main(["cluster-lb", "--json"]) == rc
        out, err = capsys.readouterr()
        artifact = tmp_path / "BENCH_cluster_lb.json"
        assert json.loads(artifact.read_text()) == row
        assert json.loads(out)["cluster-lb"] == row
        assert ("speedup_dynamic >= 1.3" in err) == bool(rc)
