"""§V-B in-text — kernel binary reuse.

Paper: "second and later invocations of an HPL kernel do not incur in
overheads of analysis, backend code generation and compilation, and as a
result they achieve runtimes virtually identical to those of OpenCL";
the first EP class-W call was 20.5% slower (0.044s -> 0.053s).
"""

from repro.benchsuite import report, runner


def test_warm_cache_binary_reuse(benchmark):
    row = benchmark.pedantic(lambda: runner.run_warm_cache("W"),
                             rounds=1, iterations=1)
    print()
    print(report.format_warm_cache(row))
    # the first call pays capture+codegen+compile; later calls do not
    assert row["cold_overhead_seconds"] > 0
    assert row["warm_overhead_seconds"] == 0
    assert row["warm_slowdown_pct"] < row["cold_slowdown_pct"]
    # warm calls are virtually identical to OpenCL (within 2%)
    assert abs(row["warm_slowdown_pct"]) < 2.0


def test_warm_cache_disk_cross_process(benchmark, tmp_path):
    """Persistent-cache extension of §V-B: the *second process* is warm.

    The cold and warm -O2 legs of the opt-pipeline target: a fresh
    process with a populated ``HPL_CACHE_DIR`` must build every kernel
    from the disk cache — zero clc compiles — and produce results
    identical to the cold process.
    """
    row = benchmark.pedantic(
        lambda: runner.run_opt_pipeline(cache_dir=tmp_path),
        rounds=1, iterations=1)
    print()
    print(report.format_opt_pipeline(row))
    assert runner.gate_opt_pipeline(row) == []
    assert row["cold_clc_compiles"] >= 5
    assert row["warm_clc_compiles"] == 0
    assert row["warm_disk_cache_hits"] >= 5
    assert row["warm_disk_cache_misses"] == 0
    assert row["warm_results_identical"]
    assert row["verified"]
    # host timing: reported by the target, asserted only here
    assert row["warm_build_seconds"] < row["cold_build_seconds"]
