"""Experiment orchestration: one function per paper table/figure.

Every function returns plain data (lists of dicts) so tests can assert on
it; :mod:`repro.benchsuite.report` renders the same data the way the
paper presents it.  See DESIGN.md §3 for the experiment index and
EXPERIMENTS.md for paper-vs-measured numbers.
"""

from __future__ import annotations

import inspect

from ..hpl import reset_runtime
from ..productivity import count_sloc, count_sloc_python
from . import ep, floyd, reduction, spmv, transpose

TESLA = "Tesla"
QUADRO = "Quadro"

_BENCH_MODULES = {
    "EP": ep, "Floyd-Warshall": floyd, "Matrix transpose": transpose,
    "Spmv": spmv, "Reduction": reduction,
}


# -- Table I: programmability ---------------------------------------------------

def run_table1() -> list[dict]:
    """Table I: SLOC of the OpenCL and HPL versions of each benchmark.

    Counts the complete standalone program pairs in
    :mod:`repro.benchsuite.table1` — entire applications, as the paper
    counted entire AMD SDK / SHOC / NPB codes with sloccount.
    """
    from .table1 import TABLE1_PAIRS, read_source

    rows = []
    for name, (ocl_file, hpl_file) in TABLE1_PAIRS.items():
        ocl_sloc = count_sloc_python(read_source(ocl_file),
                                     count_docstrings=False)
        hpl_sloc = count_sloc_python(read_source(hpl_file),
                                     count_docstrings=False)
        rows.append({
            "benchmark": name,
            "opencl_sloc": ocl_sloc,
            "hpl_sloc": hpl_sloc,
            "reduction_pct": 100.0 * (ocl_sloc - hpl_sloc) / ocl_sloc,
            "ratio": ocl_sloc / hpl_sloc,
        })
    return rows


# -- problems at paper (Tesla) configuration -------------------------------------------

def _problems_tesla() -> dict:
    return {
        "EP": ep.ep_problem("C"),
        "Floyd-Warshall": floyd.floyd_problem(floyd.PAPER_NODES,
                                              n_run=128),
        "Matrix transpose": transpose.transpose_problem(
            transpose.PAPER_SIZE, n_run=512),
        "Spmv": spmv.spmv_problem(spmv.PAPER_SIZE, n_run=1024),
        "Reduction": reduction.reduction_problem(reduction.PAPER_N,
                                                 n_run=1 << 18),
    }


def _problems_quadro() -> dict:
    """§V-C: reduced sizes that fit the Quadro FX 380; EP is excluded
    because the device lacks double-precision support."""
    return {
        "Floyd-Warshall": floyd.floyd_problem(floyd.PAPER_NODES_QUADRO,
                                              n_run=128),
        "Matrix transpose": transpose.transpose_problem(
            transpose.PAPER_SIZE_QUADRO, n_run=512),
        "Spmv": spmv.spmv_problem(spmv.PAPER_SIZE_QUADRO, n_run=1024),
        "Reduction": reduction.reduction_problem(reduction.PAPER_N,
                                                 n_run=1 << 18),
    }


def _run_pair(name: str, problem, device: str,
              cold_hpl: bool = True) -> dict:
    """One benchmark, both variants, on one device."""
    module = _BENCH_MODULES[name]
    run_ocl = module.run_opencl(problem, device)
    if cold_hpl:
        reset_runtime()   # make the HPL invocation pay full first-call cost
    run_hpl = module.run_hpl(problem, device)
    assert module.verify(run_ocl, problem), f"{name} OpenCL verify failed"
    assert module.verify(run_hpl, problem), f"{name} HPL verify failed"
    serial = module.serial_seconds(run_ocl)
    return {"benchmark": name, "device": run_ocl.device,
            "serial_seconds": serial, "opencl": run_ocl, "hpl": run_hpl}


# -- Figure 6: EP speedups by class --------------------------------------------------------

def run_fig6(classes=("W", "A", "B", "C")) -> list[dict]:
    """EP GPU speedups over serial CPU per class, OpenCL vs HPL bars."""
    rows = []
    for cls in classes:
        problem = ep.ep_problem(cls)
        pair = _run_pair("EP", problem, TESLA)
        serial = pair["serial_seconds"]
        rows.append({
            "class": cls,
            "serial_seconds": serial,
            "opencl_seconds": pair["opencl"].total_seconds(
                include_build=True),
            "hpl_seconds": pair["hpl"].total_seconds(include_build=True),
            "opencl_speedup": serial / pair["opencl"].total_seconds(
                include_build=True),
            "hpl_speedup": serial / pair["hpl"].total_seconds(
                include_build=True),
        })
    return rows


# -- Figure 7: all-benchmark speedups --------------------------------------------------------

def run_fig7() -> list[dict]:
    """Speedups of all five benchmarks on the Tesla, OpenCL vs HPL."""
    rows = []
    for name, problem in _problems_tesla().items():
        pair = _run_pair(name, problem, TESLA)
        serial = pair["serial_seconds"]
        ocl_t = pair["opencl"].total_seconds(include_build=True)
        hpl_t = pair["hpl"].total_seconds(include_build=True)
        rows.append({
            "benchmark": name,
            "serial_seconds": serial,
            "opencl_speedup": serial / ocl_t,
            "hpl_speedup": serial / hpl_t,
        })
    return rows


# -- Figure 8: HPL overhead ---------------------------------------------------------------------

def run_fig8(include_transfers: bool = False,
             device: str = TESLA, problems: dict | None = None
             ) -> list[dict]:
    """Per-benchmark slowdown of HPL vs OpenCL (cold invocation).

    The paper's measurement counts backend code generation (HPL only),
    kernel compilation and kernel execution, excluding transfers; with
    ``include_transfers=True`` the PCIe traffic is added to both sides —
    the variant that dilutes transpose's overhead from 3.47% to 0.41%.
    """
    problems = problems if problems is not None else _problems_tesla()
    rows = []
    for name, problem in problems.items():
        pair = _run_pair(name, problem, device)
        ocl_t = pair["opencl"].total_seconds(
            include_transfers=include_transfers, include_build=True)
        hpl_t = pair["hpl"].total_seconds(
            include_transfers=include_transfers, include_build=True)
        rows.append({
            "benchmark": name,
            "device": pair["device"],
            "opencl_seconds": ocl_t,
            "hpl_seconds": hpl_t,
            "hpl_overhead_seconds": pair["hpl"].hpl_overhead_seconds,
            "build_seconds": pair["hpl"].build_seconds,
            "slowdown_pct": 100.0 * (hpl_t - ocl_t) / ocl_t,
        })
    return rows


# -- Figure 9: portability -----------------------------------------------------------------------

def run_fig9() -> list[dict]:
    """HPL overhead on both GPUs (EP excluded on the Quadro: no fp64)."""
    rows = []
    tesla_rows = run_fig8(problems={
        k: v for k, v in _problems_tesla().items() if k != "EP"})
    for row in tesla_rows:
        row["gpu"] = "Tesla C2050/C2070"
        rows.append(row)
    quadro_rows = run_fig8(device=QUADRO, problems=_problems_quadro())
    for row in quadro_rows:
        row["gpu"] = "Quadro FX 380"
        rows.append(row)
    return rows


# -- §V-B warm-cache behaviour ---------------------------------------------------------------------

def run_ep(ep_class: str = "S", device: str = TESLA) -> dict:
    """One EP pair (OpenCL + HPL) — the quick CLI / tracing target."""
    problem = ep.ep_problem(ep_class)
    pair = _run_pair("EP", problem, device)
    serial = pair["serial_seconds"]
    return {
        "class": ep_class,
        "device": pair["device"],
        "serial_seconds": serial,
        "opencl_seconds": pair["opencl"].total_seconds(include_build=True),
        "hpl_seconds": pair["hpl"].total_seconds(include_build=True),
        "hpl_speedup": serial / pair["hpl"].total_seconds(
            include_build=True),
    }


def run_warm_cache(ep_class: str = "W") -> dict:
    """First vs second invocation of the same HPL kernel (binary reuse)."""
    problem = ep.ep_problem(ep_class)
    reset_runtime()
    module = _BENCH_MODULES["EP"]
    ocl_run = module.run_opencl(problem, TESLA)
    reset_runtime()
    cold = module.run_hpl(problem, TESLA)
    warm = module.run_hpl(problem, TESLA)
    # cold: both sides pay their one-off compile (HPL also captures);
    # warm: both sides reuse binaries, so only execution is compared
    ocl_cold_t = ocl_run.total_seconds(include_build=True)
    ocl_warm_t = ocl_run.total_seconds(include_build=False)
    return {
        "class": ep_class,
        "opencl_seconds": ocl_cold_t,
        "hpl_cold_seconds": cold.total_seconds(include_build=True),
        "hpl_warm_seconds": warm.total_seconds(include_build=False),
        "cold_slowdown_pct": 100.0 * (cold.total_seconds(
            include_build=True) - ocl_cold_t) / ocl_cold_t,
        "warm_slowdown_pct": 100.0 * (warm.total_seconds(
            include_build=False) - ocl_warm_t) / ocl_warm_t,
        "cold_overhead_seconds": (cold.hpl_overhead_seconds
                                  + cold.build_seconds),
        "warm_overhead_seconds": (warm.hpl_overhead_seconds
                                  + warm.build_seconds),
    }


# -- persistent disk cache: cold vs warm process ------------------------------

def _problems_warm_cache() -> dict:
    """Small instances of all five benchmarks — the compile cost the
    warm-cache experiment measures is problem-size independent, so the
    device work is kept tiny to make the target cheap enough for CI."""
    return {
        "EP": ep.ep_problem("S"),
        "Floyd-Warshall": floyd.floyd_problem(256, n_run=32),
        "Matrix transpose": transpose.transpose_problem(1024, n_run=128),
        "Spmv": spmv.spmv_problem(2048, n_run=256),
        "Reduction": reduction.reduction_problem(1 << 16, n_run=1 << 12),
    }


def _checksum(output) -> float:
    """Order-stable digest of a benchmark's numerical output."""
    import numpy as np

    parts = output if isinstance(output, (tuple, list)) else (output,)
    return float(sum(np.asarray(p, dtype=np.float64).sum()
                     for p in parts))


def _warm_cache_child() -> None:
    """One measured process of the warm-cache experiment.

    Runs the HPL variant of all five paper benchmarks against whatever
    ``HPL_CACHE_DIR`` points at, then prints a JSON record of compile
    costs, cache traffic and result checksums on stdout.  Spawned twice
    (cold, then warm) by :func:`run_warm_cache_disk`.
    """
    import json

    from .. import trace

    registry = trace.get_registry()
    rows = {}
    for name, problem in _problems_warm_cache().items():
        reset_runtime()
        module = _BENCH_MODULES[name]
        run = module.run_hpl(problem, TESLA)
        rows[name] = {
            "build_seconds": run.build_seconds,
            "codegen_seconds": run.hpl_overhead_seconds,
            "verified": bool(module.verify(run, problem)),
            "checksum": _checksum(run.output),
        }
    print(json.dumps({
        "benchmarks": rows,
        "total_build_seconds": sum(r["build_seconds"]
                                   for r in rows.values()),
        "clc_compiles": registry.counter("clc.compiles").value,
        "disk_cache_hits": registry.counter("hpl.disk_cache_hits").value,
        "disk_cache_misses":
            registry.counter("hpl.disk_cache_misses").value,
        "verified": all(r["verified"] for r in rows.values()),
    }))


def _spawn_warm_cache_child(cache_dir) -> dict:
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = os.environ.copy()
    env["HPL_CACHE_DIR"] = str(cache_dir)
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c",
         "from repro.benchsuite.runner import _warm_cache_child as c; c()"],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"warm-cache child failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout)


def run_warm_cache_disk(cache_dir=None,
                        output: str | None = "BENCH_warm_cache.json"
                        ) -> dict:
    """Cold vs warm compile cost across *processes* (persistent cache).

    Runs all five benchmarks in a fresh subprocess against an empty
    kernel cache (cold), then again in another fresh subprocess against
    the now-populated cache (warm).  The warm process must perform zero
    clc compiles — every ``Program.build`` is served from disk — and
    produce bit-identical results.  With ``output`` set, the row is also
    written as JSON (the ``BENCH_warm_cache.json`` trajectory artifact).
    """
    import json
    import tempfile

    cleanup = None
    if cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="hpl-warm-cache-")
        cache_dir, cleanup = tmp.name, tmp
    try:
        cold = _spawn_warm_cache_child(cache_dir)
        warm = _spawn_warm_cache_child(cache_dir)
    finally:
        if cleanup is not None:
            cleanup.cleanup()

    cold_build = cold["total_build_seconds"]
    warm_build = warm["total_build_seconds"]
    row = {
        "benchmarks": {
            name: {
                "cold_build_seconds": cold["benchmarks"][name]
                ["build_seconds"],
                "warm_build_seconds": warm["benchmarks"][name]
                ["build_seconds"],
            } for name in cold["benchmarks"]
        },
        "cold_build_seconds": cold_build,
        "warm_build_seconds": warm_build,
        "build_reduction_pct": (100.0 * (cold_build - warm_build)
                                / cold_build if cold_build else 0.0),
        "cold_clc_compiles": cold["clc_compiles"],
        "warm_clc_compiles": warm["clc_compiles"],
        "cold_disk_cache_hits": cold["disk_cache_hits"],
        "warm_disk_cache_hits": warm["disk_cache_hits"],
        "warm_disk_cache_misses": warm["disk_cache_misses"],
        "verified": bool(cold["verified"] and warm["verified"]),
        "results_identical": all(
            cold["benchmarks"][name]["checksum"]
            == warm["benchmarks"][name]["checksum"]
            for name in cold["benchmarks"]),
    }
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            json.dump(row, fh, indent=2)
        row["output"] = output
    return row


# -- optimizing middle-end: O0 vs O2, cold vs warm, serial vs vector ----------

def _problems_opt_tiny() -> dict:
    """Minimal valid instances of all five benchmarks, small enough for
    the *serial* reference engine to execute them in seconds — the
    differential legs of the opt-pipeline experiment run every work-item
    one by one."""
    return {
        "EP": ep.ep_problem("S", shift=14),
        "Floyd-Warshall": floyd.floyd_problem(64, n_run=16),
        "Matrix transpose": transpose.transpose_problem(256, n_run=16),
        "Spmv": spmv.spmv_problem(512, n_run=64),
        "Reduction": reduction.reduction_problem(1 << 12, n_run=1 << 10),
    }


def _opt_pipeline_child(engine: str = "vector", tiny: bool = False) -> None:
    """One measured process of the opt-pipeline experiment.

    The optimization level arrives through ``$HPL_OPT_LEVEL`` (set by
    the spawner) and the cache through ``$HPL_CACHE_DIR``; ``engine``
    selects the execution engine for every simulated device.  Prints a
    JSON record with per-benchmark wall times and checksums plus the
    process-global compile/pass counters that prove (or disprove) that
    a warm start touched the middle end.
    """
    import json
    import time

    from .. import trace
    from ..clc.passes import default_opt_level
    from ..ocl.devicedb import DEFAULT_DEVICES
    from ..ocl.platform import set_platform_devices

    if engine != "vector":
        set_platform_devices(DEFAULT_DEVICES, engine)
    problems = _problems_opt_tiny() if tiny else _problems_warm_cache()
    rows = {}
    for name, problem in problems.items():
        reset_runtime()
        module = _BENCH_MODULES[name]
        t0 = time.perf_counter()
        run = module.run_hpl(problem, TESLA)
        wall = time.perf_counter() - t0
        # engine execution time: the measured wall clock minus the
        # (wall-clock) capture/codegen and compile costs also inside it
        exec_wall = max(0.0, wall - run.build_seconds
                        - run.hpl_overhead_seconds)
        rows[name] = {
            "wall_seconds": wall,
            "exec_wall_seconds": exec_wall,
            "build_seconds": run.build_seconds,
            "sim_kernel_seconds": run.kernel_seconds,
            "verified": bool(module.verify(run, problem)),
            "checksum": _checksum(run.output),
        }
    counters = trace.get_registry().snapshot()["counters"]
    prefix, tprefix = "clc.pass_", "clc.pass_seconds_"
    print(json.dumps({
        "engine": engine,
        "opt_level": default_opt_level(),
        "benchmarks": rows,
        "exec_wall_seconds": sum(r["exec_wall_seconds"]
                                 for r in rows.values()),
        "clc_compiles": counters.get("clc.compiles", 0),
        "pass_runs": {k[len(prefix):]: v for k, v in counters.items()
                      if k.startswith(prefix)
                      and not k.startswith(tprefix)},
        "pass_seconds": {k[len(tprefix):]: v for k, v in counters.items()
                         if k.startswith(tprefix)},
        "disk_cache_hits": counters.get("hpl.disk_cache_hits", 0),
        "verified": all(r["verified"] for r in rows.values()),
    }))


def _spawn_opt_pipeline_child(cache_dir, opt_level: int,
                              engine: str = "vector",
                              tiny: bool = False) -> dict:
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = os.environ.copy()
    env["HPL_OPT_LEVEL"] = str(opt_level)
    if cache_dir is not None:
        env["HPL_CACHE_DIR"] = str(cache_dir)
    else:                       # keep uncached legs genuinely uncached
        env.pop("HPL_CACHE_DIR", None)
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c",
         "from repro.benchsuite.runner import _opt_pipeline_child as c; "
         f"c(engine={engine!r}, tiny={tiny!r})"],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"opt-pipeline child failed ({proc.returncode}):\n"
            f"{proc.stderr}")
    return json.loads(proc.stdout)


def run_opt_pipeline(cache_dir=None,
                     output: str | None = "BENCH_opt_pipeline.json"
                     ) -> dict:
    """Middle-end pipeline experiment: O0 vs O2, cold vs warm, engines
    cross-checked.  Three claims, each measured in fresh subprocesses
    and each gated by raising ``AssertionError``:

    * **optimization pays** — all five benchmarks on the vector engine
      at ``-O0`` (unoptimized bytecode) vs ``-O2`` (optimized
      bytecode): per benchmark, the O2 checksum must equal the O0 one
      and the O2 simulated kernel seconds must not exceed the O0
      value.  Both are deterministic.  The engine wall-clock speedups
      and their geomean are reported but not gated: host noise is as
      large as the difference.
    * **warm start** — a second ``-O2`` process against the same cache
      must perform **zero** clc compiles and **zero** optimization
      passes (the cached artifact already holds the lowered bytecode)
      and reproduce the cold checksums exactly.
    * **correctness** — serial-O0, serial-O2 and vector-O2 runs of tiny
      instances must produce bit-identical checksums, so every pass and
      both bytecode interpreters preserve semantics.

    With ``output`` set, the row is written as JSON (the
    ``BENCH_opt_pipeline.json`` trajectory artifact).
    """
    import json
    import math
    import tempfile

    cleanup = None
    if cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="hpl-opt-pipeline-")
        cache_dir, cleanup = tmp.name, tmp
    try:
        o0_cold = _spawn_opt_pipeline_child(cache_dir, 0)
        o2_cold = _spawn_opt_pipeline_child(cache_dir, 2)
        o2_warm = _spawn_opt_pipeline_child(cache_dir, 2)
        serial_o0 = _spawn_opt_pipeline_child(None, 0, "serial", tiny=True)
        serial_o2 = _spawn_opt_pipeline_child(None, 2, "serial", tiny=True)
        vector_o2 = _spawn_opt_pipeline_child(None, 2, "vector", tiny=True)
    finally:
        if cleanup is not None:
            cleanup.cleanup()

    benchmarks = {}
    speedups = []
    for name, o0 in o0_cold["benchmarks"].items():
        o2 = o2_warm["benchmarks"][name]
        o0_s, o2_s = o0["exec_wall_seconds"], o2["exec_wall_seconds"]
        speedup = o0_s / o2_s if o2_s > 0 else float("inf")
        speedups.append(speedup)
        benchmarks[name] = {
            "o0_seconds": o0_s, "o2_seconds": o2_s, "speedup": speedup,
            "o0_sim_seconds": o0["sim_kernel_seconds"],
            "o2_sim_seconds": o2["sim_kernel_seconds"],
            "sim_ratio": (o0["sim_kernel_seconds"]
                          / o2["sim_kernel_seconds"]
                          if o2["sim_kernel_seconds"] > 0 else 1.0),
            "checksums_identical": o0["checksum"] == o2["checksum"]}
    geomean = math.exp(sum(math.log(s) for s in speedups)
                       / len(speedups)) if speedups else 0.0

    mismatched = [n for n, b in benchmarks.items()
                  if not b["checksums_identical"]]
    if mismatched:
        raise AssertionError(
            f"-O2 checksums differ from -O0 on: {', '.join(mismatched)}")
    slower = {n: (b["o0_sim_seconds"], b["o2_sim_seconds"])
              for n, b in benchmarks.items()
              if b["o2_sim_seconds"] > b["o0_sim_seconds"]}
    if slower:
        raise AssertionError(
            "-O2 simulated kernel seconds exceed -O0 (O0, O2) on: "
            + json.dumps(slower))

    warm_pass_runs = sum(o2_warm["pass_runs"].values())
    if o2_warm["clc_compiles"] or warm_pass_runs:
        raise AssertionError(
            "warm -O2 process was not served post-optimization artifacts "
            f"from disk: {o2_warm['clc_compiles']} compile(s), "
            f"{warm_pass_runs} pass run(s)")
    diff_identical = all(
        serial_o0["benchmarks"][n]["checksum"]
        == serial_o2["benchmarks"][n]["checksum"]
        == vector_o2["benchmarks"][n]["checksum"]
        for n in serial_o0["benchmarks"])
    if not diff_identical:
        raise AssertionError(
            "serial-O0 / serial-O2 / vector-O2 checksums diverge: "
            + json.dumps({n: [serial_o0["benchmarks"][n]["checksum"],
                              serial_o2["benchmarks"][n]["checksum"],
                              vector_o2["benchmarks"][n]["checksum"]]
                          for n in serial_o0["benchmarks"]}))

    row = {
        "benchmarks": benchmarks,
        "geomean_speedup": geomean,
        "o0_exec_seconds": o0_cold["exec_wall_seconds"],
        "o2_exec_seconds": o2_warm["exec_wall_seconds"],
        "opt_levels": {"o0": o0_cold["opt_level"],
                       "o2": o2_cold["opt_level"]},
        "cold_pass_runs": o2_cold["pass_runs"],
        "cold_pass_seconds": o2_cold["pass_seconds"],
        "warm_clc_compiles": o2_warm["clc_compiles"],
        "warm_pass_runs": warm_pass_runs,
        "warm_disk_cache_hits": o2_warm["disk_cache_hits"],
        "warm_results_identical": all(
            o2_cold["benchmarks"][n]["checksum"]
            == o2_warm["benchmarks"][n]["checksum"]
            for n in o2_cold["benchmarks"]),
        "differential_identical": diff_identical,
        "verified": all(leg["verified"] for leg in
                        (o0_cold, o2_cold, o2_warm,
                         serial_o0, serial_o2, vector_o2)),
    }
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            json.dump(row, fh, indent=2)
        row["output"] = output
    return row


# -- engine shoot-out: vector interpreter vs codegen JIT -----------------------

def _problems_engine_jit() -> dict:
    """Loop-heavy instances of the five paper benchmarks for the
    engine shoot-out: sizes chosen so each kernel launches many times
    (or iterates long in-kernel loops) over moderate arrays — the
    regime where per-instruction interpreter dispatch, the cost the
    JIT removes, dominates the shared NumPy work.

    Values are ``(problem, reps)``: each measured leg invokes the
    benchmark ``reps`` times so the summed span time of single-launch
    benchmarks (transpose) is large enough to measure reliably."""
    return {
        "EP": (ep.ep_problem("S"), 1),
        "Floyd-Warshall": (floyd.floyd_problem(128, n_run=32), 4),
        "Matrix transpose":
            (transpose.transpose_problem(96, n_run=32), 64),
        "Spmv": (spmv.spmv_problem(65536, n_run=768), 1),
        "Reduction":
            (reduction.reduction_problem(1 << 24, n_run=1 << 22), 1),
    }


def _engine_run_seconds(engine: str, module, problem, reps: int) -> tuple:
    """One benchmark on one engine from a cold runtime; returns the
    summed ``engine_run`` span wall-clock over ``reps`` invocations
    (pure engine execution — excludes driver, compile and codegen
    time) plus the output checksum and the engine names the spans
    report."""
    from .. import trace

    from ..ocl.devicedb import DEFAULT_DEVICES
    from ..ocl.platform import set_platform_devices

    reset_runtime()
    set_platform_devices(DEFAULT_DEVICES, engine)
    tracer = trace.enable(fresh=True)
    try:
        for _ in range(reps):
            run = module.run_hpl(problem, TESLA)
    finally:
        trace.disable()
        set_platform_devices(DEFAULT_DEVICES)
    spans = [s for s in tracer.spans() if s.name == "engine_run"]
    wall = sum(s.duration_seconds for s in spans)
    engines = sorted({s.attrs.get("engine") for s in spans})
    return wall, _checksum(run.output), engines


def run_engine_jit(rounds: int = 7, gate: float | None = 2.0,
                   output: str | None = "BENCH_engine_jit.json") -> dict:
    """Vector-vs-JIT engine shoot-out over the five paper benchmarks.

    For each benchmark the two engines run interleaved for ``rounds``
    rounds from a cold runtime.  Each round's legs execute back to
    back, so ambient machine load hits both engines alike — the
    per-benchmark speedup is therefore the *median of per-round
    ratios* (vector wall over jit wall, summed ``engine_run`` spans),
    which a single loaded or lucky round cannot move.  Every round
    must produce bit-identical output checksums across the two
    engines (the JIT is a pure execution substrate swap), and with
    ``gate`` set the JIT must beat the vector interpreter by at least
    that wall-clock geomean.

    With ``output`` set, the row is written as JSON (the
    ``BENCH_engine_jit.json`` trajectory artifact).
    """
    import json
    import math

    benchmarks = {}
    speedups = []
    for name, (problem, reps) in _problems_engine_jit().items():
        module = _BENCH_MODULES[name]
        best = {"vector": None, "jit": None}
        checksum = None
        ratios = []
        for _ in range(rounds):
            walls = {}
            for engine in ("vector", "jit"):
                wall, csum, engines = _engine_run_seconds(
                    engine, module, problem, reps)
                if engines != [engine]:
                    raise AssertionError(
                        f"{name}: engine_run spans report {engines}, "
                        f"expected [{engine!r}]")
                if checksum is None:
                    checksum = csum
                elif csum != checksum:
                    raise AssertionError(
                        f"{name}: {engine} checksum {csum} diverges "
                        f"from {checksum}")
                walls[engine] = wall
                if best[engine] is None or wall < best[engine]:
                    best[engine] = wall
            ratios.append(walls["vector"] / walls["jit"]
                          if walls["jit"] > 0 else float("inf"))
        ratios.sort()
        mid = len(ratios) // 2
        speedup = (ratios[mid] if len(ratios) % 2
                   else (ratios[mid - 1] + ratios[mid]) / 2)
        speedups.append(speedup)
        benchmarks[name] = {
            "vector_seconds": best["vector"],
            "jit_seconds": best["jit"],
            "speedup": speedup,
            "round_ratios": [round(r, 3) for r in ratios],
            "checksum": checksum,
        }
    geomean = math.exp(sum(math.log(s) for s in speedups)
                       / len(speedups)) if speedups else 0.0
    row = {
        "benchmarks": benchmarks,
        "geomean_speedup": geomean,
        "rounds": rounds,
        "gate": gate,
        "checksums_identical": True,    # asserted per round above
    }
    if gate is not None and geomean < gate:
        raise AssertionError(
            f"jit engine geomean speedup {geomean:.2f}x is below the "
            f"{gate:.1f}x gate: " + json.dumps(
                {n: round(b["speedup"], 3)
                 for n, b in benchmarks.items()}))
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            json.dump(row, fh, indent=2)
        row["output"] = output
    return row


# -- §VII cluster extension: multi-device overlap ------------------------------

def run_cluster(n: int = 1 << 14, reps: int = 4) -> dict:
    """Event-graph async execution across every device of a Cluster.

    Runs the same partitioned reduction-style workload (an EP-flavoured
    elementwise transform followed by a host-side reduction) twice: once
    eagerly and once in deferred mode, where each device records its
    transfers and launches as an event graph and a single barrier
    executes everything dependency-ordered.  Reports the simulated
    makespan against the serialized sum of per-device busy times — the
    overlap the paper's §VII multi-device outlook asks for — and checks
    the two modes produce bit-identical results.
    """
    import numpy as np

    from ..hpl import (Cluster, DistributedArray, Float, cluster_eval,
                       float_, idx, timeline_of)
    from ..hpl import sqrt as hpl_sqrt

    def ep_scale(y, x, a, offset, count):
        y[idx] = a * hpl_sqrt(x[idx] * x[idx] + 1.0) + y[idx]

    rng = np.random.default_rng(42)
    xs = rng.random(n).astype(np.float32)
    ys = rng.random(n).astype(np.float32)

    def one_run(deferred: bool):
        reset_runtime()
        cluster = Cluster()
        dx = DistributedArray(float_, n, cluster, data=xs)
        dy = DistributedArray(float_, n, cluster, data=ys)
        results = []
        for _ in range(reps):
            results += cluster_eval(ep_scale, cluster, dy, dx,
                                    Float(1.5), deferred=deferred)
        total = float(dy.gather().sum())
        return cluster, results, total, dy.gather()

    cluster, _eager_results, eager_total, eager_out = one_run(False)
    cluster, results, deferred_total, deferred_out = one_run(True)
    timeline = timeline_of(results)
    return {
        "n": n,
        "reps": reps,
        "devices": [d.name for d in cluster.devices],
        "makespan_seconds": timeline.makespan_seconds,
        "serialized_seconds": timeline.serialized_seconds,
        "busy_seconds": dict(timeline.busy_seconds),
        "overlap_factor": timeline.overlap_factor,
        "results_identical": bool(
            np.array_equal(eager_out, deferred_out)),
        "checksum": deferred_total,
        "eager_checksum": eager_total,
    }


def run_cluster_lb(n: int = 1 << 14, iters: int = 64,
                   output: str | None = "BENCH_cluster_lb.json") -> dict:
    """Heterogeneity-aware load balancing across a skewed cluster.

    Runs one compute-bound partitioned kernel on the paper's default
    three-device mix (Tesla C2050 + Quadro FX 380 + Xeon host — spec
    throughputs spanning ~45x) under four scheduling policies:

    * ``uniform`` — near-even blocks; the makespan is pinned to the
      slowest device,
    * ``weighted`` — blocks sized from the device *specs*
      (no measured history),
    * ``weighted+cal`` — blocks sized from the throughputs measured in
      the earlier legs (the calibration feedback loop),
    * ``dynamic`` — on-demand HGuided chunks handed to whichever device
      drains first.

    All legs must produce bit-identical gathered results; the makespans
    come from the simulated per-device timelines.  The row (written as
    ``BENCH_cluster_lb.json``) carries the weighted/dynamic speedups
    over uniform, which CI gates at >= 1.3x.
    """
    import json

    import numpy as np

    from ..hpl import (Cluster, DistributedArray, Float, Int,
                       WeightedScheduler, calibration, cluster_eval,
                       endfor_, float_, for_, get_devices, idx,
                       timeline_of)
    from ..hpl import sqrt as hpl_sqrt

    def lb_heavy(y, x, a, offset, count):
        acc = Float(0.0)
        j = Int()
        for_(j, 0, iters)
        acc.assign(acc + hpl_sqrt(x[idx] * x[idx] + a * acc + 1.0))
        endfor_()
        y[idx] = acc

    rng = np.random.default_rng(42)
    xs = rng.random(n).astype(np.float32)

    def one_leg(schedule):
        reset_runtime()
        # all three devices of the paper's machine, CPU included:
        # the whole point is surviving a heterogeneous mix
        cluster = Cluster(get_devices())
        dx = DistributedArray(float_, n, cluster, data=xs)
        dy = DistributedArray(float_, n, cluster)
        results = cluster_eval(lb_heavy, cluster, dy, dx, Float(0.5),
                               schedule=schedule)
        out = dy.gather()
        timeline = timeline_of(results)
        return cluster, {
            "makespan_seconds": timeline.makespan_seconds,
            "serialized_seconds": timeline.serialized_seconds,
            "busy_seconds": dict(timeline.busy_seconds),
            "overlap_factor": timeline.overlap_factor,
            "launches": len(results),
            "partition_sizes": [hi - lo for lo, hi in dy.bounds],
            "checksum": float(out.sum()),
        }, out

    calibration().reset()
    cluster, uniform, base_out = one_leg("uniform")
    # spec-derived weights: what a model-only scheduler can do
    _c, weighted, weighted_out = one_leg(
        WeightedScheduler(calibrate=False))
    _c, dynamic, dynamic_out = one_leg("dynamic")
    # by now every device has measured history for this kernel;
    # the default weighted scheduler switches to it automatically
    _c, calibrated, calibrated_out = one_leg("weighted")

    legs = {"uniform": uniform, "weighted": weighted,
            "dynamic": dynamic, "weighted+cal": calibrated}
    row = {
        "n": n,
        "iters": iters,
        "devices": [d.label for d in cluster.devices],
        "legs": legs,
        "speedup_weighted": uniform["makespan_seconds"]
        / weighted["makespan_seconds"],
        "speedup_dynamic": uniform["makespan_seconds"]
        / dynamic["makespan_seconds"],
        "speedup_weighted_calibrated": uniform["makespan_seconds"]
        / calibrated["makespan_seconds"],
        "results_identical": bool(
            np.array_equal(base_out, weighted_out)
            and np.array_equal(base_out, dynamic_out)
            and np.array_equal(base_out, calibrated_out)),
        "checksum": uniform["checksum"],
    }
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            json.dump(row, fh, indent=2)
        row["output"] = output
    return row


def run_cluster_faults(n: int = 1 << 14, iters: int = 48,
                       output: str | None = "BENCH_cluster_faults.json"
                       ) -> dict:
    """Fault-tolerant cluster execution under a seeded fault matrix.

    Runs one compute-bound partitioned kernel on the paper's
    three-device mix under the dynamic scheduler, four times:

    * ``none`` — the healthy baseline,
    * ``transient`` — the Tesla's first two kernel launches fail with
      ``OUT_OF_RESOURCES`` and are retried with simulated backoff,
    * ``device-lost`` — the Quadro dies mid-run, is quarantined, and
      its chunks are re-run on the survivors,
    * ``straggler`` — the Quadro runs 8x slow; no recovery, just a
      rebalanced timeline.

    Recovery must be *correct* before it is fast: every leg's gathered
    result must be bit-identical to the no-fault leg (CI gates on
    ``results_identical`` and on *recovery* overhead <= 2x — the
    transient and device-lost legs; the straggler leg is slow hardware,
    not recovery, so its makespan is reported but not gated).  The
    retry backoff is set proportional to the simulated kernel times so
    the measured overhead reflects re-run work, not an arbitrary
    wall-clock constant.  The row (written as
    ``BENCH_cluster_faults.json``) records per-leg makespans,
    retry/requeue counts, and the overhead ratios.
    """
    import json

    import numpy as np

    from ..hpl import (Cluster, DistributedArray, Float, Int,
                       cluster_eval, endfor_, float_, for_, get_devices,
                       idx, timeline_of)
    from ..hpl import configure as hpl_configure
    from ..hpl import sqrt as hpl_sqrt

    def ft_heavy(y, x, a, offset, count):
        acc = Float(0.0)
        j = Int()
        for_(j, 0, iters)
        acc.assign(acc + hpl_sqrt(x[idx] * x[idx] + a * acc + 1.0))
        endfor_()
        y[idx] = acc

    rng = np.random.default_rng(42)
    xs = rng.random(n).astype(np.float32)

    plans = {
        "none": None,
        "transient": "device=Tesla kind=transient op=kernel nth=1 "
                     "count=2; seed=1",
        "device-lost": "device=Quadro kind=lost at=1e-6; seed=2",
        "straggler": "device=Quadro kind=slow factor=8; seed=3",
    }

    def one_leg(plan):
        reset_runtime()
        hpl_configure(faults=plan)
        try:
            cluster = Cluster(get_devices())
            dx = DistributedArray(float_, n, cluster, data=xs)
            dy = DistributedArray(float_, n, cluster)
            results = cluster_eval(ft_heavy, cluster, dy, dx,
                                   Float(0.5), schedule="dynamic",
                                   backoff=1e-7)
            out = dy.gather()
        finally:
            hpl_configure(faults=None)
        timeline = timeline_of(results)
        f = results.failures
        return {
            "makespan_seconds": timeline.makespan_seconds,
            "overlap_factor": timeline.overlap_factor,
            "launches": len(results),
            "retries": f.retries,
            "transient_failures": f.transient_failures,
            "devices_lost": list(f.devices_lost),
            "requeued_items": f.requeued_items,
            "backoff_seconds": f.backoff_seconds,
            "checksum": float(out.sum()),
        }, out

    legs, outs = {}, {}
    for name, plan in plans.items():
        legs[name], outs[name] = one_leg(plan)
    base = outs["none"]
    baseline = legs["none"]["makespan_seconds"]
    row = {
        "n": n,
        "iters": iters,
        "schedule": "dynamic",
        "legs": legs,
        "overhead": {name: leg["makespan_seconds"] / baseline
                     for name, leg in legs.items()},
        #: the CI gate: worst recovery-path overhead over no-fault
        "recovery_overhead": max(
            legs["transient"]["makespan_seconds"],
            legs["device-lost"]["makespan_seconds"]) / baseline,
        "results_identical": bool(all(
            np.array_equal(base, outs[name]) for name in plans)),
        "checksum": legs["none"]["checksum"],
    }
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            json.dump(row, fh, indent=2)
        row["output"] = output
    return row


def _make_res_kernel(iters: int):
    """The compute-bound partitioned kernel shared by the resilience
    legs and the kill-and-resume subprocesses (the kernel *name* is
    part of the checkpoint run id, so both sides must build it the
    same way)."""
    from ..hpl import Float, Int, endfor_, for_, idx
    from ..hpl import sqrt as hpl_sqrt

    def res_heavy(y, x, a, offset, count):
        acc = Float(0.0)
        j = Int()
        for_(j, 0, iters)
        acc.assign(acc + hpl_sqrt(x[idx] * x[idx] + a * acc + 1.0))
        endfor_()
        y[idx] = acc

    return res_heavy


def _resilience_data(n: int):
    import numpy as np

    return np.random.default_rng(7).random(n).astype(np.float32)


def _resilience_child() -> None:
    """Kill-and-resume subprocess body (cluster-resilience target).

    ``HPL_RESILIENCE_MODE=kill`` SIGKILLs the process at its third
    checkpoint snapshot — no cleanup, no atexit, exactly a crashed run;
    ``resume`` restores the snapshot, finishes the work, and reports
    the gathered result's digest on stdout.
    """
    import hashlib
    import json
    import os
    import signal
    import sys

    from ..hpl import (Cluster, DistributedArray, Float, cluster_eval,
                       float_, get_devices)
    from ..hpl import checkpoint as ckpt

    mode = os.environ["HPL_RESILIENCE_MODE"]
    ckpt_dir = os.environ["HPL_RESILIENCE_CKPT"]
    n = int(os.environ["HPL_RESILIENCE_N"])
    iters = int(os.environ["HPL_RESILIENCE_ITERS"])

    if mode == "kill":
        original = ckpt.CheckpointStore.save
        state = {"calls": 0}

        def killing_save(self, run_id, arrays, completed):
            state["calls"] += 1
            if state["calls"] == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(self, run_id, arrays, completed)

        ckpt.CheckpointStore.save = killing_save

    kernel = _make_res_kernel(iters)
    xs = _resilience_data(n)
    cluster = Cluster(get_devices())
    dx = DistributedArray(float_, n, cluster, data=xs)
    dy = DistributedArray(float_, n, cluster)
    result = cluster_eval(kernel, cluster, dy, dx, Float(0.5),
                          schedule="dynamic", checkpoint=ckpt_dir,
                          resume=(mode == "resume"))
    out = dy.gather()
    json.dump({"digest": hashlib.sha256(out.tobytes()).hexdigest(),
               "checksum": float(out.sum()),
               "resumed_blocks": result.failures.resumed_blocks,
               "launches": len(result)}, sys.stdout)


def _spawn_resilience_child(mode: str, ckpt_dir: str, n: int,
                            iters: int):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = os.environ.copy()
    env.pop("HPL_FAULTS", None)     # the children run fault-free
    env.update({"HPL_RESILIENCE_MODE": mode,
                "HPL_RESILIENCE_CKPT": str(ckpt_dir),
                "HPL_RESILIENCE_N": str(n),
                "HPL_RESILIENCE_ITERS": str(iters)})
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-c",
         "from repro.benchsuite.runner import _resilience_child as c; "
         "c()"],
        env=env, capture_output=True, text=True)


def run_cluster_resilience(
        n: int = 1 << 15, iters: int = 64, reps: int = 3,
        output: str | None = "BENCH_cluster_resilience.json") -> dict:
    """Deadline-aware watchdog, speculation, and checkpoint/resume.

    Four legs, all running the same compute-bound partitioned kernel
    on the paper's three-device mix under the dynamic scheduler:

    * ``no-fault`` — the healthy baseline,
    * ``straggler-unmitigated`` — the Quadro runs 1024x slow; dynamic
      chunk sizing shrinks its share, but its minimum-size chunk still
      pins the makespan orders of magnitude above the baseline,
    * ``straggler-speculated`` — same fault with ``watchdog=True``:
      the straggler's chunks are speculatively re-executed on a
      predicted-faster device, the losers' event graphs cancelled
      before any payload runs,
    * ``kill-and-resume`` — a *subprocess* checkpointing every block
      is SIGKILLed at its third snapshot; a second subprocess resumes
      from the surviving snapshot and must produce bit-identical
      results while skipping the completed blocks.

    Each timed leg takes one unmeasured calibration warm-up iteration
    (the watchdog is predictive — it speculates off the calibrated
    throughput model) and then averages ``reps`` measured iterations.
    CI gates on ``straggler_overhead_speculated <= 1.25``, on the
    unmitigated leg actually showing a cliff, and on every leg's
    digest matching the no-fault leg bit-for-bit.
    """
    import hashlib
    import json
    import signal as _signal
    import tempfile

    from ..hpl import (Cluster, DistributedArray, Float, calibration,
                       cluster_eval, float_, get_devices, timeline_of)
    from ..hpl import configure as hpl_configure

    kernel = _make_res_kernel(iters)
    xs = _resilience_data(n)
    straggler = "device=Quadro kind=slow factor=1024; seed=5"

    def one_iter(watchdog):
        reset_runtime()
        cluster = Cluster(get_devices())
        dx = DistributedArray(float_, n, cluster, data=xs)
        dy = DistributedArray(float_, n, cluster)
        result = cluster_eval(kernel, cluster, dy, dx, Float(0.5),
                              schedule="dynamic", watchdog=watchdog)
        out = dy.gather()
        return (timeline_of(result).makespan_seconds,
                result.failures, out)

    def leg(plan, watchdog):
        calibration().reset()
        hpl_configure(faults=plan)
        try:
            one_iter(watchdog)      # calibration warm-up, unmeasured
            makespans, wins, out = [], 0, None
            for _ in range(reps):
                makespan, failures, out = one_iter(watchdog)
                makespans.append(makespan)
                wins += failures.speculative_wins
        finally:
            hpl_configure(faults=None)
        return {
            "makespan_seconds": sum(makespans) / len(makespans),
            "speculative_wins": wins,
            "checksum": float(out.sum()),
            "digest": hashlib.sha256(out.tobytes()).hexdigest(),
        }

    legs = {
        "no-fault": leg(None, None),
        "straggler-unmitigated": leg(straggler, None),
        "straggler-speculated": leg(straggler, True),
    }

    with tempfile.TemporaryDirectory(
            prefix="hpl-resilience-ckpt-") as ckpt_dir:
        first = _spawn_resilience_child("kill", ckpt_dir, n, iters)
        if first.returncode != -_signal.SIGKILL:
            raise RuntimeError(
                f"kill-phase child should die by SIGKILL, exited "
                f"{first.returncode}:\n{first.stderr}")
        second = _spawn_resilience_child("resume", ckpt_dir, n, iters)
        if second.returncode != 0:
            raise RuntimeError(
                f"resume child failed ({second.returncode}):\n"
                f"{second.stderr}")
        resumed = json.loads(second.stdout)
    legs["kill-and-resume"] = {
        "resumed_blocks": resumed["resumed_blocks"],
        "launches_after_resume": resumed["launches"],
        "checksum": resumed["checksum"],
        "digest": resumed["digest"],
    }

    base = legs["no-fault"]["makespan_seconds"]
    digest0 = legs["no-fault"]["digest"]
    row = {
        "n": n,
        "iters": iters,
        "reps": reps,
        "schedule": "dynamic",
        "legs": legs,
        "straggler_overhead_unmitigated":
            legs["straggler-unmitigated"]["makespan_seconds"] / base,
        "straggler_overhead_speculated":
            legs["straggler-speculated"]["makespan_seconds"] / base,
        "speculation_wins":
            legs["straggler-speculated"]["speculative_wins"],
        "resumed_blocks": legs["kill-and-resume"]["resumed_blocks"],
        "resume_bit_identical":
            legs["kill-and-resume"]["digest"] == digest0,
        "results_identical": bool(all(
            leg_row["digest"] == digest0 for leg_row in legs.values())),
        "checksum": legs["no-fault"]["checksum"],
    }
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            json.dump(row, fh, indent=2)
        row["output"] = output
    return row


# -- command-line entry point -------------------------------------------------
#
# ``python -m repro.benchsuite [target ...] [--trace out.json] [--verbose]``
# regenerates paper tables/figures from the shell.  With ``--trace`` the
# whole run executes under the global tracer and the spans are exported
# when it finishes: ``.jsonl`` suffix -> flat span log (the input format
# of ``python -m repro.trace summarize``), anything else -> Chrome
# ``chrome://tracing`` JSON.

#: CLI target name -> (runner, formatter); formatter may be None
def _cli_targets() -> dict:
    from . import report

    return {
        "ep": (run_ep, None),
        "cluster": (run_cluster, report.format_cluster),
        "cluster-lb": (run_cluster_lb, report.format_cluster_lb),
        "cluster-faults": (run_cluster_faults,
                           report.format_cluster_faults),
        "cluster-resilience": (run_cluster_resilience,
                               report.format_cluster_resilience),
        "table1": (run_table1, report.format_table1),
        "fig6": (run_fig6, report.format_fig6),
        "fig7": (run_fig7, report.format_fig7),
        "fig8": (run_fig8, report.format_fig8),
        "fig9": (run_fig9, report.format_fig9),
        "warm": (run_warm_cache, report.format_warm_cache),
        "warm-cache": (run_warm_cache_disk,
                       report.format_warm_cache_disk),
        "opt-pipeline": (run_opt_pipeline, report.format_opt_pipeline),
        "engine-jit": (run_engine_jit, report.format_engine_jit),
    }


def _middle_end_meta() -> dict:
    """Effective opt level, default execution engine, and this
    process's per-pass run counts and accumulated pass time — attached
    to every ``--json`` result so benchmark numbers are attributable
    to a backend and pipeline configuration."""
    from .. import trace
    from ..clc.passes import default_opt_level
    from ..hpl.cluster import last_failure_summary
    from ..ocl.engines.base import default_engine

    counters = trace.get_registry().snapshot()["counters"]
    prefix, tprefix = "clc.pass_", "clc.pass_seconds_"
    summary = last_failure_summary()
    return {
        "opt_level": default_opt_level(),
        "engine": default_engine(),
        "pass_runs": {k[len(prefix):]: v for k, v in counters.items()
                      if k.startswith(prefix)
                      and not k.startswith(tprefix)},
        "pass_seconds": {k[len(tprefix):]: v for k, v in counters.items()
                         if k.startswith(tprefix)},
        "failures": summary.as_dict() if summary is not None else None,
    }


def main(argv: list[str] | None = None) -> int:
    """Entry point behind ``python -m repro.benchsuite``."""
    import argparse
    import json

    from .. import trace
    from ..hpl import get_runtime
    from . import report

    targets = _cli_targets()
    parser = argparse.ArgumentParser(
        prog="python -m repro.benchsuite",
        description="Run the paper's experiments "
                    "(tables/figures) on the simulated platform.")
    parser.add_argument("targets", nargs="*", default=["ep"],
                        choices=sorted(targets), metavar="target",
                        help=f"one or more of: {', '.join(sorted(targets))}"
                             " (default: ep)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="capture a trace of the run; writes a JSONL "
                             "span log for *.jsonl, Chrome-trace JSON "
                             "otherwise")
    parser.add_argument("--json", action="store_true",
                        help="print raw result data as JSON instead of "
                             "the formatted tables")
    parser.add_argument("--verbose", "-v", action="store_true",
                        help="also print the HPL metrics-registry "
                             "summary after each target")
    parser.add_argument("--ep-class", default="S",
                        choices=("S", "W", "A", "B", "C"),
                        help="NAS class for the 'ep' target (default: S)")
    parser.add_argument("--profile", action="store_true",
                        help="enable the source-level kernel profiler and "
                             "print the hottest source lines after each "
                             "target")
    parser.add_argument("--profile-out", metavar="PREFIX", default=None,
                        help="write the collected kernel profiles as "
                             "PREFIX.json and PREFIX.flame "
                             "(implies --profile)")
    ns = parser.parse_args(argv)

    if ns.trace:
        trace.enable(fresh=True)
    profiling = bool(ns.profile or ns.profile_out)
    collected = []
    was_profiling = False
    if profiling:
        from .. import prof
        was_profiling = prof.is_enabled()
        prof.enable()
        prof.reset()

    for name in ns.targets:
        run, fmt = targets[name]
        with trace.span(f"target:{name}", category="benchsuite"):
            result = run(ns.ep_class) if name == "ep" else run()
        if profiling:
            from ..prof import get_profiler
            from ..prof.core import merge_profiles
            from ..prof.report import hotlines
            drained = get_profiler().drain()
            collected.extend(drained)
            merged = merge_profiles(drained)
            if merged:
                print(f"\n-- kernel profile: {name} "
                      "(hottest source lines) --")
                print(hotlines(merged))
        if ns.json:
            print(json.dumps({name: result,
                              "_meta": _middle_end_meta()},
                             indent=2, default=str))
        elif fmt is not None:
            print(fmt(result))
        else:
            for key, value in result.items():
                print(f"{key:>16}: {value}")
        if ns.verbose:
            print()
            print(report.format_metrics_summary(get_runtime().stats))

    if ns.trace:
        spans = trace.get_tracer().spans()
        if ns.trace.endswith(".jsonl"):
            trace.write_jsonl(ns.trace, spans)
        else:
            trace.write_chrome_trace(ns.trace, spans)
        print(f"\nwrote {len(spans)} span(s) to {ns.trace}")

    if ns.profile_out:
        from ..prof.core import merge_profiles
        from ..prof.report import flame, to_json
        merged = merge_profiles(collected)
        with open(ns.profile_out + ".json", "w", encoding="utf-8") as fh:
            fh.write(to_json(merged) + "\n")
        with open(ns.profile_out + ".flame", "w", encoding="utf-8") as fh:
            fh.write(flame(merged))
        print(f"\nwrote {len(merged)} kernel profile(s) to "
              f"{ns.profile_out}.json / {ns.profile_out}.flame")
    if profiling and not was_profiling:
        from .. import prof
        prof.disable()         # --profile must not outlive the run
    return 0
