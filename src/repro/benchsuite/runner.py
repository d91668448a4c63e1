"""Experiment orchestration: one function per paper table/figure.

Every function returns plain data (lists of dicts) so tests can assert on
it; :mod:`repro.benchsuite.report` renders the same data the way the
paper presents it.  See DESIGN.md §3 for the experiment index and
EXPERIMENTS.md for paper-vs-measured numbers.
"""

from __future__ import annotations

import gc
import inspect
import math

from ..hpl import get_runtime, reset_runtime
from ..productivity import count_sloc, count_sloc_python
from . import ep, floyd, reduction, spmv, transpose
from .common import run_child

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


def _settle_process() -> None:
    """Pay the process's first-use costs untimed, then collect garbage.

    Builds and runs a tiny unrelated kernel, so whichever leg is timed
    first does not also pay the one-off costs of the front-end and the
    engines; its source matches no timed kernel, so it warms no cache
    the timed legs read.  The collection keeps an earlier workload's
    garbage from being collected inside a timed build.
    """
    from ..hpl import Array, float_, get_device, idx
    from ..hpl import eval as hpl_eval

    def settle(y):
        y[idx] = y[idx] + 1.0

    hpl_eval(settle).device(get_device(TESLA))(Array(float_, 4))
    reset_runtime()
    gc.collect()


def run_warm_cache(ep_class: str = "W") -> dict:
    """First vs second invocation of the same HPL kernel (binary reuse)."""
    problem = ep.ep_problem(ep_class)
    _settle_process()
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


# -- optimizing middle-end: O0 vs O2, cold vs warm, serial vs vector ----------

def _problems_warm_cache() -> dict:
    """Small instances of all five benchmarks — the compile cost the
    cold and warm legs measure is problem-size independent, so the
    device work is kept tiny to make the target cheap enough for CI."""
    return {
        "EP": ep.ep_problem("S"),
        "Floyd-Warshall": floyd.floyd_problem(256, n_run=32),
        "Matrix transpose": transpose.transpose_problem(1024, n_run=128),
        "Spmv": spmv.spmv_problem(2048, n_run=256),
        "Reduction": reduction.reduction_problem(1 << 16, n_run=1 << 12),
    }


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


def _checksum(output) -> float:
    """Order-stable digest of a benchmark's numerical output."""
    import numpy as np

    parts = output if isinstance(output, (tuple, list)) else (output,)
    return float(sum(np.asarray(p, dtype=np.float64).sum()
                     for p in parts))


def _opt_pipeline_child(engine: str = "jit", tiny: bool = False) -> dict:
    """One measured process of the opt-pipeline experiment.

    The optimization level arrives through ``$HPL_OPT_LEVEL`` and the
    cache through ``$HPL_CACHE_DIR``; ``engine`` selects the execution
    engine for every simulated device.  Returns per-benchmark wall and
    build times and checksums plus the process-global compile, pass
    and disk-cache counters that prove (or disprove) that a warm start
    touched the middle end.
    """
    import time

    from .. import trace
    from ..ocl.devicedb import DEFAULT_DEVICES
    from ..ocl.platform import set_platform_devices

    if engine != "jit":
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
    meta = _middle_end_meta()
    return {
        "engine": engine,
        "opt_level": meta["opt_level"],
        "benchmarks": rows,
        "exec_wall_seconds": sum(r["exec_wall_seconds"]
                                 for r in rows.values()),
        "build_seconds": sum(r["build_seconds"] for r in rows.values()),
        "clc_compiles": counters.get("clc.compiles", 0),
        "pass_runs": meta["pass_runs"],
        "pass_seconds": meta["pass_seconds"],
        "disk_cache_hits": counters.get("hpl.disk_cache_hits", 0),
        "disk_cache_misses": counters.get("hpl.disk_cache_misses", 0),
        "verified": all(r["verified"] for r in rows.values()),
    }


def run_opt_pipeline(cache_dir=None) -> dict:
    """Middle-end pipeline experiment: O0 vs O2, cold vs warm, engines
    cross-checked.  Three claims, each measured in fresh subprocesses
    and each checked by :func:`gate_opt_pipeline`:

    * **optimization pays** — all five benchmarks on the jit engine
      at ``-O0`` (unoptimized bytecode) vs ``-O2`` (optimized
      bytecode): per benchmark, the O2 checksum must equal the O0 one
      and the O2 simulated kernel seconds must not exceed the O0
      value.  Both are deterministic.  The engine wall-clock speedups
      and their geomean are reported but not gated: host noise is as
      large as the difference.
    * **warm start** — the persistent kernel cache across processes: a
      cold ``-O2`` process compiles every kernel, and a second ``-O2``
      process against the same cache must be served every build from
      disk — **zero** clc compiles and **zero** optimization passes
      (the cached artifact already holds the lowered bytecode) — and
      reproduce the cold checksums exactly.  Per-benchmark cold and
      warm build seconds are reported; host timings are not gated.
    * **correctness** — serial-O0, serial-O2 and jit-O2 runs of tiny
      instances must produce bit-identical checksums, so every pass and
      both engines (the jit's interpreted and compiled tiers alike)
      preserve semantics.  Every leg's output must also match the
      benchmark's NumPy oracle.
    """
    import json
    import tempfile

    def leg(cache, opt_level, engine="jit", tiny=False):
        # uncached legs drop any inherited cache to stay genuinely cold
        proc = run_child(_opt_pipeline_child,
                         {"engine": engine, "tiny": tiny},
                         env={"HPL_OPT_LEVEL": opt_level,
                              "HPL_CACHE_DIR": cache})
        return json.loads(proc.stdout)

    cleanup = None
    if cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="hpl-opt-pipeline-")
        cache_dir, cleanup = tmp.name, tmp
    try:
        o0_cold = leg(cache_dir, 0)
        o2_cold = leg(cache_dir, 2)
        o2_warm = leg(cache_dir, 2)
        serial_o0 = leg(None, 0, "serial", tiny=True)
        serial_o2 = leg(None, 2, "serial", tiny=True)
        jit_o2 = leg(None, 2, "jit", tiny=True)
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
            "checksums_identical": o0["checksum"] == o2["checksum"],
            "cold_build_seconds":
                o2_cold["benchmarks"][name]["build_seconds"],
            "warm_build_seconds": o2["build_seconds"]}
    geomean = math.exp(sum(math.log(s) for s in speedups)
                       / len(speedups)) if speedups else 0.0
    diff = [serial_o0, serial_o2, jit_o2]
    return {
        "benchmarks": benchmarks,
        "geomean_speedup": geomean,
        "o0_exec_seconds": o0_cold["exec_wall_seconds"],
        "o2_exec_seconds": o2_warm["exec_wall_seconds"],
        "opt_levels": {"o0": o0_cold["opt_level"],
                       "o2": o2_cold["opt_level"]},
        "cold_pass_runs": o2_cold["pass_runs"],
        "cold_pass_seconds": o2_cold["pass_seconds"],
        "cold_build_seconds": o2_cold["build_seconds"],
        "warm_build_seconds": o2_warm["build_seconds"],
        "cold_clc_compiles": o2_cold["clc_compiles"],
        "cold_disk_cache_hits": o2_cold["disk_cache_hits"],
        "cold_disk_cache_misses": o2_cold["disk_cache_misses"],
        "warm_clc_compiles": o2_warm["clc_compiles"],
        "warm_pass_runs": sum(o2_warm["pass_runs"].values()),
        "warm_disk_cache_hits": o2_warm["disk_cache_hits"],
        "warm_disk_cache_misses": o2_warm["disk_cache_misses"],
        "warm_results_identical": all(
            o2_cold["benchmarks"][n]["checksum"]
            == o2_warm["benchmarks"][n]["checksum"]
            for n in o2_cold["benchmarks"]),
        "differential_identical": all(
            len({d["benchmarks"][n]["checksum"] for d in diff}) == 1
            for n in serial_o0["benchmarks"]),
        "verified": all(leg["verified"] for leg in
                        (o0_cold, o2_cold, o2_warm, *diff)),
    }


def _failed(rules: dict) -> list[str]:
    """The names of the rules (name -> passed) a row breaks."""
    return [rule for rule, ok in rules.items() if not ok]


def gate_opt_pipeline(row: dict) -> list[str]:
    """Failed rules of an opt-pipeline row (see :func:`run_opt_pipeline`);
    wall-clock fields are never gated."""
    benchmarks = row["benchmarks"].values()
    return _failed({
        "-O2 checksums == -O0":
            all(b["checksums_identical"] for b in benchmarks),
        "-O2 sim seconds <= -O0":
            all(b["o2_sim_seconds"] <= b["o0_sim_seconds"]
                for b in benchmarks),
        "warm_clc_compiles == 0": row["warm_clc_compiles"] == 0,
        "warm_pass_runs == 0": row["warm_pass_runs"] == 0,
        "differential_identical": row["differential_identical"],
        "verified": row["verified"],
        "warm_results_identical": row["warm_results_identical"],
        "cold_clc_compiles >= 5": row["cold_clc_compiles"] >= 5,
        "warm_disk_cache_hits >= 5": row["warm_disk_cache_hits"] >= 5,
        "warm_disk_cache_misses == 0": row["warm_disk_cache_misses"] == 0,
    })


# -- tier shoot-out: the jit engine interpreted vs compiled ------------------

def _problems_engine_jit() -> dict:
    """Loop-heavy instances of the five paper benchmarks for the tier
    shoot-out: sizes chosen so each kernel launches many times (or
    iterates long in-kernel loops) over moderate arrays — the regime
    where per-instruction interpreter dispatch, the cost the compiled
    tier removes, dominates the shared NumPy work.

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


#: ``JitEngine._HOT_LAUNCHES`` per leg: never compile, compile at once
TIER_LEGS = {"interp": math.inf, "compiled": 1}


def _engine_run_seconds(tier: str, module, problem, reps: int) -> tuple:
    """One benchmark on the jit engine pinned to ``tier`` (see
    :data:`TIER_LEGS`) from a cold runtime; returns the summed
    ``engine_run`` span wall-clock over ``reps`` invocations less the
    ``jit_compile`` spans inside them (pure execution — excludes driver,
    compile and codegen time), plus the output checksum and the tiers
    the spans report."""
    from .. import trace
    from ..ocl.devicedb import DEFAULT_DEVICES
    from ..ocl.engines.jit import JitEngine
    from ..ocl.platform import set_platform_devices

    reset_runtime()
    set_platform_devices(DEFAULT_DEVICES, "jit")
    caller = trace.get_tracer()
    tracer = trace.set_tracer(trace.Tracer())
    saved = JitEngine._HOT_LAUNCHES
    JitEngine._HOT_LAUNCHES = TIER_LEGS[tier]
    try:
        for _ in range(reps):
            run = module.run_hpl(problem, TESLA)
    finally:
        JitEngine._HOT_LAUNCHES = saved
        trace.set_tracer(caller)
        set_platform_devices(DEFAULT_DEVICES)
    spans = tracer.spans()
    runs = [s for s in spans if s.name == "engine_run"]
    wall = (sum(s.duration_seconds for s in runs)
            - sum(s.duration_seconds for s in spans
                  if s.name == "jit_compile"))
    tiers = sorted({s.attrs.get("tier") for s in runs})
    return wall, _checksum(run.output), tiers


#: the compiled tier must beat the interpreted one by this wall-clock
#: geomean
ENGINE_JIT_GATE = 2.0


def run_engine_jit(rounds: int = 7) -> dict:
    """Interpreted-vs-compiled tier shoot-out of the jit engine over the
    five paper benchmarks.

    For each benchmark the two tiers run interleaved for ``rounds``
    rounds from a cold runtime.  Each round's legs execute back to
    back, so ambient machine load hits both tiers alike — the
    per-benchmark speedup is therefore the *median of per-round
    ratios* (interpreted wall over compiled wall, summed
    ``engine_run`` spans), which a single loaded or lucky round cannot
    move.  Every round must produce bit-identical output checksums
    across the two tiers (compiling is a pure execution substrate
    swap), and :func:`gate_engine_jit` requires the compiled tier to
    beat the interpreter by at least :data:`ENGINE_JIT_GATE` wall-clock
    geomean.
    """
    benchmarks = {}
    speedups = []
    for name, (problem, reps) in _problems_engine_jit().items():
        module = _BENCH_MODULES[name]
        best = {tier: None for tier in TIER_LEGS}
        checksum = None
        ratios = []
        for _ in range(rounds):
            walls = {}
            for tier in TIER_LEGS:
                wall, csum, tiers = _engine_run_seconds(
                    tier, module, problem, reps)
                if tiers != [tier]:
                    raise AssertionError(
                        f"{name}: engine_run spans report tiers {tiers}, "
                        f"expected [{tier!r}]")
                if checksum is None:
                    checksum = csum
                elif csum != checksum:
                    raise AssertionError(
                        f"{name}: {tier} checksum {csum} diverges "
                        f"from {checksum}")
                walls[tier] = wall
                if best[tier] is None or wall < best[tier]:
                    best[tier] = wall
            ratios.append(walls["interp"] / walls["compiled"]
                          if walls["compiled"] > 0 else float("inf"))
        ratios.sort()
        mid = len(ratios) // 2
        speedup = (ratios[mid] if len(ratios) % 2
                   else (ratios[mid - 1] + ratios[mid]) / 2)
        speedups.append(speedup)
        benchmarks[name] = {
            "interp_seconds": best["interp"],
            "compiled_seconds": best["compiled"],
            "speedup": speedup,
            "round_ratios": [round(r, 3) for r in ratios],
            "checksum": checksum,
        }
    geomean = math.exp(sum(math.log(s) for s in speedups)
                       / len(speedups)) if speedups else 0.0
    return {
        "benchmarks": benchmarks,
        "geomean_speedup": geomean,
        "rounds": rounds,
        "gate": ENGINE_JIT_GATE,
        "checksums_identical": True,    # asserted per round above
    }


def gate_engine_jit(row: dict) -> list[str]:
    """Failed rules of an engine-jit row."""
    return _failed({
        f"geomean_speedup >= {ENGINE_JIT_GATE}":
            row["geomean_speedup"] >= ENGINE_JIT_GATE,
    })


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


def run_cluster_lb(n: int = 1 << 14, iters: int = 64) -> dict:
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
    come from the simulated per-device timelines.  The row carries the
    weighted/dynamic speedups over uniform, which
    :func:`gate_cluster_lb` requires to be >= 1.3x.
    """
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
    return {
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


def gate_cluster_lb(row: dict) -> list[str]:
    """Failed rules of a cluster-lb row."""
    return _failed({
        "results_identical": row["results_identical"],
        "speedup_weighted >= 1.3": row["speedup_weighted"] >= 1.3,
        "speedup_dynamic >= 1.3": row["speedup_dynamic"] >= 1.3,
    })


def run_cluster_faults(n: int = 1 << 14, iters: int = 48) -> dict:
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
    result must be bit-identical to the no-fault leg (the target gates
    on ``results_identical`` and on *recovery* overhead <= 2x — the
    transient and device-lost legs; the straggler leg is slow hardware,
    not recovery, so its makespan is reported but not gated).  The
    retry backoff is set proportional to the simulated kernel times so
    the measured overhead reflects re-run work, not an arbitrary
    wall-clock constant.  The row records per-leg makespans,
    retry/requeue counts, and the overhead ratios.
    """
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
    return {
        "n": n,
        "iters": iters,
        "schedule": "dynamic",
        "legs": legs,
        "overhead": {name: leg["makespan_seconds"] / baseline
                     for name, leg in legs.items()},
        #: the gated figure: worst recovery-path overhead over no-fault
        "recovery_overhead": max(
            legs["transient"]["makespan_seconds"],
            legs["device-lost"]["makespan_seconds"]) / baseline,
        "results_identical": bool(all(
            np.array_equal(base, outs[name]) for name in plans)),
        "checksum": legs["none"]["checksum"],
    }


def gate_cluster_faults(row: dict) -> list[str]:
    """Failed rules of a cluster-faults row."""
    legs = row["legs"]
    return _failed({
        "results_identical": row["results_identical"],
        "recovery_overhead <= 2.0": row["recovery_overhead"] <= 2.0,
        "transient retries >= 1": legs["transient"]["retries"] >= 1,
        "device-lost requeued_items >= 1":
            legs["device-lost"]["requeued_items"] >= 1,
    })


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


def _resilience_child(mode: str, ckpt_dir: str, n: int,
                      iters: int) -> dict:
    """Kill-and-resume subprocess body (cluster-resilience target).

    ``mode="kill"`` SIGKILLs the process at its third checkpoint
    snapshot — no cleanup, no atexit, exactly a crashed run;
    ``"resume"`` restores the snapshot, finishes the work, and returns
    the gathered result's digest.
    """
    import hashlib
    import os
    import signal

    from ..hpl import (Cluster, DistributedArray, Float, cluster_eval,
                       float_, get_devices)
    from ..hpl import checkpoint as ckpt

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
    return {"digest": hashlib.sha256(out.tobytes()).hexdigest(),
            "checksum": float(out.sum()),
            "resumed_blocks": result.failures.resumed_blocks,
            "launches": len(result)}


def run_cluster_resilience(n: int = 1 << 15, iters: int = 64,
                           reps: int = 3) -> dict:
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
    :func:`gate_cluster_resilience` checks
    ``straggler_overhead_speculated <= 1.25``, the unmitigated leg
    actually showing a cliff, and every leg's digest matching the
    no-fault leg bit-for-bit.
    """
    import hashlib
    import json
    import signal
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
        kwargs = {"ckpt_dir": ckpt_dir, "n": n, "iters": iters}
        no_faults = {"HPL_FAULTS": None}    # the children run fault-free
        run_child(_resilience_child, {"mode": "kill", **kwargs},
                  env=no_faults, returncode=-signal.SIGKILL)
        resumed = json.loads(run_child(
            _resilience_child, {"mode": "resume", **kwargs},
            env=no_faults).stdout)
    legs["kill-and-resume"] = {
        "resumed_blocks": resumed["resumed_blocks"],
        "launches_after_resume": resumed["launches"],
        "checksum": resumed["checksum"],
        "digest": resumed["digest"],
    }

    base = legs["no-fault"]["makespan_seconds"]
    digest0 = legs["no-fault"]["digest"]
    return {
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


def gate_cluster_resilience(row: dict) -> list[str]:
    """Failed rules of a cluster-resilience row."""
    return _failed({
        "results_identical": row["results_identical"],
        "resume_bit_identical": row["resume_bit_identical"],
        "straggler_overhead_unmitigated >= 2.0":
            row["straggler_overhead_unmitigated"] >= 2.0,
        "straggler_overhead_speculated <= 1.25":
            row["straggler_overhead_speculated"] <= 1.25,
        "speculation_wins >= 1": row["speculation_wins"] >= 1,
        "resumed_blocks >= 1": row["resumed_blocks"] >= 1,
    })


# -- command-line entry point -------------------------------------------------
#
# ``python -m repro.benchsuite [target ...] [--record run.jsonl] [--json]``
# regenerates paper tables/figures from the shell.

#: CLI target name -> (runner, formatter, gate); formatter and gate may
#: be None.  A gated target's row is written to ``BENCH_<target>.json``
#: and the CLI exits non-zero if its gate names a failed rule.
def _cli_targets() -> dict:
    from . import report

    return {
        "ep": (run_ep, None, None),
        "cluster": (run_cluster, report.format_cluster, None),
        "cluster-lb": (run_cluster_lb, report.format_cluster_lb,
                       gate_cluster_lb),
        "cluster-faults": (run_cluster_faults,
                           report.format_cluster_faults,
                           gate_cluster_faults),
        "cluster-resilience": (run_cluster_resilience,
                               report.format_cluster_resilience,
                               gate_cluster_resilience),
        "table1": (run_table1, report.format_table1, None),
        "fig6": (run_fig6, report.format_fig6, None),
        "fig7": (run_fig7, report.format_fig7, None),
        "fig8": (run_fig8, report.format_fig8, None),
        "fig9": (run_fig9, report.format_fig9, None),
        "warm": (run_warm_cache, report.format_warm_cache, None),
        "opt-pipeline": (run_opt_pipeline, report.format_opt_pipeline,
                         gate_opt_pipeline),
        "engine-jit": (run_engine_jit, report.format_engine_jit,
                       gate_engine_jit),
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


def _target_record(name: str, span) -> dict:
    """The run record's entry for one finished (or failed) target."""
    from .. import prof, trace
    from ..prof.core import merge_profiles

    return {"name": name, "span": span.span_id,
            "meta": _middle_end_meta(),
            "runtime": get_runtime().stats.registry.snapshot(),
            "metrics": trace.get_registry().snapshot(),
            "profiles": merge_profiles(prof.get_profiler().drain())}


def _run_targets(ns, targets: dict, recorded: list | None) -> int:
    """Run ``ns.targets``, appending each one's record entry to
    ``recorded`` unless it is None; returns the exit status."""
    import json
    import sys

    from .. import trace

    gate_failed = False
    for name in ns.targets:
        run, fmt, gate = targets[name]
        with trace.span(f"target:{name}", category="benchsuite") as span:
            try:
                result = run(ns.ep_class) if name == "ep" else run()
            finally:
                if recorded is not None:
                    recorded.append(_target_record(name, span))
        if ns.json:
            print(json.dumps({name: result,
                              "_meta": _middle_end_meta()},
                             indent=2, default=str))
        elif fmt is not None:
            print(fmt(result))
        else:
            for key, value in result.items():
                print(f"{key:>16}: {value}")
        if gate is not None:
            artifact = f"BENCH_{name.replace('-', '_')}.json"
            with open(artifact, "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=2)
            print(f"wrote {artifact}", file=sys.stderr)
            failed = gate(result)
            if failed:
                gate_failed = True
                print(f"{name} gate failed: {'; '.join(failed)}",
                      file=sys.stderr)
    return 1 if gate_failed else 0


def main(argv: list[str] | None = None) -> int:
    """Entry point behind ``python -m repro.benchsuite``."""
    import argparse
    import sys

    from .. import prof, trace

    targets = _cli_targets()
    parser = argparse.ArgumentParser(
        prog="python -m repro.benchsuite",
        description="Run the paper's experiments "
                    "(tables/figures) on the simulated platform.")
    parser.add_argument("targets", nargs="*", default=["ep"],
                        choices=sorted(targets), metavar="target",
                        help=f"one or more of: {', '.join(sorted(targets))}"
                             " (default: ep)")
    parser.add_argument("--record", metavar="PATH", default=None,
                        help="trace and profile the run and write its "
                             "JSONL run record (render it with "
                             "'python -m repro.trace report PATH')")
    parser.add_argument("--json", action="store_true",
                        help="print raw result data as JSON instead of "
                             "the formatted tables")
    parser.add_argument("--ep-class", default="S",
                        choices=("S", "W", "A", "B", "C"),
                        help="NAS class for the 'ep' target (default: S)")
    ns = parser.parse_args(argv)
    if ns.record is None:
        return _run_targets(ns, targets, None)

    caller_tracer, caller_profiler = trace.get_tracer(), prof.get_profiler()
    tracer = trace.set_tracer(trace.Tracer())
    prof.set_profiler(prof.Profiler(enabled=True))
    recorded, error = [], None
    try:
        return _run_targets(ns, targets, recorded)
    except BaseException as exc:
        error = exc
        raise
    finally:
        trace.set_tracer(caller_tracer)
        prof.set_profiler(caller_profiler)
        trace.write_record(ns.record, sys.argv[1:] if argv is None
                           else argv, error, tracer.spans(), recorded)
        print(f"wrote run record {ns.record}", file=sys.stderr)
