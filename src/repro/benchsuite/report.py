"""Text rendering of the runner's results in the paper's format."""

from __future__ import annotations


def _rule(width: int = 72) -> str:
    return "-" * width


def format_cluster(row: dict) -> str:
    """Render the multi-device overlap measurement (cluster target)."""
    out = [f"Cluster overlap: {row['reps']} async rounds of a "
           f"{row['n']}-element partitioned kernel on "
           f"{len(row['devices'])} device(s)", _rule()]
    for name, busy in row["busy_seconds"].items():
        out.append(f"{name:<44}{busy:>14.6f}s busy")
    out += [_rule(),
            f"{'serialized (sum of device busy time)':<44}"
            f"{row['serialized_seconds']:>14.6f}s",
            f"{'makespan (event-graph deferred mode)':<44}"
            f"{row['makespan_seconds']:>14.6f}s",
            f"{'timeline compression':<44}"
            f"{row['overlap_factor']:>13.2f}x",
            f"{'deferred == eager results':<44}"
            f"{str(row['results_identical']):>14}",
            _rule()]
    return "\n".join(out)


def format_cluster_lb(row: dict) -> str:
    """Render the cluster load-balancing comparison (cluster-lb)."""
    out = [f"Cluster load balancing: {row['n']}-element compute-bound "
           f"kernel ({row['iters']} iters/item) on "
           f"{len(row['devices'])} skewed device(s)", _rule(),
           f"{'policy':<14}{'makespan':>12}{'speedup':>9}"
           f"{'overlap':>9}{'launches':>10}  partition sizes", _rule()]
    uniform = row["legs"]["uniform"]["makespan_seconds"]
    for name, leg in row["legs"].items():
        sizes = leg["partition_sizes"]
        shown = ", ".join(str(s) for s in sizes[:4])
        if len(sizes) > 4:
            shown += f", ... ({len(sizes)} total)"
        out.append(
            f"{name:<14}{leg['makespan_seconds'] * 1e3:>10.3f}ms"
            f"{uniform / leg['makespan_seconds']:>8.2f}x"
            f"{leg['overlap_factor']:>8.2f}x"
            f"{leg['launches']:>10}  [{shown}]")
    out += [_rule(),
            f"{'all policies bit-identical':<44}"
            f"{str(row['results_identical']):>14}",
            _rule()]
    return "\n".join(out)


def format_cluster_faults(row: dict) -> str:
    """Render the fault-recovery matrix (cluster-faults)."""
    out = [f"Cluster fault recovery: {row['n']}-element kernel "
           f"({row['iters']} iters/item), {row['schedule']} schedule",
           _rule(),
           f"{'fault plan':<14}{'makespan':>12}{'overhead':>10}"
           f"{'retries':>9}{'requeued':>10}  lost devices", _rule()]
    for name, leg in row["legs"].items():
        lost = ", ".join(leg["devices_lost"]) or "-"
        out.append(
            f"{name:<14}{leg['makespan_seconds'] * 1e3:>10.3f}ms"
            f"{row['overhead'][name]:>9.2f}x"
            f"{leg['retries']:>9}{leg['requeued_items']:>10}  {lost}")
    out += [_rule(),
            f"{'all fault legs bit-identical':<44}"
            f"{str(row['results_identical']):>14}",
            _rule()]
    return "\n".join(out)


def format_cluster_resilience(row: dict) -> str:
    """Render the watchdog/checkpoint resilience legs
    (cluster-resilience)."""
    out = [f"Cluster resilience: {row['n']}-element kernel "
           f"({row['iters']} iters/item), {row['schedule']} schedule, "
           f"mean of {row['reps']} rep(s)",
           _rule(),
           f"{'leg':<24}{'makespan':>12}{'overhead':>10}"
           f"{'spec wins':>11}", _rule()]
    base = row["legs"]["no-fault"]["makespan_seconds"]
    for name, leg in row["legs"].items():
        if name == "kill-and-resume":
            continue
        out.append(
            f"{name:<24}{leg['makespan_seconds'] * 1e3:>10.3f}ms"
            f"{leg['makespan_seconds'] / base:>9.2f}x"
            f"{leg['speculative_wins']:>11}")
    resumed = row["legs"]["kill-and-resume"]
    out += [_rule(),
            f"{'kill-and-resume: blocks restored from checkpoint':<48}"
            f"{resumed['resumed_blocks']:>10}",
            f"{'kill-and-resume: launches after resume':<48}"
            f"{resumed['launches_after_resume']:>10}",
            f"{'resume bit-identical to no-fault':<44}"
            f"{str(row['resume_bit_identical']):>14}",
            f"{'all legs bit-identical':<44}"
            f"{str(row['results_identical']):>14}",
            _rule()]
    return "\n".join(out)


def format_table1(rows: list[dict]) -> str:
    """Render Table I (SLOC comparison)."""
    out = ["Table I: SLOCs for the OpenCL and HPL versions of the "
           "benchmarks", _rule(),
           f"{'Benchmark':<20}{'OpenCL':>10}{'HPL':>10}"
           f"{'Reduction':>12}{'Ratio':>8}", _rule()]
    for r in rows:
        out.append(f"{r['benchmark']:<20}{r['opencl_sloc']:>10}"
                   f"{r['hpl_sloc']:>10}{r['reduction_pct']:>11.1f}%"
                   f"{r['ratio']:>7.1f}x")
    out.append(_rule())
    return "\n".join(out)


def format_fig6(rows: list[dict]) -> str:
    """Render Figure 6 (EP speedups per class) as a table of series."""
    out = ["Figure 6: EP speedup over serial CPU per problem size",
           _rule(),
           f"{'Class':<8}{'OpenCL x':>12}{'HPL x':>12}"
           f"{'HPL slowdown':>16}", _rule()]
    for r in rows:
        slowdown = 100.0 * (r["opencl_speedup"] / r["hpl_speedup"] - 1.0)
        out.append(f"{r['class']:<8}{r['opencl_speedup']:>12.1f}"
                   f"{r['hpl_speedup']:>12.1f}{slowdown:>15.2f}%")
    out.append(_rule())
    return "\n".join(out)


def format_fig7(rows: list[dict]) -> str:
    """Render Figure 7 (speedups of all benchmarks)."""
    out = ["Figure 7: speedups over serial CPU (Tesla C2050/C2070)",
           _rule(),
           f"{'Benchmark':<20}{'OpenCL x':>12}{'HPL x':>12}", _rule()]
    for r in rows:
        out.append(f"{r['benchmark']:<20}{r['opencl_speedup']:>12.1f}"
                   f"{r['hpl_speedup']:>12.1f}")
    out.append(_rule())
    return "\n".join(out)


def format_fig8(rows: list[dict], include_transfers: bool = False) -> str:
    """Render Figure 8 (slowdown of HPL vs OpenCL)."""
    title = "Figure 8: slowdown of HPL with respect to OpenCL"
    if include_transfers:
        title += " (transfers counted)"
    out = [title, _rule(),
           f"{'Benchmark':<20}{'OpenCL s':>12}{'HPL s':>12}"
           f"{'Slowdown':>12}", _rule()]
    for r in rows:
        out.append(f"{r['benchmark']:<20}{r['opencl_seconds']:>12.4f}"
                   f"{r['hpl_seconds']:>12.4f}"
                   f"{r['slowdown_pct']:>11.2f}%")
    out.append(_rule())
    return "\n".join(out)


def format_fig9(rows: list[dict]) -> str:
    """Render Figure 9 (overhead on Tesla and Quadro)."""
    out = ["Figure 9: HPL overhead vs OpenCL on both GPUs", _rule(),
           f"{'Benchmark':<20}{'GPU':<22}{'Slowdown':>12}", _rule()]
    for r in rows:
        out.append(f"{r['benchmark']:<20}{r['gpu']:<22}"
                   f"{r['slowdown_pct']:>11.2f}%")
    out.append(_rule())
    return "\n".join(out)


def format_opt_pipeline(row: dict) -> str:
    """Render the middle-end pipeline experiment (O0 vs O2 bytecode)."""
    out = ["Optimizing middle-end: unoptimized (-O0) vs optimized (-O2) "
           "bytecode", _rule(),
           f"{'Benchmark':<20}{'O0 exec s':>12}{'O2 exec s':>12}"
           f"{'Speedup':>10}{'Sim O0/O2':>11}", _rule()]
    for name, r in row["benchmarks"].items():
        out.append(f"{name:<20}{r['o0_seconds']:>12.4f}"
                   f"{r['o2_seconds']:>12.4f}{r['speedup']:>9.2f}x"
                   f"{r['sim_ratio']:>10.3f}x")
    passes = ", ".join(f"{name} x{runs}" for name, runs
                       in sorted(row["cold_pass_runs"].items()))
    out += [_rule(),
            f"{'geomean speedup (not gated)':<34}"
            f"{row['geomean_speedup']:>11.2f}x",
            f"{'cold pass runs':<34}  {passes}",
            f"{'total build s, cold -> warm':<34}"
            f"{row['cold_build_seconds']:>12.6f} -> "
            f"{row['warm_build_seconds']:.6f}",
            f"{'clc compiles, cold -> warm':<34}"
            f"{row['cold_clc_compiles']:>12} -> "
            f"{row['warm_clc_compiles']}",
            f"{'disk hits / misses, cold':<34}"
            f"{row['cold_disk_cache_hits']:>12} / "
            f"{row['cold_disk_cache_misses']}",
            f"{'disk hits / misses, warm':<34}"
            f"{row['warm_disk_cache_hits']:>12} / "
            f"{row['warm_disk_cache_misses']}",
            f"{'warm pass runs':<34}{row['warm_pass_runs']:>12}",
            f"{'warm == cold results':<34}"
            f"{str(row['warm_results_identical']):>12}",
            f"{'serial-O0 == serial-O2 == jit-O2':<34}"
            f"{str(row['differential_identical']):>12}",
            f"{'verified':<34}{str(row['verified']):>12}",
            _rule()]
    return "\n".join(out)


def format_engine_jit(row: dict) -> str:
    """Render the jit engine's interpreted-vs-compiled tier shoot-out."""
    out = ["jit engine tiers: bytecode interpreter vs generated NumPy code "
           f"(median ratio of {row['rounds']} interleaved rounds)", _rule(),
           f"{'Benchmark':<20}{'interp s':>12}{'compiled s':>12}"
           f"{'Speedup':>10}", _rule()]
    for name, r in row["benchmarks"].items():
        out.append(f"{name:<20}{r['interp_seconds']:>12.4f}"
                   f"{r['compiled_seconds']:>12.4f}{r['speedup']:>9.2f}x")
    out += [_rule(),
            f"{'geomean speedup':<34}{row['geomean_speedup']:>11.2f}x",
            f"{'gate':<34}{row['gate']:>11.1f}x",
            f"{'checksums identical':<34}"
            f"{str(row['checksums_identical']):>12}",
            _rule()]
    return "\n".join(out)


def format_warm_cache(row: dict) -> str:
    """Render the §V-B first-vs-later invocation comparison."""
    out = ["§V-B: kernel binary reuse (EP class " + row["class"] + ")",
           _rule(),
           f"OpenCL:          {row['opencl_seconds']:.4f} s",
           f"HPL first call:  {row['hpl_cold_seconds']:.4f} s "
           f"({row['cold_slowdown_pct']:+.2f}%)",
           f"HPL second call: {row['hpl_warm_seconds']:.4f} s "
           f"({row['warm_slowdown_pct']:+.2f}%)",
           _rule()]
    return "\n".join(out)
