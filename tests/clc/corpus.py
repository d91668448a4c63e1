"""Kernel sources shared by the front-end golden and property tests.

:func:`paper_sources` captures the OpenCL C that HPL generates for the
five paper benchmarks (on their smallest inputs); :func:`fuzz_sources`
draws kernels from the differential fuzzer's seeded generator.  The
golden files store the sources they were built from, so the tests that
read them do not depend on codegen staying the same.
"""

from __future__ import annotations


def paper_sources() -> dict:
    """``{"<benchmark>/<kernel>": source}`` for every kernel the five
    paper benchmarks generate."""
    from repro.benchsuite.runner import (_BENCH_MODULES, TESLA,
                                         _problems_opt_tiny)
    from repro.hpl import reset_runtime
    from repro.hpl.runtime import get_runtime

    out = {}
    for name, problem in _problems_opt_tiny().items():
        reset_runtime()
        _BENCH_MODULES[name].run_hpl(problem, TESLA)
        for captured in get_runtime()._captured.values():
            out[f"{name}/{captured.kernel_name}"] = captured.source
    reset_runtime()
    return dict(sorted(out.items()))


def fuzz_sources(count: int) -> dict:
    """``{"fuzz/<seed>": source}`` for the first ``count`` seeds the
    differential fuzzer runs."""
    from tests.clc.test_opt_differential import _KernelGen

    return {f"fuzz/{seed}": _KernelGen(seed).source()
            for seed in range(1000, 1000 + count)}
