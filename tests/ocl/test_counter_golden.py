"""Golden counter table: what a launch costs, whatever executes it.

``counter_golden.json`` records, for the five paper benchmarks at their
smallest inputs and for the 25 fuzz kernels of
``tests/clc/bytecode_golden.json``, at -O0 and -O2, every launch's
kernel name, every :class:`~repro.ocl.costmodel.CostCounters` field,
its per-line profile (every :class:`~repro.prof.LineStat` field, the
modeled cost included) and its branch divergence tallies, plus a digest
of the program's output.  Both tiers of the jit engine must reproduce
it exactly: a tier may change how bytecode executes, never what the
cost model and the profiler see.

Regenerate (only for an intended change to the cost model, lowering or
the profiler) with::

    PYTHONPATH=src:. python tests/ocl/test_counter_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.hpl as hpl
import repro.ocl as cl
from repro import prof
from repro.prof import BranchStat, LineStat
from tests.conftest import run_cl_kernel

GOLDEN = Path(__file__).with_name("counter_golden.json")
BYTECODE_GOLDEN = Path(__file__).parents[1] / "clc" / "bytecode_golden.json"

#: the committed table (empty while ``--write`` builds it)
TABLE = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}

LEVELS = (0, 2)

#: the engine the table is recorded under (it was first recorded under
#: the lock-step interpreter while that was an engine of its own), and
#: the engines checked against it: the jit engine pinned to each tier
RECORD_ENGINE = "jit-interp"
ENGINES = ("jit-interp", "jit-compiled")


def fuzz_cases() -> dict:
    """``{"fuzz/<seed>": {source, gsize, lsize}}`` for the fuzz kernels
    of the bytecode golden table; inputs are drawn from the seed."""
    from tests.clc.test_opt_differential import _KernelGen

    programs = json.loads(BYTECODE_GOLDEN.read_text())["programs"]
    out = {}
    for name in sorted(programs):
        if not name.startswith("fuzz/"):
            continue
        gen = _KernelGen(int(name.split("/")[1]))
        out[name] = {"source": programs[name]["source"],
                     "gsize": gen.gsize,
                     "lsize": gen.lsize if gen.has_barrier else None}
    return out


#: per-line and per-branch records are stored as value lists in the
#: order of these fields (the table names them too)
LINE_FIELDS = list(LineStat.__slots__)
BRANCH_FIELDS = list(BranchStat.__slots__)


def _launch(profile) -> dict:
    return {
        "kernel": profile.kernel,
        "counters": dict(profile.counters),
        "lines": {str(ln): [getattr(rec, f) for f in LINE_FIELDS]
                  for ln, rec in sorted(profile.lines.items())},
        "branches": {str(ln): [getattr(rec, f) for f in BRANCH_FIELDS]
                     for ln, rec in sorted(profile.branches.items())},
    }


def _profiled(fn):
    """``(fn(), per-launch records)`` with the profiler on."""
    was_enabled = prof.is_enabled()
    prof.enable()
    prof.reset()
    try:
        result = fn()
        launches = [_launch(p) for p in prof.get_profiler().drain()]
    finally:
        if not was_enabled:
            prof.disable()
    return result, launches


def run_fuzz(name: str, case: dict, engine: str, level: int) -> dict:
    seed = int(name.split("/")[1])
    gsize = case["gsize"]
    rng = np.random.default_rng(seed)
    fin = rng.uniform(0.1, 4.0, gsize).astype(np.float32)
    iin = rng.integers(-100, 100, gsize).astype(np.int32)
    s = round(float(rng.uniform(-2, 2)), 2)
    out = np.zeros(gsize, np.float32)
    iout = np.zeros(gsize, np.int32)
    lsize = None if case["lsize"] is None else (case["lsize"],)

    def launch():
        run_cl_kernel(cl.Device(cl.TESLA_C2050, engine), case["source"],
                      "fuzz", [out, iout, fin, iin, np.int32(gsize),
                               np.float32(s)],
                      (gsize,), lsize, options=f"-O{level}")

    _none, launches = _profiled(launch)
    digest = hashlib.sha256(out.tobytes() + iout.tobytes()).hexdigest()
    return {"output_sha256": digest, "launches": launches}


def run_paper(name: str, engine: str, level: int) -> dict:
    from repro.benchsuite.runner import (_BENCH_MODULES, TESLA,
                                         _checksum, _problems_opt_tiny)

    problem = _problems_opt_tiny()[name]
    hpl.reset_runtime()
    hpl.configure(engine=engine, opt_level=level)
    try:
        run, launches = _profiled(
            lambda: _BENCH_MODULES[name].run_hpl(problem, TESLA))
    finally:
        hpl.configure(engine=None, opt_level=None)
        hpl.reset_runtime()
    return {"checksum": _checksum(run.output), "launches": launches}


@pytest.fixture()
def no_disk_cache():
    """Every build cold, the global cache activation restored after."""
    from repro.hpl import diskcache

    saved = (diskcache._active, diskcache._configured)
    diskcache.configure(cache_dir=None)
    yield
    diskcache._active, diskcache._configured = saved


def _dump(table: dict) -> str:
    """The table as JSON with one case per line."""
    def compact(value):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))

    sections = []
    for key in sorted(table):
        if isinstance(table[key], list):
            sections.append(f" {json.dumps(key)}: {compact(table[key])}")
            continue
        rows = [f"  {json.dumps(name)}: {compact(case)}"
                for name, case in sorted(table[key].items())]
        sections.append(f" {json.dumps(key)}: {{\n" + ",\n".join(rows)
                        + "\n }")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def test_table_covers_paper_apps_and_fuzz_kernels():
    assert TABLE["line_fields"] == LINE_FIELDS
    assert TABLE["branch_fields"] == BRANCH_FIELDS
    assert len(TABLE["paper"]) == 5
    assert len(TABLE["fuzz"]) == 25
    for case in (*TABLE["paper"].values(), *TABLE["fuzz"].values()):
        for level in LEVELS:
            assert case[f"O{level}"]["launches"]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("name", sorted(TABLE.get("paper", ())))
def test_paper_app_matches_golden(name, level, engine, no_disk_cache):
    assert run_paper(name, engine, level) \
        == TABLE["paper"][name][f"O{level}"]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("name", sorted(TABLE.get("fuzz", ())))
def test_fuzz_kernel_matches_golden(name, level, engine, no_disk_cache):
    case = TABLE["fuzz"][name]
    assert run_fuzz(name, case, engine, level) == case[f"O{level}"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    from repro.benchsuite.runner import _problems_opt_tiny
    from repro.hpl import diskcache

    diskcache.configure(cache_dir=None)
    table = {"line_fields": LINE_FIELDS, "branch_fields": BRANCH_FIELDS,
             "paper": {}, "fuzz": fuzz_cases()}
    for name in _problems_opt_tiny():
        table["paper"][name] = {
            f"O{level}": run_paper(name, RECORD_ENGINE, level)
            for level in LEVELS}
    for name, case in table["fuzz"].items():
        for level in LEVELS:
            case[f"O{level}"] = run_fuzz(name, case, RECORD_ENGINE, level)
    GOLDEN.write_text(_dump(table))
    print(f"wrote {len(table['paper'])} paper apps and "
          f"{len(table['fuzz'])} fuzz kernels to {GOLDEN}")
