"""Golden bytecode table: what the engines run, on both build paths.

``bytecode_golden.json`` records, for the kernels HPL generates for the
five paper benchmarks and for 25 kernels of the differential fuzzer, at
-O0 and -O2, every function's signature (parameter names and types,
return type, ``is_kernel``, ``local_arrays``, ``uses_barrier``,
``uses_fp64``) and the sha256 of its disassembled bytecode.  A program
built cold and the same program served from the persistent kernel
cache must both match it: the cache may change how it stores a
program, never what the engines execute.

Regenerate (only for an intended change to lowering) with::

    PYTHONPATH=src:. python tests/clc/test_bytecode_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

import repro.ocl as cl
from repro import trace
from repro.clc.lower import disassemble

GOLDEN = Path(__file__).with_name("bytecode_golden.json")

#: the committed table (empty while ``--write`` builds it)
TABLE = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}

LEVELS = (0, 2)


def corpus() -> dict:
    """``{name: source}`` of every program the table covers."""
    from tests.clc.corpus import fuzz_sources, paper_sources

    sources = {f"paper/{k}": v for k, v in paper_sources().items()}
    sources.update(fuzz_sources(25))
    return sources


def build(source: str, level: int):
    """``Program.build`` of ``source`` at ``-O<level>`` on a Tesla
    running the jit engine; returns what the program holds for the
    engines."""
    device = cl.Device(cl.TESLA_C2050, "jit")
    program = cl.Program(cl.Context([device]), source)
    return program.build(f"-O{level}").ir


def record(artifact) -> dict:
    """Per-function signature and bytecode digest of a built program."""
    out = {}
    for name in sorted(artifact.functions):
        fn = artifact.functions[name]
        listing = disassemble(artifact.bytecode.functions[name])
        out[name] = {
            "params": [[p.name, str(p.type)] for p in fn.params],
            "return": str(fn.return_type),
            "is_kernel": fn.is_kernel,
            "local_arrays": list(fn.local_arrays),
            "uses_barrier": fn.uses_barrier,
            "uses_fp64": fn.uses_fp64,
            "bytecode_sha256": hashlib.sha256(
                listing.encode("utf-8")).hexdigest(),
        }
    return out


@pytest.fixture()
def disk_cache(tmp_path):
    """A configured disk cache; global activation restored afterwards."""
    from repro.hpl import diskcache

    saved = (diskcache._active, diskcache._configured)
    diskcache.configure(cache_dir=tmp_path / "kernels")
    yield
    diskcache._active, diskcache._configured = saved


def _counter(name):
    return trace.get_registry().counter(name).value


def test_table_covers_paper_apps_and_fuzz_kernels():
    assert sum(n.startswith("paper/") for n in TABLE["programs"]) == 5
    assert sum(n.startswith("fuzz/") for n in TABLE["programs"]) == 25


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("name", sorted(TABLE.get("programs", ())))
def test_cold_build_and_cache_hit_match_golden(name, level, disk_cache):
    case = TABLE["programs"][name]
    want = case[f"O{level}"]

    misses = _counter("hpl.disk_cache_misses")
    assert record(build(case["source"], level)) == want
    assert _counter("hpl.disk_cache_misses") == misses + 1

    hits, compiles = _counter("hpl.disk_cache_hits"), _counter("clc.compiles")
    assert record(build(case["source"], level)) == want
    assert _counter("hpl.disk_cache_hits") == hits + 1
    assert _counter("clc.compiles") == compiles


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    from repro.hpl import diskcache

    diskcache.configure(cache_dir=None)
    programs = {}
    for name, source in corpus().items():
        programs[name] = {"source": source}
        for level in LEVELS:
            programs[name][f"O{level}"] = record(build(source, level))
    GOLDEN.write_text(json.dumps({"programs": programs}, indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {len(programs)} programs to {GOLDEN}")
