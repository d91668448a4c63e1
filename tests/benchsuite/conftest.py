"""Fixtures for the benchsuite tests: one recorded CLI run."""

from __future__ import annotations

import contextlib
import io
import os

import pytest

from repro.benchsuite.runner import main as bench_main
from repro.hpl import reset_runtime


@pytest.fixture(scope="session")
def recorded_run(tmp_path_factory):
    """``benchsuite ep cluster-faults cluster-lb --record``: ``(record
    path, stdout)``.  Run once, in a scratch directory, because the
    cluster targets write their ``BENCH_*.json`` artifacts into the
    working directory."""
    workdir = tmp_path_factory.mktemp("recorded_run")
    path = str(workdir / "run.jsonl")
    cwd, out = os.getcwd(), io.StringIO()
    os.chdir(workdir)
    try:
        reset_runtime()
        with contextlib.redirect_stdout(out):
            assert bench_main(["ep", "cluster-faults", "cluster-lb",
                               "--record", path]) == 0
    finally:
        os.chdir(cwd)
        reset_runtime()
    return path, out.getvalue()
