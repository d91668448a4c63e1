"""Golden parity table for ``cluster_eval``.

Every case runs one small saxpy problem on the default three-device
cluster and records what an exact reproduction must keep: the simulated
makespan and per-device busy seconds of the returned launches, the
``FailureSummary``, the final partition bounds, the number of launches
and a sha256 of the gathered buffer.  The table in
``cluster_golden.json`` is the contract: scheduling and recovery code
may be restructured freely as long as every case reproduces it bit for
bit (fault plans draw from seeded RNG streams, so launch order matters).

The matrix crosses schedule (``None``, uniform, weighted, dynamic) x
``deferred`` x five fault plans; extra legs cover deadline abort +
checkpoint resume, watchdog speculation, probation readmission and
back-to-back calls that reuse device-resident partitions.

Regenerate (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/hpl/test_cluster_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import repro.hpl as hpl
from repro.errors import ReproError
from repro.hpl import Float, calibration, cluster_eval, float_
from repro.hpl.cluster import Cluster, DistributedArray, timeline_of
from repro.ocl import faults
from repro.ocl.platform import reset_platform_devices

GOLDEN = Path(__file__).with_name("cluster_golden.json")

N = 4000

SCHEDULES = {"none": None, "uniform": "uniform", "weighted": "weighted",
             "dynamic": "dynamic"}

PLANS = {
    "clean": None,
    "storm": "device=* kind=transient op=kernel prob=0.2; seed=3",
    "tesla-exhausted": "device=Tesla kind=transient op=kernel nth=1 "
                       "count=5",
    "quadro-lost": "device=Quadro kind=lost at=1e-6",
    "quadro-slow-flaky": "device=Quadro kind=slow factor=6; "
                         "device=Quadro kind=transient op=kernel nth=1 "
                         "count=2",
}

STRAGGLER = "device=Quadro kind=slow factor=1024"


def saxpy_part(y, x, a, offset, count):
    y[hpl.idx] = a * x[hpl.idx] + y[hpl.idx]


def _reset() -> None:
    faults.configure(None)
    calibration().reset()
    reset_platform_devices()
    hpl.reset_runtime()


def _problem(n=N, seed=11):
    cluster = Cluster(hpl.get_devices())
    rng = np.random.default_rng(seed)
    x = DistributedArray(float_, n, cluster,
                         data=rng.random(n).astype(np.float32))
    y = DistributedArray(float_, n, cluster,
                         data=rng.random(n).astype(np.float32))
    return cluster, (y, x, Float(2.0))


def _timeline(launches) -> dict:
    if not launches:
        return {"makespan": None, "busy": []}
    tl = timeline_of(launches)
    return {"makespan": tl.makespan_seconds,
            "busy": sorted([k, v] for k, v in tl.busy_seconds.items())}


def _call(cluster, args, **kwargs) -> dict:
    """One cluster_eval plus gather, reduced to its golden record."""
    try:
        result = cluster_eval(saxpy_part, cluster, *args, **kwargs)
    except ReproError as exc:
        record = {"error": type(exc).__name__}
        failures = getattr(exc, "failures", None)
        if failures is not None:
            record["failures"] = failures.as_dict()
        partial = getattr(exc, "result", None)
        if partial is not None:
            record["launches"] = len(partial)
            record.update(_timeline(partial))
        return record
    record = {"launches": len(result),
              "failures": result.failures.as_dict(),
              "bounds": [list(b) for b in args[0].bounds]}
    record.update(_timeline(result))
    try:
        out = args[0].gather()
    except ReproError as exc:
        record["gather_error"] = type(exc).__name__
    else:
        record["sha256"] = hashlib.sha256(out.tobytes()).hexdigest()
    return record


def _matrix_case(schedule, deferred, plan):
    def case():
        _reset()
        faults.configure(plan)
        cluster, args = _problem()
        return _call(cluster, args, schedule=schedule, deferred=deferred)
    return case


def _deadline_resume(schedule):
    def case():
        _reset()
        with tempfile.TemporaryDirectory() as ckpt:
            cluster, args = _problem()
            aborted = _call(cluster, args, schedule=schedule,
                            checkpoint=ckpt, deadline=1e-6)
            hpl.reset_runtime()
            cluster, args = _problem()
            resumed = _call(cluster, args, schedule=schedule,
                            checkpoint=ckpt, resume=True)
        return {"aborted": aborted, "resumed": resumed}
    return case


def _watchdog_straggler():
    _reset()
    faults.configure(STRAGGLER)
    cluster, args = _problem(n=20000)
    warm = _call(cluster, args, schedule="dynamic")
    hpl.reset_runtime()
    cluster, args = _problem(n=20000)
    run = _call(cluster, args, schedule="dynamic", watchdog=True)
    return {"warm": warm, "run": run}


def _probation(schedule):
    def case():
        _reset()
        faults.configure("device=Quadro kind=transient code=lost nth=1 "
                         "count=3")
        cluster, args = _problem()
        record = _call(cluster, args, schedule=schedule, probation=True)
        record["roster"] = [d.label for d in cluster.devices]
        return record
    return case


def _resident_reuse():
    _reset()
    cluster, args = _problem()
    first = _call(cluster, args, schedule=None)
    second = _call(cluster, args, schedule=None)
    return {"first": first, "second": second}


CASES = {
    f"{sname}-{'deferred' if deferred else 'eager'}-{pname}":
        _matrix_case(schedule, deferred, plan)
    for sname, schedule in SCHEDULES.items()
    for deferred in (True, False)
    for pname, plan in PLANS.items()
}
CASES.update({
    "deadline-resume-weighted": _deadline_resume("weighted"),
    "deadline-resume-dynamic": _deadline_resume("dynamic"),
    "watchdog-straggler": _watchdog_straggler,
    "probation-dynamic": _probation("dynamic"),
    "probation-uniform": _probation("uniform"),
    "resident-reuse": _resident_reuse,
})


def _canonical(record):
    """JSON round trip, so tuples and lists compare alike."""
    return json.loads(json.dumps(record))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(autouse=True)
def _isolated():
    _reset()
    yield
    _reset()


def test_table_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_matches_golden(name, golden):
    assert _canonical(CASES[name]()) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    table = {name: _canonical(CASES[name]()) for name in sorted(CASES)}
    _reset()
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cases to {GOLDEN}")
