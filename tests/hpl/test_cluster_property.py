"""Property tests of cluster recovery under random fault plans.

Random plans from the ``FaultPlan`` grammar are crossed with schedule,
``deferred``, checkpointing and probation.  Every example makes two
consecutive ``cluster_eval`` calls on the same arrays, the second one
under the plan, so device-resident results from the first call and the
layout/sync step of the second are exercised too.  The contract:

- the second call (and the gather after it) either reproduces the
  fault-free run's buffer bit for bit, or raises a typed
  ``repro.errors.ReproError`` — never a stray Python exception;
- after the call, whether it succeeded or raised, every
  DistributedArray shares one exact, contiguous, non-overlapping cover
  of ``[0, n)`` (dynamic schedules cut the arrays' blocks mid-run);
- the ``FailureSummary`` of the call equals the deltas of the matching
  ``cluster.*`` counters, whether the call succeeded or not.
"""

from __future__ import annotations

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hpl as hpl
from repro import trace
from repro.errors import DeadlineExceeded, ReproError
from repro.hpl import Float, calibration, cluster_eval, float_
from repro.hpl.cluster import Cluster, DistributedArray
from repro.ocl import faults
from repro.ocl.platform import reset_platform_devices

N = 600

DEVICES = ("Tesla", "Quadro", "Xeon", "*")
OPS = ("kernel", "read", "write", "copy", "marker", "build", "any")

#: FailureSummary field -> (cluster counter, how to count the field)
COUNTERS = {
    "retries": ("cluster.retries", lambda v: v),
    "devices_lost": ("cluster.device_lost", len),
    "requeued_items": ("cluster.requeued_items", lambda v: v),
    "speculative_wins": ("cluster.speculation_wins", lambda v: v),
    "readmitted": ("cluster.readmitted", len),
    "resumed_blocks": ("cluster.resumed_blocks", lambda v: v),
}


def saxpy_part(y, x, a, offset, count):
    y[hpl.idx] = a * x[hpl.idx] + y[hpl.idx]


_transient = st.builds(
    lambda dev, op, select, code: (f"device={dev} kind=transient op={op} "
                                   f"{select} code={code}"),
    st.sampled_from(DEVICES), st.sampled_from(OPS),
    st.one_of(
        st.builds(lambda nth, count: f"nth={nth} count={count}",
                  st.integers(1, 8), st.integers(1, 5)),
        st.builds(lambda p: f"prob={p}",
                  st.sampled_from([0.05, 0.1, 0.2, 0.4]))),
    st.sampled_from(["oor", "oor", "lost"]))
_lost = st.builds(
    lambda dev, op, at: f"device={dev} kind=lost op={op} at={at}",
    st.sampled_from(DEVICES), st.sampled_from(("any", "kernel", "read")),
    st.sampled_from([0, 1e-6, 5e-6, 2e-5]))
_slow = st.builds(
    lambda dev, factor: f"device={dev} kind=slow factor={factor}",
    st.sampled_from(DEVICES), st.sampled_from([2, 8, 64]))

PLANS = st.builds(
    lambda clauses, seed: "; ".join(clauses + [f"seed={seed}"]),
    st.lists(st.one_of(_transient, _lost, _slow), min_size=1,
             max_size=3),
    st.integers(0, 99))

OPTIONS = st.fixed_dictionaries({
    "schedule": st.sampled_from([None, "uniform", "weighted", "dynamic"]),
    "deferred": st.booleans(),
    "checkpoint": st.sampled_from(["off", "write", "resume"]),
    "probation": st.booleans(),
    "watchdog": st.booleans(),
})


def _reset() -> None:
    faults.configure(None)
    calibration().reset()
    reset_platform_devices()
    hpl.reset_runtime()


def _counters() -> dict:
    registry = trace.get_registry()
    return {field: registry.counter(name).value
            for field, (name, _count) in COUNTERS.items()}


def _two_calls(plan, options, ckpt_dir):
    """First call fault-free, second under ``plan``.

    Returns ``(buffer or error, summary, counter deltas, arrays)``.
    """
    _reset()
    c = Cluster(hpl.get_devices())
    rng = np.random.default_rng(5)
    x = DistributedArray(float_, N, c,
                         data=rng.random(N).astype(np.float32))
    y = DistributedArray(float_, N, c,
                         data=rng.random(N).astype(np.float32))
    args = (y, x, Float(2.0))
    common = {"schedule": options["schedule"],
              "deferred": options["deferred"]}
    first = dict(common)
    second = dict(common, probation=options["probation"],
                  watchdog=options["watchdog"] or None)
    if options["checkpoint"] != "off":
        second["checkpoint"] = ckpt_dir
    if options["checkpoint"] == "resume":
        # a first call cut short by its deadline leaves a partial
        # snapshot for the second call to resume under the plan
        first.update(checkpoint=ckpt_dir, deadline=1e-6)
        second["resume"] = True
    try:
        cluster_eval(saxpy_part, c, *args, **first)
    except DeadlineExceeded:
        pass
    faults.configure(plan)
    before = _counters()
    try:
        result = cluster_eval(saxpy_part, c, *args, **second)
        outcome = y.gather()
        summary = result.failures
    except ReproError as exc:
        outcome, summary = exc, hpl.last_failure_summary()
    after = _counters()
    faults.configure(None)
    deltas = {f: after[f] - before[f] for f in COUNTERS}
    return outcome, summary, deltas, (y, x)


def _assert_exact_cover(arrays) -> None:
    bounds = arrays[0].bounds
    assert bounds[0][0] == 0 and bounds[-1][1] == N
    for (alo, ahi), (blo, bhi) in zip(bounds, bounds[1:]):
        assert alo <= ahi == blo <= bhi
    for a in arrays:
        assert a.bounds == bounds
        assert len(a.parts) == len(bounds)
        for (lo, hi), part in zip(bounds, a.parts):
            assert (part is None) == (hi == lo)
            assert part is None or part.size == hi - lo


@settings(max_examples=60, deadline=None)
@given(plan=PLANS, options=OPTIONS)
def test_random_fault_plans_recover_or_fail_typed(plan, options):
    with tempfile.TemporaryDirectory() as clean_dir, \
            tempfile.TemporaryDirectory() as faulty_dir:
        expected, _s, _d, _a = _two_calls(None, options, clean_dir)
        assert isinstance(expected, np.ndarray)
        outcome, summary, deltas, arrays = _two_calls(plan, options,
                                                      faulty_dir)
    _reset()
    if isinstance(outcome, np.ndarray):
        assert np.array_equal(outcome, expected), plan
    _assert_exact_cover(arrays)
    fields = summary.as_dict()
    for field, (_name, count) in COUNTERS.items():
        assert count(fields[field]) == deltas[field], (plan, field)
