"""Self-test of the traced run's per-layer ledger and of BENCHMARK.json."""

import json
from collections import Counter
from pathlib import Path

import pytest

import kernelgen
import layers
import run
import workloads
from repro import hpl


@pytest.fixture
def traced(tmp_path):
    """A tracer that has recorded a set-up and a few compile, restart
    and cluster ops."""
    tracer = layers.Tracer()
    hpl.configure(cache_dir=str(tmp_path))
    try:
        tracer.install()
        with tracer.root(layers.SETUP_ROOT):
            workloads.warm_up(hpl)
        for i in range(3):
            op = workloads._generated_op(hpl, kernelgen.generate(11, i),
                                         kernelgen.inputs(11, i))
            with tracer.root(layers.OP_ROOT, i):
                out = op.run()
            assert op.check(out)[0]
        hpl.reset_runtime()
        with tracer.root(layers.OP_ROOT, 3):
            op.run()                    # served from the disk cache
        tracer.uninstall()
    finally:
        hpl.configure(cache_dir=None)
    return tracer


def test_self_times_sum_to_each_root(traced):
    spans = traced.spans
    own = traced.self_ns()
    root_of = []
    for index, (_name, start, end, parent, _op) in enumerate(spans):
        assert end >= start and own[index] >= 0
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
        root_of.append(index if parent < 0 else root_of[parent])
    totals = Counter()
    for index, root in enumerate(root_of):
        totals[root] += own[index]
    roots = [i for i, span in enumerate(spans) if span[3] < 0]
    assert len(roots) == 5
    for root in roots:
        inclusive = spans[root][2] - spans[root][1]
        assert abs(totals[root] - inclusive) <= 0.01 * inclusive


def test_every_layer_is_exercised(traced):
    metrics = layers.per_layer_metrics(traced, [1, 2], [1, 2])
    for layer in layers.REPORTED_LAYERS:
        assert metrics[layer + ".calls"][0] > 0, layer
    assert metrics["clc.compiles"][0] > 0
    assert metrics["hpl.diskcache.hit_ratio"][0] > 0
    assert metrics["run.trace_overhead"][0] == 1.0


def test_uninstall_restores_every_attribute(traced):
    assert traced.missing == []
    assert len(traced.targets) == len(layers.LAYERS)
    for owner, name, original in traced.targets:
        assert vars(owner)[name] is original
    traced.install()
    try:
        for owner, name, original in traced.targets:
            assert vars(owner)[name] is not original
    finally:
        traced.uninstall()
    for owner, name, original in traced.targets:
        assert vars(owner)[name] is original


def test_missing_targets_are_reported_not_raised():
    tracer = layers.Tracer(table=(
        ("a", "repro.hpl.runtime", "NoSuchClass.method", None),
        ("b", "repro.hpl.runtime", "no_such_function", None),
        ("c", "no_such_module_for_the_ledger", "f", None),
        ("d", "repro.hpl.runtime", "get_runtime", None),
    ))
    assert len(tracer.missing) == 3
    tracer.install()
    tracer.uninstall()
    assert len(tracer.targets) == 1


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parents[2]
                       / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} \
        == set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == layers.per_layer_metric_units()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
