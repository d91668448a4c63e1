"""Deadline watchdog, speculation, checkpoint/resume, probation.

The resilience invariant mirrors the fault-tolerance one: whatever the
watchdog speculates, the deadline aborts, or a resume skips, the final
gathered results are bit-identical to the fault-free run.
"""

from __future__ import annotations

import hashlib
import json
import re
import signal

import numpy as np
import pytest

import repro.hpl as hpl
from repro import trace
from repro.benchsuite import runner
from repro.benchsuite.common import run_child
from repro.errors import (CheckpointError, ClusterExecutionError,
                          CLError, DeadlineExceeded)
from repro.hpl import CheckpointStore, Float, calibration, cluster_eval, float_
from repro.hpl.cluster import (Cluster, DistributedArray, DynamicScheduler,
                               _backoff_delay)
from repro.hpl.diskcache import seal, unseal
from repro.ocl import faults
from repro.ocl.platform import reset_platform_devices
from tests.conftest import ENGINE_LEGS

N = 20000
STRAGGLER = "device=Quadro kind=slow factor=1024"


@pytest.fixture(autouse=True)
def _fresh(fresh_runtime):
    calibration().reset()
    faults.configure(None)
    yield
    faults.configure(None)
    calibration().reset()
    reset_platform_devices()
    hpl.reset_runtime()


def saxpy_part(y, x, a, offset, count):
    y[hpl.idx] = a * x[hpl.idx] + y[hpl.idx]


def _problem(cluster, n=N, seed=11):
    rng = np.random.default_rng(seed)
    xd = rng.random(n).astype(np.float32)
    yd = rng.random(n).astype(np.float32)
    x = DistributedArray(float_, n, cluster, data=xd)
    y = DistributedArray(float_, n, cluster, data=yd)
    return (y, x, Float(2.0)), yd


def _expected(n=N, seed=11):
    faults.configure(None)
    hpl.reset_runtime()
    c = Cluster(hpl.get_devices())
    args, _ = _problem(c, n, seed)
    cluster_eval(saxpy_part, c, *args)
    out = args[0].gather()
    hpl.reset_runtime()
    return out


def _run(plan, schedule, n=N, **kwargs):
    hpl.reset_runtime()
    faults.configure(plan)
    c = Cluster(hpl.get_devices())
    args, _ = _problem(c, n)
    result = cluster_eval(saxpy_part, c, *args, schedule=schedule,
                          **kwargs)
    out = args[0].gather()
    faults.configure(None)
    return out, result, c


class TestSeededJitter:
    """Satellite: deterministic full jitter on the retry backoff."""

    def test_keyless_delays_are_the_legacy_exact_values(self):
        assert _backoff_delay(1e-4, 0) == pytest.approx(1e-4)
        assert _backoff_delay(1e-4, 1) == pytest.approx(2e-4)

    def test_keyed_delay_is_jittered_but_positive(self):
        plain = _backoff_delay(1e-4, 1)
        jittered = _backoff_delay(1e-4, 1, key=("dev", 0, 100, 1))
        assert 0 < jittered <= plain
        assert jittered != plain

    def test_jitter_is_reproducible_per_plan_seed(self):
        key = ("SimCL Tesla#0", 0, 500, 2)
        faults.configure("device=Nothing kind=slow factor=1; seed=7")
        first = _backoff_delay(1e-4, 2, key=key)
        assert _backoff_delay(1e-4, 2, key=key) == first
        faults.configure("device=Nothing kind=slow factor=1; seed=8")
        other = _backoff_delay(1e-4, 2, key=key)
        assert other != first
        faults.configure("device=Nothing kind=slow factor=1; seed=7")
        assert _backoff_delay(1e-4, 2, key=key) == first

    def test_different_keys_decorrelate(self):
        a = _backoff_delay(1e-4, 1, key=("dev", 0, 100, 1))
        b = _backoff_delay(1e-4, 1, key=("dev", 100, 200, 1))
        assert a != b


def _warm_then_run(schedule="dynamic", plan=STRAGGLER, **kwargs):
    """One calibration warm-up run under ``plan``, then a measured one.

    The watchdog is predictive: it needs the calibration history the
    warm-up records before it can flag the straggler.
    """
    faults.configure(plan)
    hpl.reset_runtime()
    c = Cluster(hpl.get_devices())
    args, _ = _problem(c)
    cluster_eval(saxpy_part, c, *args, schedule=schedule)
    hpl.reset_runtime()
    c = Cluster(hpl.get_devices())
    args, _ = _problem(c)
    result = cluster_eval(saxpy_part, c, *args, schedule=schedule,
                          **kwargs)
    out = args[0].gather()
    faults.configure(None)
    return out, result


class TestWatchdogSpeculation:
    def test_straggler_chunks_are_speculated_and_results_exact(self):
        registry = trace.get_registry()
        launches0 = registry.counter(
            "cluster.speculative_launches").value
        wins0 = registry.counter("cluster.speculation_wins").value
        cancelled0 = registry.counter("cluster.cancelled_events").value
        out, result = _warm_then_run(watchdog=True)
        f = result.failures
        assert f.speculative_wins > 0
        assert not f.clean
        assert registry.counter(
            "cluster.speculative_launches").value > launches0
        assert registry.counter(
            "cluster.speculation_wins").value > wins0
        # the losers' event graphs really were torn down
        assert registry.counter(
            "cluster.cancelled_events").value > cancelled0
        assert np.array_equal(out, _expected())

    def test_without_watchdog_no_speculation_happens(self):
        registry = trace.get_registry()
        before = registry.counter("cluster.speculative_launches").value
        out, result = _warm_then_run(watchdog=None)
        assert result.failures.speculative_wins == 0
        assert registry.counter(
            "cluster.speculative_launches").value == before
        assert np.array_equal(out, _expected())

    def test_watchdog_on_a_healthy_cluster_never_fires(self):
        out, result = _warm_then_run(plan=None, watchdog=True)
        assert result.failures.speculative_wins == 0
        assert result.failures.clean
        assert np.array_equal(out, _expected())

    @pytest.mark.parametrize("engine", ENGINE_LEGS)
    def test_cancelled_losers_never_mutate_buffers(self, engine):
        # differential: with speculation firing, every engine must
        # produce bits identical to its own fault-free run — if a
        # cancelled loser's payload ever ran, the double-execute would
        # corrupt the accumulating y
        hpl.configure(engine=engine)
        try:
            expected = _expected()
            calibration().reset()
            out, result = _warm_then_run(watchdog=True)
            assert result.failures.speculative_wins > 0
            assert np.array_equal(out, expected)
        finally:
            hpl.configure(engine=None)


class TestDeadline:
    def test_tight_deadline_raises_with_partial_result(self):
        with pytest.raises(DeadlineExceeded) as info:
            _run(None, "dynamic", deadline=1e-6)
        exc = info.value
        assert exc.failures.deadline_missed
        assert not exc.failures.clean
        assert exc.result is not None
        _out, full, _c = _run(None, "dynamic")
        assert len(exc.result) < len(full)          # partial, not full

    @pytest.mark.parametrize("schedule", ["uniform", "dynamic"])
    def test_generous_deadline_never_fires(self, schedule):
        out, result, _c = _run(None, schedule, deadline=1e3)
        assert not result.failures.deadline_missed
        assert result.failures.clean
        assert np.array_equal(out, _expected())


def _manifest(directory) -> dict:
    """The JSON payload of a checkpoint directory's sealed manifest."""
    return json.loads(unseal((directory / "MANIFEST.json").read_bytes()))


def _reseal_manifest(directory, edit) -> None:
    """Apply ``edit`` to the manifest and seal it again, as a writer
    that knows the format would."""
    manifest = _manifest(directory)
    edit(manifest)
    (directory / "MANIFEST.json").write_bytes(
        seal(json.dumps(manifest).encode()))


class TestCheckpointResume:
    @pytest.mark.parametrize("schedule", ["dynamic", "weighted"])
    def test_deadline_abort_then_resume_is_bit_identical(
            self, schedule, tmp_path):
        with pytest.raises(DeadlineExceeded):
            _run(None, schedule, checkpoint=tmp_path,
                 deadline=1e-6)
        out, result, _c = _run(None, schedule, checkpoint=tmp_path,
                               resume=True)
        assert result.failures.resumed_blocks > 0
        assert not result.failures.clean
        assert np.array_equal(out, _expected())

    def test_resume_of_a_complete_run_computes_nothing(self, tmp_path):
        _run(None, "dynamic", checkpoint=tmp_path)
        out, result, _c = _run(None, "dynamic", checkpoint=tmp_path,
                               resume=True)
        assert len(result) == 0             # every block was restored
        assert result.failures.resumed_blocks > 0
        assert np.array_equal(out, _expected())

    def test_checkpoint_bytes_metric_and_clean_flag(self, tmp_path):
        registry = trace.get_registry()
        before = registry.counter("cluster.checkpoint_bytes").value
        _out, result, _c = _run(None, "dynamic", checkpoint=tmp_path)
        assert registry.counter(
            "cluster.checkpoint_bytes").value > before
        assert result.failures.clean        # checkpointing is not a fault

    def test_foreign_snapshot_is_ignored_not_resumed(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"kernel": "someone_else", "n": 3,
                    "arrays": ["float32"]},
                   [np.zeros(3, np.float32)], [(0, 3)])
        out, result, _c = _run(None, "dynamic", checkpoint=tmp_path,
                               resume=True)
        assert result.failures.resumed_blocks == 0
        assert np.array_equal(out, _expected())

    def test_corrupt_blob_raises_checkpoint_error(self, tmp_path):
        _run(None, "dynamic", checkpoint=tmp_path)
        # corrupt a blob the final manifest references (the objects/
        # dir also holds stale content-addressed snapshots from the
        # intermediate saves, which load never reads)
        sha = _manifest(tmp_path)["blobs"][0]["sha256"]
        (tmp_path / "objects" / f"{sha}.bin").write_bytes(b"garbage")
        with pytest.raises(CheckpointError):
            _run(None, "dynamic", checkpoint=tmp_path, resume=True)

    def test_incompatible_version_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"k": 1}, [np.zeros(2, np.float32)], [(0, 2)])
        _reseal_manifest(tmp_path, lambda m: m.update(version=999))
        with pytest.raises(CheckpointError, match="format version 999"):
            store.load({"k": 1})

    def test_edited_completed_list_raises_not_a_wrong_buffer(
            self, tmp_path):
        # widening the completed blocks of an aborted run by hand once
        # made the resume launch nothing and return 10,808 of 20,000
        # elements never computed
        with pytest.raises(DeadlineExceeded):
            _run(None, "dynamic", checkpoint=tmp_path, deadline=1e-6)
        path = tmp_path / "MANIFEST.json"
        text = path.read_text()
        edited = re.sub(r'"completed": \[[^"]*\]\]',
                        f'"completed": [[0, {N}]]', text)
        assert edited != text
        path.write_text(edited)
        with pytest.raises(CheckpointError, match="sha256"):
            _run(None, "dynamic", checkpoint=tmp_path, resume=True)

    @pytest.mark.parametrize("edit", [
        lambda m: m.pop("blobs"),
        lambda m: m.update(completed=[5]),
        lambda m: m["blobs"].__setitem__(0, 7),
        lambda m: m["blobs"][0].update(dtype="nope"),
        lambda m: m["blobs"][0].update(dtype="O"),
    ], ids=["no-blobs", "completed-int", "blob-int", "dtype-nope",
            "dtype-object"])
    def test_malformed_manifest_raises_checkpoint_error(self, tmp_path,
                                                        edit):
        run_id = {"k": 1}
        CheckpointStore(tmp_path).save(
            run_id, [np.arange(4, dtype=np.float32)], [(0, 4)])
        _reseal_manifest(tmp_path, edit)
        with pytest.raises(CheckpointError):
            CheckpointStore(tmp_path).load(run_id)


class TestKillAndResume:
    def test_sigkilled_run_resumes_bit_identically(self, tmp_path):
        ckpt_dir = tmp_path / "ckpt"
        kwargs = {"ckpt_dir": str(ckpt_dir), "n": 4096, "iters": 2}
        no_faults = {"HPL_FAULTS": None}
        first = run_child(runner._resilience_child,
                          {"mode": "kill", **kwargs}, env=no_faults,
                          timeout=120, returncode=-signal.SIGKILL)
        assert first.returncode == -signal.SIGKILL
        assert first.stdout == ""           # it really died mid-run
        assert (ckpt_dir / "MANIFEST.json").exists()

        second = run_child(runner._resilience_child,
                           {"mode": "resume", **kwargs}, env=no_faults,
                           timeout=120)
        resumed = json.loads(second.stdout)
        assert resumed["resumed_blocks"] >= 1

        hpl.reset_runtime()                 # the fault-free reference
        c = Cluster(hpl.get_devices())
        y = DistributedArray(float_, 4096, c)
        x = DistributedArray(float_, 4096, c,
                             data=runner._resilience_data(4096))
        cluster_eval(runner._make_res_kernel(2), c, y, x, Float(0.5),
                     schedule="dynamic")
        expected = hashlib.sha256(y.gather().tobytes()).hexdigest()
        assert resumed["digest"] == expected


class TestProbationReadmission:
    def test_transiently_lost_device_is_probed_back(self):
        # the device dies with DeviceLost for its first 3 matching ops
        # (launch + two failed probes), then heals: probation readmits
        # it mid-run with decayed calibration
        registry = trace.get_registry()
        probes0 = registry.counter("cluster.probes").value
        readmit0 = registry.counter("cluster.readmitted").value
        out, result, c = _run(
            "device=Quadro kind=transient code=lost nth=1 count=3",
            "dynamic", probation=True, probe_interval=1)
        f = result.failures
        assert "SimCL Quadro FX 380#1" in f.devices_lost
        assert "SimCL Quadro FX 380#1" in f.readmitted
        assert not f.clean
        assert registry.counter("cluster.probes").value > probes0
        assert registry.counter(
            "cluster.readmitted").value > readmit0
        assert any(d.label == "SimCL Quadro FX 380#1"
                   for d in c.devices)
        assert np.array_equal(out, _expected())

    def test_readmitted_device_calibration_is_decayed(self):
        _run(None, "dynamic")       # record calibration for everyone
        quadro = "SimCL Quadro FX 380#1"
        before = calibration().throughput("saxpy_part", quadro)
        assert before
        _run("device=Quadro kind=transient code=lost nth=1 count=2",
             "dynamic", probation=True, probe_interval=1)
        after = calibration().throughput("saxpy_part", quadro)
        assert after < before

    def test_device_readmitted_into_a_new_rank_keeps_measured_units(
            self):
        # the Quadro is lost in one call, so the next starts without it
        # and readmits it mid-run into a new rank: its weight must be
        # its decayed *measured* items/s like everyone else's, not a
        # spec estimate eight orders of magnitude smaller
        hpl.reset_runtime()
        c = Cluster(hpl.get_devices())
        quadro = "SimCL Quadro FX 380#1"
        for plan in (None, "device=Quadro kind=lost at=0"):
            faults.configure(plan)
            args, _ = _problem(c)
            cluster_eval(saxpy_part, c, *args, schedule="dynamic")
        assert [d.label for d in c.lost] == [quadro]
        faults.configure(None)
        args, _ = _problem(c)
        result = cluster_eval(saxpy_part, c, *args, probation=True,
                              probe_interval=1,
                              schedule=DynamicScheduler(min_chunk=1))
        assert quadro in result.failures.readmitted
        sizes = [hi - lo for (lo, hi), r in zip(args[0].bounds, result)
                 if r.kernel_event.device_label == quadro]
        assert sizes and max(sizes) > 1
        assert np.array_equal(args[0].gather(), _expected())

    @pytest.mark.parametrize("schedule", ["uniform", "dynamic"])
    def test_all_devices_lost_is_fatal_after_probes_fail(
            self, schedule):
        # permanent loss: probes can never revive anyone, so the
        # all-lost path must still end in ClusterExecutionError
        registry = trace.get_registry()
        probes0 = registry.counter("cluster.probes").value
        with pytest.raises(ClusterExecutionError):
            _run("device=* kind=lost at=0", schedule, probation=True,
                 probe_interval=1)
        assert registry.counter("cluster.probes").value > probes0

    def test_without_probation_all_lost_fails_without_probing(self):
        registry = trace.get_registry()
        probes0 = registry.counter("cluster.probes").value
        with pytest.raises(ClusterExecutionError):
            _run("device=* kind=lost at=0", "dynamic")
        assert registry.counter("cluster.probes").value == probes0


class TestGatherDeviceLoss:
    def test_device_loss_during_gather_d2h_raises(self):
        hpl.reset_runtime()
        c = Cluster(hpl.get_devices())
        args, _ = _problem(c)
        cluster_eval(saxpy_part, c, *args)
        # results now live on the devices; the Tesla dies before its
        # d2h transfer, so the gather cannot produce complete data
        faults.configure("device=Tesla kind=lost op=read at=0")
        with pytest.raises(CLError):
            args[0].gather()


class TestFailureSummaryDict:
    def test_as_dict_has_all_resilience_fields(self):
        _out, result, _c = _run(None, "dynamic")
        d = result.failures.as_dict()
        for key in ("transient_failures", "retries", "backoff_seconds",
                    "devices_lost", "requeued_items",
                    "speculative_wins", "deadline_missed",
                    "resumed_blocks", "readmitted", "clean"):
            assert key in d
        assert d["clean"] is True
