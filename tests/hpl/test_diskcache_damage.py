"""Damaged persistent files become a counted miss or a typed error,
never a wrong buffer.

Every ``.irbin`` entry is sealed with the sha256 of its payload.  An
entry that fails the seal or does not decode is deleted, counted in
``hpl.disk_cache_corrupt`` and rebuilt, so a rebuild after any damage
computes exactly what a fault-free run does.  A damaged ``.lock`` byte
tally makes the store rescan, so it stays under its cap.  A damaged
checkpoint manifest or blob makes a resumed ``cluster_eval`` raise
:class:`~repro.errors.CheckpointError`.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.hpl as hpl
from repro import trace
from repro.errors import CheckpointError, DeadlineExceeded
from repro.hpl import Array, float_, idx, reset_runtime
from repro.hpl.cluster import Cluster, DistributedArray
from repro.hpl.diskcache import unseal


def affine(y, x):
    y[idx] = x[idx] * 3.0 + 1.0


EXPECTED = np.array([1, 4, 7, 10], np.float32)


def _run() -> np.ndarray:
    x = Array(float_, 4)
    x.data[:] = np.arange(4, dtype=np.float32)
    y = Array(float_, 4)
    hpl.eval(affine)(y, x)
    return y.data.copy()


def _corrupt() -> int:
    return trace.get_registry().counter("hpl.disk_cache_corrupt").value


@pytest.fixture()
def configured():
    """Restores the process-wide cache and engine configuration."""
    from repro.hpl import diskcache

    saved = (diskcache._active, diskcache._configured)
    reset_runtime()
    yield
    hpl.configure(engine=None)
    diskcache._active, diskcache._configured = saved
    reset_runtime()


def test_absent_files_are_plain_misses(tmp_path, configured):
    hpl.configure(cache_dir=tmp_path, engine="jit")
    corrupt = _corrupt()
    np.testing.assert_array_equal(_run(), EXPECTED)
    for path in tmp_path.glob("*.*"):
        path.unlink()
    reset_runtime()
    np.testing.assert_array_equal(_run(), EXPECTED)
    assert _corrupt() == corrupt


# -- property: any bit flip or truncation of any cache file -----------------

_damage = st.one_of(
    st.tuples(st.just("flip"), st.floats(0, 1, exclude_max=True),
              st.integers(0, 7)),
    st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True),
              st.just(0)))


def _damaged(blob: bytes, damage) -> bytes:
    kind, where, bit = damage
    at = int(where * len(blob))
    if kind == "truncate":
        return blob[:at]
    out = bytearray(blob)
    out[at] ^= 1 << bit
    return bytes(out)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(engine=st.sampled_from(["serial", "jit-interp", "jit-compiled"]),
       damage=_damage)
def test_damaged_cache_file_gives_the_fault_free_output(
        configured, engine, damage):
    with tempfile.TemporaryDirectory() as cache_dir:
        hpl.configure(cache_dir=cache_dir, engine=engine)
        reset_runtime()
        np.testing.assert_array_equal(_run(), EXPECTED)
        (path,) = Path(cache_dir).glob("*.irbin")
        path.write_bytes(_damaged(path.read_bytes(), damage))

        reset_runtime()
        corrupt = _corrupt()
        np.testing.assert_array_equal(_run(), EXPECTED)
        assert _corrupt() == corrupt + 1

        reset_runtime()                # the rebuilt file is sound
        np.testing.assert_array_equal(_run(), EXPECTED)
        assert _corrupt() == corrupt + 1


# -- property: a damaged byte tally is rescanned, the cap still holds --------

def _scaled(factor: float):
    def kernel(y, x):
        y[idx] = x[idx] * factor + 1.0
    kernel.__name__ = f"scaled_{int(factor)}"
    return kernel


def _scaled_run(factor: float) -> np.ndarray:
    x = Array(float_, 4)
    x.data[:] = np.arange(4, dtype=np.float32)
    y = Array(float_, 4)
    hpl.eval(_scaled(factor))(y, x)
    return y.data.copy()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(damage=_damage)
def test_damaged_tally_rescans_and_keeps_the_cap(configured, damage):
    with tempfile.TemporaryDirectory() as cache_dir:
        store = Path(cache_dir)
        hpl.configure(cache_dir=cache_dir, engine="jit")
        reset_runtime()
        _scaled_run(2.0)
        (entry,) = store.glob("*.irbin")
        cap = entry.stat().st_size * 5 // 2
        hpl.configure(cache_dir=cache_dir, max_bytes=cap)
        lock = store / ".lock"
        lock.write_bytes(_damaged(lock.read_bytes(), damage))

        for factor in (3.0, 4.0, 5.0, 2.0):
            reset_runtime()
            np.testing.assert_array_equal(
                _scaled_run(factor),
                np.arange(4, dtype=np.float32) * factor + 1.0)
            on_disk = sum(p.stat().st_size for p in store.glob("*.irbin"))
            assert on_disk <= cap


# -- property: a damaged checkpoint resumes exactly or raises ---------------

N = 20000


def saxpy_part(y, x, a, offset, count):
    y[idx] = a * x[idx] + y[idx]


def _cluster_run(checkpoint, **kwargs) -> np.ndarray:
    reset_runtime()
    cluster = Cluster(hpl.get_devices())
    rng = np.random.default_rng(11)
    x = DistributedArray(float_, N, cluster,
                         data=rng.random(N).astype(np.float32))
    y = DistributedArray(float_, N, cluster,
                         data=rng.random(N).astype(np.float32))
    hpl.cluster_eval(saxpy_part, cluster, y, x, hpl.Float(2.0),
                     schedule="dynamic", checkpoint=checkpoint, **kwargs)
    return y.gather()


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(target=st.sampled_from(["manifest", "blob"]), damage=_damage)
def test_damaged_checkpoint_resumes_exactly_or_raises(
        configured, target, damage):
    with tempfile.TemporaryDirectory() as directory:
        expected = _cluster_run(None)
        with pytest.raises(DeadlineExceeded):
            _cluster_run(directory, deadline=1e-6)
        manifest = Path(directory) / "MANIFEST.json"
        path = manifest
        if target == "blob":
            blobs = json.loads(unseal(manifest.read_bytes()))["blobs"]
            path = Path(directory) / "objects" / f"{blobs[0]['sha256']}.bin"
        path.write_bytes(_damaged(path.read_bytes(), damage))
        try:
            out = _cluster_run(directory, resume=True)
        except CheckpointError:
            return
        np.testing.assert_array_equal(out, expected)
