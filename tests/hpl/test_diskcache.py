"""Persistent cross-process kernel binary cache (repro.hpl.diskcache)."""

import json
import os
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro.hpl as hpl
from repro import trace
from repro.benchsuite.common import child_env, run_child
from repro.benchsuite.runner import _opt_pipeline_child
from repro.clc import compile_source
from repro.clc.binary import _MAGIC, IR_SCHEMA_VERSION, ProgramBinary
from repro.clc.passes import optimize_program
from repro.errors import IRSchemaError
from repro.hpl import Array, Float, float_, idx, reset_runtime
from repro.hpl.diskcache import (KernelDiskCache, active_cache, cache_key,
                                 main, seal, unseal)

SOURCE = """
__kernel void scale(__global float* y, float a) {
    int i = get_global_id(0);
    y[i] = y[i] * a;
}
"""


@pytest.fixture()
def disk_cache(tmp_path):
    """A configured disk cache; global activation restored afterwards."""
    from repro.hpl import diskcache

    saved = (diskcache._active, diskcache._configured)
    cache = hpl.configure(cache_dir=tmp_path / "kernels")
    yield cache
    diskcache._active, diskcache._configured = saved


def _counter(name):
    return trace.get_registry().counter(name).value


def _binary(source=SOURCE):
    """What ``Program.build`` stores for ``source`` at -O2."""
    return ProgramBinary.from_ir(
        optimize_program(compile_source(source), 2))


def _entry_bytes(binary):
    """Size of the sealed file ``put`` writes for ``binary``."""
    return len(seal(binary.to_bytes()))


def _tampered_schema(binary):
    doc = json.loads(zlib.decompress(binary.to_bytes()[len(_MAGIC):]))
    assert doc[0] == IR_SCHEMA_VERSION
    doc[0] = IR_SCHEMA_VERSION + 1
    return _MAGIC + zlib.compress(json.dumps(doc).encode("utf-8"))


def _farray(n=64, value=3.0):
    a = Array(float_, n)
    a.data[:] = np.float32(value)
    return a


def _scale_kernel():
    def scale(y, a):
        y[idx] = y[idx] * a

    return scale


# -- artifact serialization ---------------------------------------------------

class TestIRSerialization:
    def test_roundtrip_preserves_compiled_program(self):
        binary = _binary()
        clone = ProgramBinary.from_bytes(binary.to_bytes())
        assert isinstance(clone, ProgramBinary)
        assert sorted(clone.kernels) == sorted(binary.kernels)
        assert clone.to_bytes() == binary.to_bytes()

    def test_bad_magic_rejected(self):
        with pytest.raises(IRSchemaError, match="magic"):
            ProgramBinary.from_bytes(b"NOTIR" + b"x" * 32)

    def test_truncated_blob_rejected(self):
        blob = _binary().to_bytes()
        with pytest.raises(IRSchemaError):
            ProgramBinary.from_bytes(blob[: len(blob) // 2])

    def test_schema_version_mismatch_rejected_not_crash(self):
        with pytest.raises(IRSchemaError, match="schema"):
            ProgramBinary.from_bytes(_tampered_schema(_binary()))


# -- seals --------------------------------------------------------------------

class TestSeal:
    def test_round_trip(self):
        assert unseal(seal(b"payload")) == b"payload"
        assert unseal(seal(b"")) == b""

    @pytest.mark.parametrize("damage", [
        lambda b: b[:-1], lambda b: b[:64], lambda b: b"", lambda b: b[1:],
        lambda b: b.replace(b"*", b"+"),
        lambda b: b[:64] + b" " + b[65:]],
        ids=["short", "digest-only", "empty", "shifted", "edited",
             "no-newline"])
    def test_damage_detected(self, damage):
        assert unseal(damage(seal(b"R[1] * R[2]"))) is None


# -- the store itself ---------------------------------------------------------

class TestKernelDiskCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = KernelDiskCache(tmp_path)
        binary = _binary()
        key = cache.key_of(SOURCE, "", ("fp64",))
        corrupt = _counter("hpl.disk_cache_corrupt")
        assert cache.get(key) is None        # absent: a plain miss
        assert _counter("hpl.disk_cache_corrupt") == corrupt
        cache.put(key, binary)
        assert cache._entry_path(key).stat().st_size == _entry_bytes(binary)
        hit = cache.get(key)
        assert hit == binary
        assert hit.to_bytes() == binary.to_bytes()

    def test_key_sensitive_to_every_input(self):
        base = cache_key(SOURCE, "", ("fp64",))
        assert cache_key(SOURCE + " ", "", ("fp64",)) != base
        assert cache_key(SOURCE, "-DN=4", ("fp64",)) != base
        assert cache_key(SOURCE, "", ("nofp64",)) != base

    def test_corrupt_entry_is_dropped_and_counted_as_miss(self, tmp_path):
        cache = KernelDiskCache(tmp_path)
        key = cache.key_of(SOURCE)
        entry = cache._entry_path(key)
        entry.write_bytes(b"torn garbage, not an IR blob")
        misses = _counter("hpl.disk_cache_misses")
        corrupt = _counter("hpl.disk_cache_corrupt")
        assert cache.get(key) is None
        assert _counter("hpl.disk_cache_misses") == misses + 1
        assert _counter("hpl.disk_cache_corrupt") == corrupt + 1
        assert not entry.exists()

    def test_damaged_entry_is_dropped_and_counted(self, tmp_path):
        cache = KernelDiskCache(tmp_path)
        key = cache.key_of(SOURCE)
        cache.put(key, _binary())
        entry = cache._entry_path(key)
        blob = bytearray(entry.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        entry.write_bytes(bytes(blob))
        corrupt = _counter("hpl.disk_cache_corrupt")
        assert cache.get(key) is None
        assert _counter("hpl.disk_cache_corrupt") == corrupt + 1
        assert not entry.exists()

    def test_stale_schema_entry_invalidated(self, tmp_path):
        cache = KernelDiskCache(tmp_path)
        binary = _binary()
        key = cache.key_of(SOURCE)
        cache._entry_path(key).write_bytes(seal(_tampered_schema(binary)))
        corrupt = _counter("hpl.disk_cache_corrupt")
        assert cache.get(key) is None        # rejected, not crashed
        assert _counter("hpl.disk_cache_corrupt") == corrupt + 1
        assert not cache._entry_path(key).exists()
        cache.put(key, binary)               # caller recompiles + overwrites
        assert cache.get(key) is not None

    def test_lru_eviction_drops_oldest(self, tmp_path):
        ir = _binary()
        entry_size = _entry_bytes(ir)
        cache = KernelDiskCache(tmp_path, max_bytes=3 * entry_size)
        keys = [cache.key_of(SOURCE, f"-DV={i}") for i in range(5)]
        for i, key in enumerate(keys):
            cache.put(key, ir)
            os.utime(cache._entry_path(key), (i, i))  # deterministic ages
        kept = {k for k, _s, _m in cache.entries()}
        assert kept == set(keys[2:])         # two oldest evicted
        assert sum(s for _k, s, _m in cache.entries()) <= cache.max_bytes

    def test_hit_refreshes_lru_position(self, tmp_path):
        ir = _binary()
        entry_size = _entry_bytes(ir)
        cache = KernelDiskCache(tmp_path, max_bytes=2 * entry_size)
        a, b = (cache.key_of(SOURCE, f"-DV={i}") for i in "ab")
        cache.put(a, ir)
        cache.put(b, ir)
        os.utime(cache._entry_path(a), (1, 1))
        os.utime(cache._entry_path(b), (2, 2))
        now = time.time()
        assert cache.get(a) is not None      # touch: a becomes newest
        assert cache._entry_path(a).stat().st_mtime >= now - 60
        cache.put(cache.key_of(SOURCE, "-DV=c"), ir)
        kept = {k for k, _s, _m in cache.entries()}
        assert a in kept and b not in kept

    def test_purge_and_stats(self, tmp_path):
        cache = KernelDiskCache(tmp_path)
        cache.put(cache.key_of(SOURCE), _binary())
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0
        assert cache.purge() == 1
        assert cache.stats()["entries"] == 0


# -- concurrency --------------------------------------------------------------

class TestConcurrentWriters:
    def test_threaded_writers_never_tear_reads(self, tmp_path):
        cache = KernelDiskCache(tmp_path)
        ir = _binary()
        key = cache.key_of(SOURCE)
        blob = ir.to_bytes()
        errors = []

        def hammer():
            try:
                for _ in range(25):
                    cache.put(key, ir)
                    got = cache.get(key)
                    # every read sees a complete blob or a clean miss
                    if got is not None and got.to_bytes() != blob:
                        errors.append("torn read")
            except Exception as exc:       # noqa: BLE001 - fail the test
                errors.append(repr(exc))

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_process_writers_never_tear_reads(self, tmp_path):
        script = (
            "import sys\n"
            "from repro.clc import compile_source\n"
            "from repro.clc.binary import ProgramBinary\n"
            "from repro.clc.passes import optimize_program\n"
            "from repro.hpl.diskcache import KernelDiskCache\n"
            f"src = {SOURCE!r}\n"
            "ir = ProgramBinary.from_ir(\n"
            "    optimize_program(compile_source(src), 2))\n"
            "blob = ir.to_bytes()\n"
            f"cache = KernelDiskCache({str(tmp_path)!r})\n"
            "key = cache.key_of(src)\n"
            "for _ in range(20):\n"
            "    cache.put(key, ir)\n"
            "    got = cache.get(key)\n"
            "    assert got is None or got.to_bytes() == blob\n"
            "print('ok')\n"
        )
        procs = [subprocess.Popen([sys.executable, "-c", script],
                                  env=child_env(), text=True,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE)
                 for _ in range(4)]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert out.strip() == "ok"


# -- runtime integration ------------------------------------------------------

class TestRuntimeIntegration:
    def test_fresh_runtime_reuses_disk_entry(self, disk_cache,
                                             fresh_runtime):
        compiles = _counter("clc.compiles")
        hits = _counter("hpl.disk_cache_hits")
        hpl.eval(_scale_kernel())(_farray(value=3.0), Float(2.0))
        assert _counter("clc.compiles") == compiles + 1

        reset_runtime()                     # in-memory caches gone
        a = _farray(value=3.0)
        hpl.eval(_scale_kernel())(a, Float(2.0))
        assert _counter("clc.compiles") == compiles + 1   # no recompile
        assert _counter("hpl.disk_cache_hits") >= hits + 1
        np.testing.assert_allclose(a.data, 6.0)

    def test_stats_facade_exposes_disk_counters(self, disk_cache,
                                                fresh_runtime):
        from repro.hpl import get_runtime

        hpl.eval(_scale_kernel())(_farray(), Float(2.0))
        stats = get_runtime().stats
        assert stats.disk_cache_misses >= 1
        assert stats.disk_cache_bytes > 0

    def test_key_of_a_cached_hpl_kernel_is_pinned(self, disk_cache,
                                                  fresh_runtime):
        """Entries written by earlier versions keep hitting: the key of
        an HPL kernel's entry is a pinned hash of its preprocessed
        source, options, device caps, opt and engine signatures.  A
        deliberate change of one of those updates this value."""
        def saxpy(y, x, a):
            y[idx] = a * x[idx] + y[idx]

        hpl.eval(saxpy)(_farray(8), _farray(8), Float(2.0))
        assert sorted(p.name for p in disk_cache.path.glob("*.irbin")) \
            == ["462268655ccdda6f25af482cb8c54fe2"
                "1534ef9d99bff18bd995b1584666787c.irbin"]

    def test_disabled_cache_still_compiles(self, tmp_path, fresh_runtime):
        from repro.hpl import diskcache

        saved = (diskcache._active, diskcache._configured)
        try:
            hpl.configure(cache_dir=None)
            a = _farray(value=5.0)
            hpl.eval(_scale_kernel())(a, Float(2.0))
            np.testing.assert_allclose(a.data, 10.0)
        finally:
            diskcache._active, diskcache._configured = saved


# -- one preprocess per build -------------------------------------------------

BROKEN = """
__kernel void scale(__global float* y, float a) {
    int i = get_global_id(0);
    y[i] = y[i] * a +;
}
"""


@pytest.fixture()
def preprocess_calls(monkeypatch):
    """Count preprocess calls wherever the build path looks it up."""
    import repro.clc
    import repro.ocl.program

    calls = []
    for module in (repro.clc, repro.ocl.program):
        real = module.preprocess

        def spy(*args, _real=real, **kwargs):
            calls.append(args[0])
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "preprocess", spy)
    return calls


def _build(source):
    import repro.ocl as cl

    ctx = cl.Context([cl.Device(cl.TESLA_C2050, "jit")])
    return cl.Program(ctx, source).build()


class TestPreprocessOnce:
    def test_cold_build_with_disk_cache(self, disk_cache, preprocess_calls):
        compiles = _counter("clc.compiles")
        _build(SOURCE)
        assert _counter("clc.compiles") == compiles + 1
        assert len(preprocess_calls) == 1   # the key's text is compiled

    def test_warm_build_with_disk_cache(self, disk_cache, preprocess_calls):
        _build(SOURCE)
        compiles = _counter("clc.compiles")
        _build(SOURCE)
        assert _counter("clc.compiles") == compiles
        assert len(preprocess_calls) == 2

    def test_cold_build_without_disk_cache(self, preprocess_calls):
        from repro.hpl import diskcache

        saved = (diskcache._active, diskcache._configured)
        try:
            hpl.configure(cache_dir=None)
            _build(SOURCE)
        finally:
            diskcache._active, diskcache._configured = saved
        assert len(preprocess_calls) == 1

    def test_compile_error_keeps_line_and_col(self, disk_cache):
        from repro.errors import BuildProgramFailure, CompileError

        with pytest.raises(CompileError) as direct:
            compile_source(BROKEN)
        with pytest.raises(BuildProgramFailure) as built:
            _build(BROKEN)
        cause = built.value.__cause__
        assert isinstance(cause, CompileError)
        assert (cause.line, cause.col) == (direct.value.line,
                                           direct.value.col) == (4, 22)
        assert str(cause) == str(direct.value)


# -- cross-process reuse ------------------------------------------------------

class TestCrossProcessReuse:
    def test_second_process_hits_and_skips_compile(self, tmp_path):
        # the five paper benchmarks at tiny sizes, one fresh process each
        cold, warm = (json.loads(run_child(
            _opt_pipeline_child, {"tiny": True},
            env={"HPL_CACHE_DIR": tmp_path}, timeout=120).stdout)
            for _ in range(2))
        assert cold["clc_compiles"] == 5
        assert cold["disk_cache_hits"] == 0
        assert cold["disk_cache_misses"] == 5

        assert warm["clc_compiles"] == 0     # served entirely from disk
        assert warm["disk_cache_hits"] == 5
        assert warm["disk_cache_misses"] == 0
        # the jit engine compiles hot kernels in memory and writes
        # nothing of its own next to the entries
        assert cold["engine"] == warm["engine"] == "jit"
        assert len(list(tmp_path.glob("*.irbin"))) == 5
        assert {p.name for p in tmp_path.iterdir()
                if p.suffix != ".irbin"} == {".lock"}
        assert warm["verified"]
        assert ({n: b["checksum"] for n, b in warm["benchmarks"].items()}
                == {n: b["checksum"] for n, b in cold["benchmarks"].items()})


# -- CLI ----------------------------------------------------------------------

class TestCLI:
    def test_ls_stats_purge(self, tmp_path, capsys):
        cache = KernelDiskCache(tmp_path)
        key = cache.key_of(SOURCE)
        cache.put(key, _binary())

        assert main(["ls", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert key in out and "1 entry" in out

        assert main(["stats", "--cache-dir", str(tmp_path),
                     "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1

        assert main(["purge", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1 entry" in capsys.readouterr().out
        assert cache.entries() == []

    def test_missing_cache_dir_errors(self, monkeypatch):
        monkeypatch.delenv("HPL_CACHE_DIR", raising=False)
        with pytest.raises(SystemExit):
            main(["ls"])

    def test_env_var_activates_cache(self, tmp_path, monkeypatch):
        from repro.hpl import diskcache

        saved = (diskcache._active, diskcache._configured)
        try:
            diskcache._active, diskcache._configured = None, False
            monkeypatch.setenv("HPL_CACHE_DIR", str(tmp_path))
            cache = active_cache()
            assert cache is not None
            assert cache.path == tmp_path
        finally:
            diskcache._active, diskcache._configured = saved


# -- lock lifecycle -----------------------------------------------------------

class TestLockLifecycle:
    def test_purge_keeps_lock_file(self, tmp_path):
        cache = KernelDiskCache(tmp_path)
        cache.put(cache.key_of(SOURCE), _binary())
        with cache._locked():
            pass                        # materializes .lock
        assert (tmp_path / ".lock").exists()
        assert cache.purge() == 1
        # the flock target must survive: a concurrent _locked() holder
        # has this very inode locked, and replacing it would let two
        # processes hold "the" lock at once
        assert (tmp_path / ".lock").exists()
        assert cache.entries() == []

    def test_purge_sweeps_stale_tmp_files(self, tmp_path):
        cache = KernelDiskCache(tmp_path)
        stale = tmp_path / ".deadbeef.1234.5678.tmp"
        stale.write_bytes(b"abandoned by a killed writer")
        cache.purge()
        assert not stale.exists()

    def test_locked_reacquires_after_foreign_unlink(self, tmp_path,
                                                    monkeypatch):
        # a foreign `rm .lock` + recreate while we block on flock must
        # not void mutual exclusion: we would hold an orphaned inode
        # while the next locker flocks the new file.  Provoke exactly
        # that window and check _locked() retries onto the new file.
        from repro.hpl import diskcache

        cache = KernelDiskCache(tmp_path)
        lock = tmp_path / ".lock"
        real_flock = diskcache.fcntl.flock
        raced = {"n": 0}

        def racy_flock(fd, op):
            if op == diskcache.fcntl.LOCK_EX and raced["n"] == 0:
                raced["n"] += 1
                # our fd keeps the old inode alive, so the recreated
                # file is guaranteed to be a different inode
                lock.unlink()
                lock.write_bytes(b"")
            return real_flock(fd, op)

        monkeypatch.setattr(diskcache.fcntl, "flock", racy_flock)
        entered = False
        with cache._locked():
            entered = True
        assert entered and raced["n"] == 1
        assert lock.exists()

    def test_eviction_skips_entry_touched_after_scan(self, tmp_path,
                                                     monkeypatch):
        # a same-key store that lands between the eviction scan and the
        # unlink refreshes the entry's mtime; eviction must re-stat and
        # leave the fresh entry alone
        cache = KernelDiskCache(tmp_path, max_bytes=1)
        key = cache.key_of(SOURCE)
        blob_path = tmp_path / (key + ".irbin")
        cache.put(key, _binary())   # evicts itself (cap=1B)
        assert not blob_path.exists()

        blob_path.write_bytes(seal(_binary().to_bytes()))
        os.utime(blob_path, (1.0, 1.0))

        real_entries = cache.entries

        def entries_then_touch():
            scanned = real_entries()
            # concurrent writer replaces the entry before the unlink
            os.utime(blob_path, (2.0, 2.0))
            return scanned

        monkeypatch.setattr(cache, "entries", entries_then_touch)
        with cache._locked():
            cache._evict_lru()
        assert blob_path.exists()       # re-stat saw the newer mtime

    def test_eviction_tolerates_entry_removed_after_scan(self, tmp_path,
                                                         monkeypatch):
        cache = KernelDiskCache(tmp_path, max_bytes=1)
        key = cache.key_of(SOURCE)
        blob_path = tmp_path / (key + ".irbin")
        blob_path.write_bytes(seal(_binary().to_bytes()))

        real_entries = cache.entries

        def entries_then_remove():
            scanned = real_entries()
            blob_path.unlink()          # concurrent purge got it first
            return scanned

        monkeypatch.setattr(cache, "entries", entries_then_remove)
        with cache._locked():
            cache._evict_lru()          # must not raise
        assert real_entries() == []


# -- byte tally: constant-cost stores under the size cap -----------------------

def _store_bytes(path):
    """Bytes held by entries, as a scan would count them."""
    return sum(p.stat().st_size for p in Path(path).glob("*.irbin"))


def _tally(path):
    from repro.hpl.diskcache import _read_tally

    fd = os.open(Path(path) / ".lock", os.O_RDONLY)
    try:
        return _read_tally(fd)
    finally:
        os.close(fd)


def _tally_record(total):
    return b"%020d %08x\n" % (total, zlib.crc32(b"%020d" % total))


def _count_scans(cache, monkeypatch):
    """Count the store scans ``cache`` makes from now on."""
    scans = {"n": 0}
    real = cache.entries

    def counted():
        scans["n"] += 1
        return real()

    monkeypatch.setattr(cache, "entries", counted)
    return scans


class TestByteTally:
    def test_stores_below_the_cap_do_not_scan(self, tmp_path, monkeypatch):
        cache = KernelDiskCache(tmp_path)
        ir = _binary()
        scans = _count_scans(cache, monkeypatch)
        for i in range(12):
            cache.put(cache.key_of(SOURCE, f"-DV={i}"), ir)
        assert scans["n"] == 1               # the first store: no tally yet
        assert _tally(tmp_path) == _store_bytes(tmp_path)

    def test_cap_holds_over_many_puts_with_a_small_cap(self, tmp_path):
        ir = _binary()
        entry = _entry_bytes(ir)
        cache = KernelDiskCache(tmp_path, max_bytes=entry * 7 // 2)
        for i in range(40):
            cache.put(cache.key_of(SOURCE, f"-DV={i}"), ir)
            on_disk = _store_bytes(tmp_path)
            assert on_disk <= cache.max_bytes
            assert _tally(tmp_path) >= on_disk
        assert len(cache.entries()) >= 2     # evicts the oldest, not all

    @pytest.mark.parametrize("content", [
        None, b"", _tally_record(123)[:12], b"garbage\n",
        _tally_record(123).replace(b"123", b"999"), _tally_record(-5),
        b"\n" * 30],
        ids=["missing", "empty", "torn", "garbage", "bad-check",
             "negative", "blank"])
    def test_missing_or_corrupt_tally_rescans(self, tmp_path, monkeypatch,
                                              content):
        cache = KernelDiskCache(tmp_path)
        ir = _binary()
        cache.put(cache.key_of(SOURCE, "-DV=a"), ir)
        lock = tmp_path / ".lock"
        if content is None:
            lock.unlink()
        else:
            lock.write_bytes(content)
        scans = _count_scans(cache, monkeypatch)
        cache.put(cache.key_of(SOURCE, "-DV=b"), ir)
        assert scans["n"] == 1
        assert _tally(tmp_path) == _store_bytes(tmp_path)

    def test_tally_over_the_cap_triggers_an_exact_rescan(self, tmp_path,
                                                        monkeypatch):
        cache = KernelDiskCache(tmp_path, max_bytes=10**6)
        ir = _binary()
        cache.put(cache.key_of(SOURCE, "-DV=a"), ir)
        (tmp_path / ".lock").write_bytes(_tally_record(10**6 - 10))
        scans = _count_scans(cache, monkeypatch)
        cache.put(cache.key_of(SOURCE, "-DV=b"), ir)
        assert scans["n"] == 1
        assert len(cache.entries()) == 2     # nothing had to go
        assert _tally(tmp_path) == _store_bytes(tmp_path)

    def test_purge_resets_the_tally(self, tmp_path, monkeypatch):
        cache = KernelDiskCache(tmp_path)
        ir = _binary()
        for i in range(3):
            cache.put(cache.key_of(SOURCE, f"-DV={i}"), ir)
        assert _tally(tmp_path) > 0
        assert cache.purge() == 3
        assert _tally(tmp_path) is None
        scans = _count_scans(cache, monkeypatch)
        cache.put(cache.key_of(SOURCE, "-DV=new"), ir)
        assert scans["n"] == 1
        assert _tally(tmp_path) == _store_bytes(tmp_path) == _entry_bytes(ir)

    def test_overwrites_and_dropped_entries_only_raise_the_tally(
            self, tmp_path):
        cache = KernelDiskCache(tmp_path)
        ir = _binary()
        key = cache.key_of(SOURCE)
        for _ in range(3):
            cache.put(key, ir)               # same key: one file on disk
        cache._entry_path(key).write_bytes(b"torn")
        assert cache.get(key) is None        # dropped as invalid
        assert _tally(tmp_path) == 3 * _entry_bytes(ir)
        assert _store_bytes(tmp_path) == 0

    def test_foreign_deletions_never_let_the_store_exceed_the_cap(
            self, tmp_path):
        # another process deleting entries leaves the tally too high,
        # which only brings the next rescan forward
        ir = _binary()
        entry = _entry_bytes(ir)
        cache = KernelDiskCache(tmp_path, max_bytes=4 * entry)
        for i in range(30):
            cache.put(cache.key_of(SOURCE, f"-DV={i}"), ir)
            if i % 4 == 1:
                for path in sorted(tmp_path.glob("*.irbin"))[:2]:
                    path.unlink()
            on_disk = _store_bytes(tmp_path)
            assert on_disk <= cache.max_bytes
            assert _tally(tmp_path) >= on_disk

    def test_concurrent_process_writers_respect_the_cap(self, tmp_path):
        ir = _binary()
        cap = 5 * _entry_bytes(ir)
        script = (
            "import sys\n"
            "from repro.clc import compile_source\n"
            "from repro.clc.binary import ProgramBinary\n"
            "from repro.clc.passes import optimize_program\n"
            "from repro.hpl.diskcache import KernelDiskCache\n"
            f"src = {SOURCE!r}\n"
            "ir = ProgramBinary.from_ir(\n"
            "    optimize_program(compile_source(src), 2))\n"
            f"cache = KernelDiskCache({str(tmp_path)!r}, max_bytes={cap})\n"
            "for i in range(15):\n"
            "    cache.put(cache.key_of(src, f'-DW={sys.argv[1]}.{i}'), ir)\n"
        )
        procs = [subprocess.Popen([sys.executable, "-c", script, str(n)],
                                  env=child_env(), text=True,
                                  stderr=subprocess.PIPE)
                 for n in range(4)]
        for proc in procs:
            _out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        on_disk = _store_bytes(tmp_path)
        assert 0 < on_disk <= cap
        assert _tally(tmp_path) >= on_disk
