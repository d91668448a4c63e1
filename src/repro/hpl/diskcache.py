"""Persistent, cross-process kernel binary cache.

The paper's runtime "stores internally and reuses the binaries of the
kernels it generates" (§V-B) — but the in-memory ``_captured``/``_compiled``
caches of :mod:`repro.hpl.runtime` die with the process, so every cold
start pays the full clc compile cost again.  This module adds the third
cache layer: a content-addressed on-disk store shared by every process
on the machine, in the spirit of pocl's kernel compiler cache.  An
entry holds what the engines run — a serialized
:class:`~repro.clc.binary.ProgramBinary` (kernel signatures, bytecode
and source), not the compiler's tree.

Key anatomy (see docs/caching.md)::

    sha256("hpl-kernel-cache" \\0 <package version> \\0 <IR schema version>
           \\0 <build options> \\0 <device caps> \\0 <preprocessed source>)

so a cache entry is invalidated automatically by a compiler upgrade, an
IR schema change, different ``-D`` options, a source edit, or a device
capability (fp64) difference.  Entries are written atomically
(temp file + ``os.replace``) so concurrent readers can never observe a
torn blob, eviction runs under an ``flock`` so concurrent benchsuite
processes do not race each other, and the store is LRU size-capped
(mtime is touched on every hit).  A byte tally kept in the lock file
makes a store cost the same however many entries the cache holds: the
store is scanned only when the tally says it may be over the cap.

Every entry the cache writes is sealed: the hex sha256 of its payload
and a newline come first, and a read verifies them before it decodes
anything.  An entry that fails (a flipped bit, a truncation, a payload
that does not decode) is deleted and read as a miss, so the caller
rebuilds and overwrites it.

Enabling the cache::

    import repro.hpl as hpl
    hpl.configure(cache_dir="~/.cache/hpl-kernels")   # or
    $ HPL_CACHE_DIR=~/.cache/hpl-kernels python app.py

Inspection CLI::

    python -m repro.hpl.diskcache {ls,stats,purge} [--cache-dir DIR]

Metrics (process-global registry): ``hpl.disk_cache_hits``,
``hpl.disk_cache_misses``, ``hpl.disk_cache_bytes`` (bytes written) and
``hpl.disk_cache_corrupt`` (entries dropped because they failed their
seal or did not decode; each is also a miss, while an absent file is a
plain miss).
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import threading
import zlib
from pathlib import Path

from .. import trace
from .._version import __version__
from ..clc.binary import IR_SCHEMA_VERSION, ProgramBinary
from ..errors import IRSchemaError

try:                                    # POSIX only; harmless elsewhere
    import fcntl
except ImportError:                     # pragma: no cover - non-POSIX
    fcntl = None

#: environment variables honoured on first use
ENV_CACHE_DIR = "HPL_CACHE_DIR"
ENV_CACHE_MAX_BYTES = "HPL_CACHE_MAX_BYTES"

#: default LRU size cap (generous: entries are a few KB each)
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

_ENTRY_SUFFIX = ".irbin"


def cache_key(preprocessed_source: str, options: str = "",
              device_caps=(), opt_signature: str = "",
              engine_signature: str = "") -> str:
    """Content-addressed key of one compile: sha256 over every input
    that can change the produced IR or its validity on a device.

    ``opt_signature`` (see :func:`repro.clc.passes.opt_signature`)
    identifies the middle-end configuration — opt level, pass-pipeline
    version and bytecode version — because entries store the
    *post-optimization* artifact (signatures + bytecode), not the
    front-end output.  ``engine_signature`` names the execution
    backends the build targets (see
    :func:`repro.ocl.program.engine_signature_of`).
    """
    h = hashlib.sha256()
    for part in ("hpl-kernel-cache", __version__, str(IR_SCHEMA_VERSION),
                 options, repr(tuple(device_caps)), opt_signature,
                 engine_signature, preprocessed_source):
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


class KernelDiskCache:
    """A directory of ``<sha256>.irbin`` entries with LRU eviction."""

    def __init__(self, path, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self.path = Path(path).expanduser()
        self.max_bytes = int(max_bytes)
        if self.max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.path.mkdir(parents=True, exist_ok=True)

    def key_of(self, preprocessed_source: str, options: str = "",
               device_caps=(), opt_signature: str = "",
               engine_signature: str = "") -> str:
        """See :func:`cache_key`."""
        return cache_key(preprocessed_source, options, device_caps,
                         opt_signature, engine_signature)

    # -- internal ----------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        return self.path / (key + _ENTRY_SUFFIX)

    @contextlib.contextmanager
    def _locked(self):
        """Cross-process exclusive lock over mutations of the store;
        yields the descriptor of the lock file, which also holds the
        byte tally.

        After acquiring the flock the lock file's identity is
        re-checked: if another process unlinked and recreated ``.lock``
        while we blocked, our lock lives on an orphaned inode and
        excludes nobody — so close and take the lock again on the
        current file.  (``purge`` never removes ``.lock`` precisely to
        keep this loop from spinning, but a foreign ``rm`` must not
        silently void mutual exclusion either.)
        """
        lock_path = self.path / ".lock"
        while True:
            fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o666)
            try:
                if fcntl is None:       # pragma: no cover - non-POSIX
                    yield fd
                    return
                fcntl.flock(fd, fcntl.LOCK_EX)
                try:
                    current = os.stat(lock_path)
                except OSError:         # unlinked while we blocked
                    continue
                held = os.fstat(fd)
                if (current.st_dev, current.st_ino) \
                        != (held.st_dev, held.st_ino):
                    continue            # recreated: lock the new file
                try:
                    yield fd
                finally:
                    fcntl.flock(fd, fcntl.LOCK_UN)
                return
            finally:
                os.close(fd)

    @staticmethod
    def _registry():
        return trace.get_registry()

    # -- lookup / store ----------------------------------------------------

    def get(self, key: str) -> ProgramBinary | None:
        """The cached program for ``key``, or None (a counted miss).

        A torn, damaged, or schema-mismatched entry is removed and
        counted as corrupt and as a miss — the caller recompiles and
        overwrites it.
        """
        with trace.span("disk_cache_lookup", category="hpl",
                        key=key[:12]) as sp:
            path = self._entry_path(key)
            payload = self._read_sealed(path)
            program = None
            if payload is not None:
                try:
                    program = ProgramBinary.from_bytes(payload)
                except IRSchemaError:
                    self._drop_corrupt(path)
            if program is None:
                self._registry().counter("hpl.disk_cache_misses").inc()
                sp.set_attr("outcome", "miss")
                return None
            self._registry().counter("hpl.disk_cache_hits").inc()
            sp.set_attr("outcome", "hit")
            return program

    def put(self, key: str, program: ProgramBinary) -> None:
        """Store ``program`` under ``key`` atomically, then charge it to
        the byte tally (evicting LRU entries if the store may be over
        the cap)."""
        with trace.span("disk_cache_store", category="hpl",
                        key=key[:12]) as sp:
            blob = seal(program.to_bytes())
            atomic_write(self._entry_path(key), blob)
            self._registry().counter("hpl.disk_cache_bytes").inc(len(blob))
            self._charge(len(blob))
            sp.set_attr("bytes", len(blob))

    # -- sealed files --------------------------------------------------------

    def _read_sealed(self, path: Path) -> bytes | None:
        """The verified payload of ``path``, or None when it is absent
        or damaged (a damaged file is dropped and counted).  A hit marks
        the file recently used for the LRU."""
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        payload = unseal(blob)
        if payload is None:
            self._drop_corrupt(path)
            return None
        with contextlib.suppress(OSError):
            os.utime(path)
        return payload

    def _drop_corrupt(self, path: Path) -> None:
        with contextlib.suppress(OSError):
            path.unlink()
        self._registry().counter("hpl.disk_cache_corrupt").inc()

    # -- size cap ----------------------------------------------------------

    def _charge(self, nbytes: int) -> None:
        """Add a file of ``nbytes`` just written to the byte tally.

        The tally is an upper bound on the bytes the store holds: every
        writer adds what it wrote, while purges, foreign deletions,
        invalid entries dropped by :meth:`get` and overwritten keys
        free space without lowering it.  So the store is scanned — and
        the tally rewritten from the scan — only when the tally is
        missing or unreadable, or when this write would take it over
        the cap; a tally that is too high merely brings that scan
        forward.
        """
        with self._locked() as fd:
            tally = _read_tally(fd)
            if tally is None or tally + nbytes > self.max_bytes:
                tally = self._evict_lru()
            else:
                tally += nbytes
            _write_tally(fd, tally)

    def _evict_lru(self) -> int:
        """Remove oldest entries until the store fits the cap; returns
        the bytes the scanned entries still hold.

        Runs under :meth:`_locked`, but the mtime order was scanned in
        this process and ``get``/``put`` mutate entries without taking
        the lock — so every candidate is re-stat'ed immediately before
        its unlink.  An entry whose mtime moved since the scan was hit
        or overwritten concurrently: it is no longer the LRU victim the
        scan chose, so it survives this round (the next ``put`` evicts
        again if the store is still over the cap).
        """
        entries = self.entries()
        total = sum(size for _k, size, _m in entries)
        # oldest mtime first; stop as soon as we fit under the cap
        for key, size, mtime in sorted(entries, key=lambda e: e[2]):
            if total <= self.max_bytes:
                break
            path = self._entry_path(key)
            try:
                st = path.stat()
            except OSError:             # already gone: freed elsewhere
                total -= size
                continue
            if st.st_mtime != mtime:    # touched/replaced since scan
                continue
            with contextlib.suppress(OSError):
                path.unlink()
                total -= st.st_size
        return total

    # -- inspection --------------------------------------------------------

    def entries(self) -> list[tuple[str, int, float]]:
        """``(key, size_bytes, mtime)`` for every complete entry."""
        out = []
        for path in self.path.glob("*" + _ENTRY_SUFFIX):
            try:
                st = path.stat()
            except OSError:             # raced with an eviction
                continue
            out.append((path.name[:-len(_ENTRY_SUFFIX)],
                        st.st_size, st.st_mtime))
        return out

    def purge(self) -> int:
        """Delete every entry; returns how many were removed.

        Also sweeps stale ``.tmp`` files abandoned by killed writers,
        and clears the byte tally so the next store rescans.  The
        ``.lock`` file itself is never removed: a concurrent
        :meth:`_locked` holder flocks that very inode, and unlinking it
        would let the next locker acquire a *new* file while the old
        holder still believes it has exclusivity.
        """
        removed = 0
        with self._locked() as fd:
            for key, _size, _mtime in self.entries():
                with contextlib.suppress(OSError):
                    self._entry_path(key).unlink()
                    removed += 1
            for stale in self.path.glob(".*.tmp"):
                with contextlib.suppress(OSError):
                    stale.unlink()
            os.ftruncate(fd, 0)
        return removed

    def stats(self) -> dict:
        """Plain-data summary: store contents plus this process's hit,
        miss and corrupt counters."""
        entries = self.entries()
        registry = self._registry()
        return {
            "path": str(self.path),
            "entries": len(entries),
            "total_bytes": sum(size for _k, size, _m in entries),
            "max_bytes": self.max_bytes,
            "hits": registry.counter("hpl.disk_cache_hits").value,
            "misses": registry.counter("hpl.disk_cache_misses").value,
            "corrupt": registry.counter("hpl.disk_cache_corrupt").value,
            "bytes_written": registry.counter("hpl.disk_cache_bytes").value,
        }

    def __repr__(self) -> str:
        return (f"<KernelDiskCache {str(self.path)!r} "
                f"max_bytes={self.max_bytes}>")


def atomic_write(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file in the same
    directory and a rename, so a reader sees the old file or the new
    one, never a torn one.  The temporary name matches ``.*.tmp``, which
    :meth:`KernelDiskCache.purge` sweeps when a killed writer left it."""
    path = Path(path)
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


# -- seals -----------------------------------------------------------------------
#
# A sealed file is the hex sha256 of its payload, a newline, then the
# payload.  The digest is text so that a sealed text payload (a
# checkpoint manifest) stays readable.

_DIGEST_BYTES = 64


def seal(payload: bytes) -> bytes:
    """``payload`` behind its digest and a newline."""
    return hashlib.sha256(payload).hexdigest().encode("ascii") + b"\n" \
        + payload


def unseal(blob: bytes) -> bytes | None:
    """The payload of a blob written by :func:`seal`, or None when the
    blob is truncated or its payload does not match the digest."""
    digest, newline = blob[:_DIGEST_BYTES], blob[_DIGEST_BYTES:][:1]
    payload = blob[_DIGEST_BYTES + 1:]
    if newline != b"\n" or digest != hashlib.sha256(
            payload).hexdigest().encode("ascii"):
        return None
    return payload


# -- byte tally ------------------------------------------------------------------
#
# The lock file starts with a fixed-width record: 20 decimal digits, a
# space, their crc32 in hex and a newline.  It is overwritten in place:
# truncating instead would make ext4 flush the file on close, which
# costs more than the rest of a store.  A record that is short or fails
# its check (a fresh or recreated lock file, a purge, a torn write)
# reads as missing.

_TALLY_BYTES = 30


def _read_tally(fd: int) -> int | None:
    os.lseek(fd, 0, os.SEEK_SET)
    record = os.read(fd, _TALLY_BYTES)
    digits = record[:20]
    if digits.isdigit() and record[20:] == _tally_check(digits):
        return int(digits)
    return None


def _write_tally(fd: int, total: int) -> None:
    digits = b"%020d" % total
    os.lseek(fd, 0, os.SEEK_SET)
    os.write(fd, digits + _tally_check(digits))


def _tally_check(digits: bytes) -> bytes:
    return b" %08x\n" % zlib.crc32(digits)


# -- process-global activation ----------------------------------------------------

_active: KernelDiskCache | None = None
_configured = False
_config_lock = threading.Lock()


def configure(cache_dir=None, max_bytes: int | None = None
              ) -> KernelDiskCache | None:
    """Enable (or, with ``cache_dir=None``, disable) the disk cache.

    Takes precedence over the ``HPL_CACHE_DIR`` environment variable.
    Returns the active :class:`KernelDiskCache`, or None when disabled.
    """
    global _active, _configured
    with _config_lock:
        _configured = True
        if cache_dir is None:
            _active = None
        else:
            _active = KernelDiskCache(
                cache_dir, max_bytes if max_bytes is not None
                else _env_max_bytes())
        return _active


def active_cache() -> KernelDiskCache | None:
    """The process's disk cache: explicit configuration wins, else the
    ``HPL_CACHE_DIR`` environment variable (read once), else None."""
    global _active, _configured
    if _configured:
        return _active
    with _config_lock:
        if not _configured:
            env_dir = os.environ.get(ENV_CACHE_DIR)
            _active = (KernelDiskCache(env_dir, _env_max_bytes())
                       if env_dir else None)
            _configured = True
    return _active


def _env_max_bytes() -> int:
    raw = os.environ.get(ENV_CACHE_MAX_BYTES)
    try:
        return int(raw) if raw else DEFAULT_MAX_BYTES
    except ValueError:
        return DEFAULT_MAX_BYTES


# -- command-line interface --------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    """``python -m repro.hpl.diskcache {ls,stats,purge}``."""
    import argparse
    import datetime
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.hpl.diskcache",
        description="Inspect or manage the persistent HPL kernel cache.")
    parser.add_argument("action", choices=("ls", "stats", "purge"),
                        help="list entries, print a summary, or delete "
                             "every entry")
    parser.add_argument("--cache-dir", default=None,
                        help=f"cache directory (default: ${ENV_CACHE_DIR})")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    ns = parser.parse_args(argv)

    cache_dir = ns.cache_dir or os.environ.get(ENV_CACHE_DIR)
    if not cache_dir:
        parser.error(f"no cache directory: pass --cache-dir or set "
                     f"${ENV_CACHE_DIR}")
    cache = KernelDiskCache(cache_dir, _env_max_bytes())

    if ns.action == "ls":
        entries = sorted(cache.entries(), key=lambda e: e[2], reverse=True)
        if ns.json:
            print(json.dumps([{"key": k, "bytes": s, "mtime": m}
                              for k, s, m in entries], indent=2))
        else:
            for key, size, mtime in entries:
                when = datetime.datetime.fromtimestamp(mtime) \
                    .strftime("%Y-%m-%d %H:%M:%S")
                print(f"{key}  {size:>8} B  {when}")
            print(f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'}")
    elif ns.action == "stats":
        stats = cache.stats()
        if ns.json:
            print(json.dumps(stats, indent=2))
        else:
            for key, value in stats.items():
                print(f"{key:>14}: {value}")
    else:                               # purge
        removed = cache.purge()
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.path}")
    return 0


if __name__ == "__main__":              # pragma: no cover - exercised via CLI
    raise SystemExit(main())
