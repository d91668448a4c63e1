"""Versioned, content-addressed cluster checkpoints.

A :class:`CheckpointStore` persists the host buffers of every
:class:`~repro.hpl.cluster.DistributedArray` in a ``cluster_eval``
together with the list of completed blocks, so a killed run can be
resumed (``cluster_eval(checkpoint=dir, resume=True)``) and reproduce
bit-identical results without recomputing finished work.  See
``docs/resilience.md``.

Layout of a checkpoint directory::

    MANIFEST.json           sealed, versioned metadata + blob references
    objects/<sha256>.bin    content-addressed array snapshots

Writes are crash-safe the way the persistent kernel cache's are
(:func:`~repro.hpl.diskcache.atomic_write`): every file is written to a
temporary name in its final directory and atomically renamed into
place, blobs strictly before the manifest that references them — so a
reader (or a resumed run) only ever observes a complete, self-consistent
snapshot, never a torn one.  Blobs are named by the SHA-256 of their
contents, which makes re-writing an unchanged array free and lets
:meth:`load` detect corruption byte-for-byte.  The manifest is sealed
with the SHA-256 of its JSON (:func:`~repro.hpl.diskcache.seal`), so an
edited completed-block list cannot make a resume skip work it never
did.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

import numpy as np

from ..errors import CheckpointError
from .diskcache import atomic_write, seal, unseal

#: bump when the manifest schema changes; older snapshots are rejected
#: (a resumed run recomputes from scratch rather than misreading them)
FORMAT_VERSION = 2

MANIFEST = "MANIFEST.json"

_SHA256 = re.compile(r"[0-9a-f]{64}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_shape(manifest: dict, path: str) -> None:
    """Raise :class:`CheckpointError` unless the manifest's blob and
    completed-block lists have the shape :meth:`load` reads."""
    blobs, completed = manifest.get("blobs"), manifest.get("completed")
    if not (isinstance(blobs, list) and all(
            isinstance(b, dict) and isinstance(b.get("sha256"), str)
            and _SHA256.fullmatch(b["sha256"])
            and isinstance(b.get("dtype"), str) and _is_int(b.get("size"))
            for b in blobs)):
        raise CheckpointError(f"checkpoint manifest {path} has a "
                              "malformed blob list")
    if not (isinstance(completed, list) and all(
            isinstance(c, list) and len(c) == 2
            and all(_is_int(x) for x in c) for c in completed)):
        raise CheckpointError(f"checkpoint manifest {path} has a "
                              "malformed completed-block list")


class CheckpointStore:
    """Snapshot/restore of one run's distributed host buffers.

    ``run_id`` is a JSON-compatible dict identifying the computation
    (kernel name, problem size, array dtypes); :meth:`load` returns
    ``None`` — a fresh start, not an error — when the directory holds
    no snapshot or one from a *different* run, and raises
    :class:`~repro.errors.CheckpointError` only for a snapshot that
    claims to match but cannot be trusted (a damaged, unsealed or
    malformed manifest, wrong format version, missing blob, contents
    not matching their digest).
    """

    def __init__(self, directory) -> None:
        self.directory = os.fspath(directory)
        self.objects = os.path.join(self.directory, "objects")
        os.makedirs(self.objects, exist_ok=True)

    def _blob_path(self, sha: str) -> str:
        return os.path.join(self.objects, f"{sha}.bin")

    def save(self, run_id: dict, arrays, completed) -> int:
        """Persist the arrays + completed block list; bytes written.

        Unchanged arrays cost nothing beyond the digest: their blob
        already exists under its content address.
        """
        blobs = []
        written = 0
        for arr in arrays:
            arr = np.ascontiguousarray(arr)
            data = arr.tobytes()
            sha = hashlib.sha256(data).hexdigest()
            path = self._blob_path(sha)
            if not os.path.exists(path):
                atomic_write(path, data)
                written += len(data)
            blobs.append({"sha256": sha, "dtype": str(arr.dtype),
                          "size": int(arr.size)})
        manifest = {
            "version": FORMAT_VERSION,
            "run": run_id,
            "completed": [[int(lo), int(hi)] for lo, hi in completed],
            "blobs": blobs,
        }
        sealed = seal(json.dumps(manifest, sort_keys=True).encode())
        atomic_write(os.path.join(self.directory, MANIFEST), sealed)
        return written + len(sealed)

    def load(self, run_id: dict):
        """The snapshot for ``run_id``: ``(arrays, completed)`` or None.

        ``arrays`` are fresh host ndarrays in manifest order;
        ``completed`` is the list of ``(lo, hi)`` finished blocks.
        """
        path = os.path.join(self.directory, MANIFEST)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return None
        payload = unseal(raw)
        if payload is None:
            raise CheckpointError(f"checkpoint manifest {path} is damaged "
                                  "or unsealed (it fails its sha256)")
        try:
            manifest = json.loads(payload)
        except ValueError as exc:
            raise CheckpointError(
                f"checkpoint manifest {path} is not valid JSON") from exc
        if not isinstance(manifest, dict) \
                or manifest.get("version") != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint manifest {path} has format version "
                f"{manifest.get('version') if isinstance(manifest, dict) else '?'}, "
                f"this build reads version {FORMAT_VERSION}")
        if manifest.get("run") != run_id:
            return None     # someone else's snapshot: start fresh
        _check_shape(manifest, path)
        arrays = []
        for blob in manifest["blobs"]:
            bpath = self._blob_path(blob["sha256"])
            try:
                with open(bpath, "rb") as fh:
                    data = fh.read()
            except FileNotFoundError as exc:
                raise CheckpointError(
                    f"checkpoint blob {blob['sha256']} referenced by "
                    f"{path} is missing") from exc
            if hashlib.sha256(data).hexdigest() != blob["sha256"]:
                raise CheckpointError(
                    f"checkpoint blob {blob['sha256']} is corrupt "
                    "(contents do not match their content address)")
            try:
                arr = np.frombuffer(data, dtype=blob["dtype"]).copy()
            except (TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"checkpoint blob {blob['sha256']} cannot be read as "
                    f"dtype {blob['dtype']!r}") from exc
            if arr.size != blob["size"]:
                raise CheckpointError(
                    f"checkpoint blob {blob['sha256']} holds {arr.size} "
                    f"element(s), manifest expects {blob['size']}")
            arrays.append(arr)
        completed = [(int(lo), int(hi))
                     for lo, hi in manifest["completed"]]
        return arrays, completed
