"""The benchmark's four workloads (README.md says why each exists).

Every workload is a closed loop with one client, like an HPL
application: it calls into the program, waits for the read-back result,
checks it against an independent NumPy oracle and only then issues the
next op.  A workload runs in phases:

``imports()``  imports the program — timed, part of set-up;
``prepare()``  makes the seeded inputs and reference outputs — not timed;
``setup()``    creates the runtime, warms every layer up and fills caches
               — timed, part of set-up;
``op(i)``      returns op ``i`` (ops are requested in order) as an
               :class:`Op`: ``run()`` is timed from the call to the
               read-back result, ``check(out)`` compares that result
               with the oracle and returns ``(ok, sim)``, where ``sim``
               is the op's simulated-clock record.
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path
from typing import Callable

import numpy as np

import kernelgen

#: generated kernels the shared warm-up compiles
WARM_UP_KERNELS = 3
#: kernels (paper apps included) in the compile-restart pool
POOL_SIZE = 200
#: elements of the cluster-iter arrays
CLUSTER_ELEMENTS = 1 << 14
CLUSTER_SCHEDULES = ("uniform", "weighted", "dynamic")
CLUSTER_FAULTS = "device=* kind=transient op=kernel prob=0.02; seed={seed}"


@dataclasses.dataclass
class Op:
    run: Callable
    check: Callable


def cluster_eval(*args, **kwargs):
    """The benchmark's call site into ``repro.hpl.cluster_eval``; the
    traced run wraps this name."""
    from repro.hpl import cluster_eval as evaluate
    return evaluate(*args, **kwargs)


def cluster_kernel(y, x, a, offset, count):
    from repro.hpl import idx, sqrt
    y[idx] = a * sqrt(x[idx] * x[idx] + 1.0) + x[idx]


def cluster_twin(x, a):
    return np.float32(a) * np.sqrt(x * x + np.float32(1.0)) + x


def _eval_sim(result) -> tuple:
    return (result.kernel_seconds, result.transfer_seconds,
            dataclasses.astuple(result.kernel_event.counters))


def _generated_op(hpl, spec, data) -> Op:
    kernel = kernelgen.build(spec)
    fa, fb, ia = data
    n = fa.shape[0]

    def run():
        fo = hpl.Array(hpl.float_, n)
        io = hpl.Array(hpl.int_, n)
        result = hpl.eval(kernel)(
            fo, io, hpl.Array(hpl.float_, n, data=fa),
            hpl.Array(hpl.float_, n, data=fb),
            hpl.Array(hpl.int_, n, data=ia))
        return result, fo.read().copy(), io.read().copy()

    def check(out):
        result, fo, io = out
        return (kernelgen.matches(spec, fa, fb, ia, fo, io),
                _eval_sim(result))

    return Op(run, check)


# -- the paper's five applications ----------------------------------------------


@dataclasses.dataclass
class PaperApp:
    name: str
    run_hpl: Callable
    problem: object
    reference: object
    matches: Callable


def _ep_matches(out, ref) -> bool:
    (sx, sy, q), (rx, ry, rq) = out, ref
    return (abs(sx - rx) < 1e-6 * max(1.0, abs(rx))
            and abs(sy - ry) < 1e-6 * max(1.0, abs(ry))
            and np.array_equal(q, rq))


def _sum_matches(out, ref) -> bool:
    return abs(float(out) - ref) <= 1e-3 * abs(ref)


def _spmv_matches(out, ref) -> bool:
    return bool(np.allclose(out, ref, rtol=1e-4, atol=1e-5))


def _paper_apps(seed: int, large: bool, references: bool) -> list:
    """The five paper apps on seeded inputs: ``large`` are the
    exec-paper sizes, otherwise the smallest inputs.  The references
    come from ``repro.benchsuite.datasets``."""
    from repro.benchsuite import datasets as ds
    from repro.benchsuite.ep import driver as ep
    from repro.benchsuite.floyd import driver as floyd
    from repro.benchsuite.reduction import driver as reduction
    from repro.benchsuite.spmv import driver as spmv
    from repro.benchsuite.transpose import driver as transpose

    base = 1000 * seed
    ep_p = ep.ep_problem("S") if large else ep.ep_problem("S", shift=14)
    floyd_p = floyd.floyd_problem(n_run=128 if large else 16,
                                  seed=base + 1)
    tr_p = transpose.transpose_problem(n_run=1024 if large else 16,
                                       seed=base + 2)
    spmv_p = spmv.spmv_problem(n_run=16384 if large else 64,
                               seed=base + 3)
    red_p = reduction.reduction_problem(n_run=1 << 22 if large else 1 << 10,
                                        seed=base + 4)

    def ref(fn):
        return fn() if references else None

    a = spmv_p.arrays
    return [
        PaperApp("ep", ep.run_hpl, ep_p,
                 ref(lambda: ds.ep_reference(
                     int(ep_p.params["pairs_run"]).bit_length() - 1)),
                 _ep_matches),
        PaperApp("floyd", floyd.run_hpl, floyd_p,
                 ref(lambda: ds.floyd_warshall_reference(
                     floyd_p.arrays["dist"])),
                 np.array_equal),
        PaperApp("transpose", transpose.run_hpl, tr_p,
                 ref(lambda: tr_p.arrays["input"].T),
                 np.array_equal),
        PaperApp("spmv", spmv.run_hpl, spmv_p,
                 ref(lambda: ds.csr_matvec_reference(
                     a["values"], a["cols"], a["rowptr"], a["x"])),
                 _spmv_matches),
        PaperApp("reduction", reduction.run_hpl, red_p,
                 ref(lambda: float(red_p.arrays["data"]
                                   .astype(np.float64).sum())),
                 _sum_matches),
    ]


def _paper_op(app: PaperApp) -> Op:
    def run():
        return app.run_hpl(app.problem, "Tesla")

    def check(bench_run):
        sim = (bench_run.kernel_seconds, bench_run.transfer_seconds,
               dataclasses.astuple(bench_run.counters))
        return app.matches(bench_run.output, app.reference), sim

    return Op(run, check)


# -- workloads ----------------------------------------------------------------------


def _warm_up_specs() -> list:
    return [kernelgen.generate(0, -1 - k) for k in range(WARM_UP_KERNELS)]


def warm_up(hpl) -> None:
    """Call into every layer once, so first-use costs land in set-up:
    compiles that store into the disk cache, a restart served from it,
    execution, transfers and one cluster evaluation.  Ends with a fresh
    runtime."""
    ops = [_generated_op(hpl, spec, kernelgen.inputs(0, -1 - k))
           for k, spec in enumerate(_warm_up_specs())]
    for op in ops:
        op.run()
    hpl.reset_runtime()
    ops[0].run()
    cluster = hpl.Cluster(hpl.get_devices())
    x = np.linspace(0.0, 1.0, 64, dtype=np.float32)
    dx = hpl.DistributedArray(hpl.float_, x.size, cluster, data=x)
    dy = hpl.DistributedArray(hpl.float_, x.size, cluster)
    cluster_eval(cluster_kernel, cluster, dy, dx, hpl.Float(1.0),
                 schedule="uniform")
    dy.gather()
    hpl.reset_runtime()
    hpl.get_runtime()


class Workload:
    name = ""
    #: ops per balanced round of the op mix; the traced run alternates
    #: blocks of this many ops with and without its wrappers
    round_size = 1
    #: a run makes ``ops_per_second * --seconds`` ops, a fixed amount of
    #: work calibrated to last about ``--seconds`` on the 2-core host
    #: the baseline was measured on
    ops_per_second = 1.0

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = Path(scratch)
        self.hpl = None

    def imports(self) -> None:
        from repro import hpl
        self.hpl = hpl

    def prepare(self, references: bool = True) -> None:
        pass

    def setup(self) -> None:
        self.hpl.configure(cache_dir=str(self.scratch / "kernels"))
        warm_up(self.hpl)

    def op(self, i: int) -> Op:
        raise NotImplementedError


class CompileCold(Workload):
    """Never-seen generated kernels, each evaluated once."""

    name = "compile-cold"
    ops_per_second = 50
    round_size = 10

    def prepare(self, references=True):
        self._seen = set(_warm_up_specs())
        self._next = 0

    def op(self, i):
        # a spec drawn twice is skipped, so every op misses every cache
        while True:
            index = self._next
            self._next += 1
            spec = kernelgen.generate(self.seed, index)
            if spec not in self._seen:
                break
        self._seen.add(spec)
        return _generated_op(self.hpl, spec,
                             kernelgen.inputs(self.seed, index))


class CompileRestart(Workload):
    """Sessions over a pool of kernels held in the disk cache; each
    session starts with the in-memory caches dropped, as after a
    process restart."""

    name = "compile-restart"
    ops_per_second = 130
    round_size = 10

    def prepare(self, references=True):
        self.apps = _paper_apps(self.seed, large=False,
                                references=references)
        seen = set(_warm_up_specs())
        self.kernels = []
        index = 0
        while len(self.apps) + len(self.kernels) < POOL_SIZE:
            spec = kernelgen.generate(self.seed, index)
            if spec not in seen:
                seen.add(spec)
                self.kernels.append(
                    (spec, kernelgen.inputs(self.seed, index)))
            index += 1

    def _pool_op(self, k: int) -> Op:
        if k < len(self.apps):
            return _paper_op(self.apps[k])
        spec, data = self.kernels[k - len(self.apps)]
        return _generated_op(self.hpl, spec, data)

    def setup(self):
        super().setup()
        for k in range(POOL_SIZE):
            self._pool_op(k).run()

    def op(self, i):
        session, position = divmod(i, POOL_SIZE)
        if position == 0:
            self._order = random.Random(
                f"session:{self.seed}:{session}").sample(
                    range(POOL_SIZE), POOL_SIZE)
        op = self._pool_op(self._order[position])
        if position:
            return op

        def restart(run=op.run):
            self.hpl.reset_runtime()
            return run()

        return Op(restart, op.check)


class ExecPaper(Workload):
    """The five paper apps at sizes where execution dominates."""

    name = "exec-paper"
    ops_per_second = 9
    round_size = 5

    def prepare(self, references=True):
        self.apps = _paper_apps(self.seed, large=True,
                                references=references)
        self._rng = random.Random(f"order:{self.seed}")

    def setup(self):
        super().setup()
        # compiles every kernel and warms every launch shape
        for app in self.apps:
            _paper_op(app).run()

    def op(self, i):
        position = i % len(self.apps)
        if position == 0:
            self._order = self._rng.sample(self.apps, len(self.apps))
        return _paper_op(self._order[position])


class ClusterIter(Workload):
    """Tiny elementwise kernels on the three-device cluster under every
    scheduler, with seeded transient kernel faults."""

    name = "cluster-iter"
    ops_per_second = 200
    round_size = len(CLUSTER_SCHEDULES)

    def prepare(self, references=True):
        rng = np.random.default_rng(self.seed)
        self.x = rng.random(CLUSTER_ELEMENTS, dtype=np.float32)
        self._rng = random.Random(f"cluster:{self.seed}")

    def setup(self):
        super().setup()
        hpl = self.hpl
        self.cluster = hpl.Cluster(hpl.get_devices())
        self.dx = hpl.DistributedArray(hpl.float_, CLUSTER_ELEMENTS,
                                       self.cluster, data=self.x)
        self.dy = hpl.DistributedArray(hpl.float_, CLUSTER_ELEMENTS,
                                       self.cluster)
        for schedule in CLUSTER_SCHEDULES:
            cluster_eval(cluster_kernel, self.cluster, self.dy, self.dx,
                         hpl.Float(1.0), schedule=schedule)
            self.dy.gather()
        hpl.configure(faults=CLUSTER_FAULTS.format(seed=self.seed))

    def op(self, i):
        hpl = self.hpl
        if i % self.round_size == 0:
            self._order = self._rng.sample(CLUSTER_SCHEDULES,
                                           self.round_size)
        schedule = self._order[i % self.round_size]
        a = np.float32(self._rng.uniform(0.5, 2.0))

        def run():
            result = cluster_eval(cluster_kernel, self.cluster, self.dy,
                                  self.dx, hpl.Float(float(a)),
                                  schedule=schedule)
            return result, self.dy.gather()

        def check(out):
            result, y = out
            ok = np.allclose(y, cluster_twin(self.x, a), rtol=1e-4,
                             atol=1e-6)
            timeline = hpl.timeline_of(list(result)
                                       + self.dy.last_gather_events)
            f = result.failures
            sim = (timeline.makespan_seconds,
                   sorted(timeline.busy_seconds.items()), f.retries,
                   f.transient_failures, f.requeued_items,
                   len(f.devices_lost))
            return bool(ok), sim

        return Op(run, check)


WORKLOADS = {w.name: w for w in (CompileCold, CompileRestart, ExecPaper,
                                 ClusterIter)}
