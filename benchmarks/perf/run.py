"""Host-time benchmark of the HPL reproduction (see README.md).

    python3 benchmarks/perf/run.py --workload exec-paper --seed 1 \\
        --seconds 15 --trace 0

runs one workload in this process: set-up, then a closed loop of a fixed
number of ops (``ops_per_second * --seconds``, at least ``MIN_OPS``),
every op checked against a NumPy oracle.  ``--trace 1`` runs the same
workload with the per-layer timing wrappers of ``layers.py`` and reports
the per-layer ledger instead of the end-to-end metrics.  Without
``--workload`` every workload runs, each in a fresh child process, one at
a time.

Times are host seconds normalised to the speed of an idle host with
:class:`HostProbe`, because the benchmark host is shared with other
tenants; the raw wall-clock figures are printed as ``# wall`` lines.

Every metric is printed as ``workload metric value unit``; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when an op fails
or the simulated-clock guard does not match ``reference.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BUILD_DIR = ROOT / ".bench_build" / "perf"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("compile-cold", "compile-restart", "exec-paper",
                  "cluster-iter")

#: every run makes at least this many ops, so ten samples lie beyond p90
MIN_OPS = 100
#: a run this many times over ``--seconds`` stops short of its op count,
#: so a much slower program still ends in time
OVERRUN_FACTOR = 4
#: the simulated-clock guard digests the first GUARD_OPS ops
GUARD_OPS = 32
#: seeds whose guard digests reference.json holds
REFERENCE_SEEDS = range(32)
#: set-ups per measured run (this process plus child processes)
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170

E2E_UNITS = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS")


def hermetic_env() -> None:
    """Drop every ``HPL_*`` setting and pin math libraries to one thread.

    Must run before numpy or repro is imported: both read the
    environment once, at import or first use.
    """
    for key in [k for k in os.environ if k.startswith("HPL_")]:
        del os.environ[key]
    for key in _THREAD_VARS:
        os.environ[key] = "1"


class HostProbe:
    """Fixed work timed between ops: how fast the host runs right now.

    The benchmark host is shared, and other tenants slow every process
    on it, by up to half, for seconds to minutes at a time.  Three fixed
    pieces of work, one per kind of resource the program uses (integer
    interpreter work, dict and string work, streaming a 4 MB array), are
    timed at most every ``INTERVAL_NS``.  A sample's *factor* is the
    geometric mean of their times over ``REFERENCE_NS``, their times on
    the idle 2-core host the baseline was measured on; an op's latency
    is divided by the mean factor of the samples on either side of it.
    """

    INTERVAL_NS = 50_000_000
    REFERENCE_NS = (171_000, 48_000, 238_000)
    _WORDS = ("float v0 = fa[i] * 0.5f + fb[i]; if (v0 < v1) "
              "{ v2 = fmin(v0, v1); } " * 12).split()

    def __init__(self) -> None:
        import numpy as np
        self._stream = np.ones(1 << 20, dtype=np.float32)
        #: host factor of every sample
        self.factors: list = []
        self._last = 0

    @staticmethod
    def _spin() -> None:
        acc = 0
        for k in range(3000):
            acc += k * k % 7

    @classmethod
    def _words(cls) -> None:
        counts: dict = {}
        for word in cls._WORDS:
            counts[word] = counts.get(word, 0) + 1
            counts[word, len(word)] = word.upper()

    def _sum(self) -> None:
        self._stream.sum()

    def sample(self) -> float:
        """Take one sample (best of three of each piece); its factor."""
        log_factor = 0.0
        for work, reference in zip((self._spin, self._words, self._sum),
                                   self.REFERENCE_NS):
            best = None
            for _ in range(3):
                start = time.perf_counter_ns()
                work()
                took = time.perf_counter_ns() - start
                best = took if best is None else min(best, took)
            log_factor += math.log(best / reference)
        self.factors.append(math.exp(log_factor / 3))
        self._last = time.perf_counter_ns()
        return self.factors[-1]

    def due(self) -> bool:
        return time.perf_counter_ns() - self._last >= self.INTERVAL_NS


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0,
                   help="sets the op count: ops_per_second * seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report the per-layer ledger")
    p.add_argument("--trace-dir", type=Path, default=BUILD_DIR,
                   help="where --trace 1 writes <workload>.spans.json")
    p.add_argument("--write-reference", action="store_true",
                   help="regenerate reference.json")
    # internal modes of the child processes this script starts
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--guard-only", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    if (args.setup_only or args.guard_only) and not args.workload:
        p.error("internal modes need --workload")
    return args


def _child(args: list, timeout: float = CHILD_TIMEOUT_S) -> tuple:
    """Run this script with ``args``; (stdout lines, last-line JSON)."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"child {args} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return lines, json.loads(lines[-1])


def _env_line(name: str, seed: int) -> str:
    import numpy as np
    from repro.clc.passes import default_opt_level
    from repro.ocl.engines.base import default_engine
    nproc = len(os.sched_getaffinity(0))
    return (f"# env workload={name} seed={seed} engine={default_engine()} "
            f"opt_level={default_opt_level()} nproc={nproc} "
            f"python={platform.python_version()} numpy={np.__version__}")


def _reference_digest(workload: str, seed: int):
    try:
        data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    if data.get("guard_ops") != GUARD_OPS:
        return None
    return data.get("digests", {}).get(workload, {}).get(str(seed))


def _latency_metrics(ns: list, setup_s: float) -> dict:
    ms = [dt / 1e6 for dt in ns]
    return {
        "throughput_ops_s": len(ms) / (sum(ms) / 1e3),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10)[8],
        "setup_s": setup_s,
    }


def run_workload(args) -> int:
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=BUILD_DIR))
    try:
        return _measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(args, scratch: Path) -> int:
    import layers
    import workloads

    setup_samples = []          # (normalised, wall) seconds
    if not (args.trace or args.setup_only or args.guard_only):
        for _ in range(SETUP_SAMPLES - 1):
            _lines, out = _child(["--workload", args.workload, "--seed",
                                  str(args.seed), "--setup-only"])
            setup_samples.append((out["setup_s"], out["setup_wall_s"]))

    wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
    probe = HostProbe()
    before = probe.sample()
    start = time.perf_counter()
    wl.imports()
    import_s = time.perf_counter() - start
    wl.prepare(references=not args.setup_only)
    tracer = layers.Tracer() if args.trace else None
    start = time.perf_counter()
    if tracer is None:
        wl.setup()
    else:
        tracer.install()
        with tracer.root(layers.SETUP_ROOT):
            wl.setup()
    setup_wall = import_s + time.perf_counter() - start
    setup_samples.append(
        (setup_wall / ((before + probe.sample()) / 2), setup_wall))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_samples[-1][0],
                          "setup_wall_s": setup_wall}))
        return 0

    if args.guard_only:
        n_ops, deadline = GUARD_OPS, float("inf")
    else:
        n_ops = max(MIN_OPS, round(wl.ops_per_second * args.seconds))
        deadline = time.perf_counter() + OVERRUN_FACTOR * args.seconds
    latencies, traced_ns, untraced_ns = [], [], []
    op_probe = []           # index of the last probe sample before each op
    failed = 0
    digest = hashlib.sha256()
    i = 0
    while i < n_ops and time.perf_counter() < deadline:
        traced = tracer is not None and (i // wl.round_size) % 2 == 1
        if tracer is not None and traced != tracer.installed:
            (tracer.install if traced else tracer.uninstall)()
        op = wl.op(i)
        t0 = time.perf_counter_ns()
        try:
            if traced:
                with tracer.root(layers.OP_ROOT, i):
                    out = op.run()
            else:
                out = op.run()
            dt = time.perf_counter_ns() - t0
            ok, sim = op.check(out)
        except Exception:               # a raising op is a failed op
            dt = time.perf_counter_ns() - t0
            traceback.print_exc()
            ok, sim = False, "raised"
        latencies.append(dt)
        (traced_ns if traced else untraced_ns).append(dt)
        op_probe.append(len(probe.factors) - 1)
        if probe.due():
            probe.sample()
        if not ok:
            failed += 1
            print(f"op {i} of {args.workload} failed its check",
                  file=sys.stderr)
        if i < GUARD_OPS:
            digest.update(repr(sim).encode())
        i += 1
    if tracer is not None and tracer.installed:
        tracer.uninstall()
    probe.sample()

    if i < GUARD_OPS:
        guard = "short"
    else:
        want = _reference_digest(args.workload, args.seed)
        guard = ("unreferenced" if want is None
                 else "match" if want == digest.hexdigest() else "mismatch")
    correct = failed == 0 and guard != "mismatch"
    if args.guard_only:
        print(json.dumps({"correct": correct, "attempted": i,
                          "failed": failed, "digest": digest.hexdigest()}))
        return 0 if correct else 1

    name = args.workload
    print(_env_line(name, args.seed))
    print(f"# guard digest={digest.hexdigest()} status={guard}")
    factors = probe.factors
    print(f"# host factor median={statistics.median(factors):.3f} "
          f"max={max(factors):.3f} samples={len(factors)}")
    if tracer is None:
        normalised = [dt * 2 / (factors[k] + factors[k + 1])
                      for dt, k in zip(latencies, op_probe)]
        metrics = _latency_metrics(
            normalised, statistics.median(s for s, _w in setup_samples))
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}
        wall = _latency_metrics(
            latencies, statistics.median(w for _s, w in setup_samples))
        for metric, value in wall.items():
            print(f"# wall {metric} {value}")
    else:
        args.trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(args.trace_dir / f"{name}.spans.json")
        metrics = layers.per_layer_metrics(tracer, traced_ns, untraced_ns)
        for missing in tracer.missing:
            print(f"# trace target missing: {missing}")
        for layer, calls, self_s in layers.layer_lines(tracer):
            print(f"# layer {layer} calls={calls} self_s={self_s:.6f}")
    print(f"{name} ops {i} count")
    print(f"{name} ops_failed {failed} count")
    for metric, (value, unit) in metrics.items():
        print(f"{name} {metric} {value} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": i, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in a fresh child process, one at a time."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        lines, out = _child(["--workload", name, "--seed", str(args.seed),
                             "--seconds", str(args.seconds),
                             "--trace", str(args.trace),
                             "--trace-dir", str(args.trace_dir)],
                            timeout=900)
        print("\n".join(lines[:-1]), flush=True)
        correct &= out["correct"]
        attempted += out["attempted"]
        failed += out["failed"]
        for metric, value in out["metrics"].items():
            metrics[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def write_reference() -> int:
    """Regenerate the guard digests of ``REFERENCE_SEEDS``."""
    digests = {}
    for name in WORKLOAD_NAMES:
        digests[name] = {}
        for seed in REFERENCE_SEEDS:
            _lines, out = _child(["--workload", name, "--seed", str(seed),
                                  "--guard-only"])
            if out["failed"]:
                print(f"{name} seed {seed}: ops failed their checks",
                      file=sys.stderr)
                return 1
            digests[name][str(seed)] = out["digest"]
            print(f"{name} seed {seed} {out['digest']}", flush=True)
    REFERENCE.write_text(json.dumps({"guard_ops": GUARD_OPS,
                                     "digests": digests}, indent=1)
                         + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC})",
              file=sys.stderr)
        return 2
    hermetic_env()
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
