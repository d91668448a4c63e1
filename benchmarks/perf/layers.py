"""Per-layer ledger for the traced benchmark run.

:data:`LAYERS` names the public functions through which each layer of
the program is entered.  :class:`Tracer` wraps every one of them with a
timing wrapper *where its callers look it up* (a module global or a class
attribute), records one span per call in memory, and restores the
original attributes when uninstalled.  A layer's self time is the
duration of its spans minus the part covered by their child spans.

The program's own tracer (``repro.trace``) stays off: the ledger is
built from the benchmark's side of each call, so it measures the same
program the untraced run measures, plus the wrappers' cost, which the
traced run reports as ``run.trace_overhead``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter


def _eval_hits(counts, args, result) -> None:
    counts["hpl.runtime.compiled_hits"] += bool(result.from_cache)


def _h2d_bytes(counts, args, result) -> None:
    counts["ocl.queue.h2d_bytes"] += args[2].nbytes


def _d2h_bytes(counts, args, result) -> None:
    counts["ocl.queue.d2h_bytes"] += args[2].nbytes


def _source_bytes(counts, args, result) -> None:
    counts["hpl.codegen.source_bytes"] += len(result)


def _tokens(counts, args, result) -> None:
    counts["clc.lex.tokens"] += len(result)


def _disk_hits(counts, args, result) -> None:
    counts["hpl.diskcache.hits"] += result is not None


def _work_items(counts, args, result) -> None:
    counts["ocl.engines.work_items"] += result.work_items


def _cluster_summary(counts, args, result) -> None:
    counts["hpl.cluster.chunks"] += len(result)
    counts["hpl.cluster.retries"] += result.failures.retries
    counts["hpl.cluster.requeued_items"] += result.failures.requeued_items


#: (layer, module, attribute, counter) — the attribute is looked up in
#: the module (``name``) or in a class of it (``Class.name``); the
#: counter, if any, reads work done from the call's arguments and result
LAYERS = (
    ("hpl.evaluator", "repro.hpl.evaluator", "Evaluator.__call__",
     _eval_hits),
    ("hpl.array", "repro.hpl.array", "Array.ensure_on_device", None),
    ("hpl.array", "repro.hpl.array", "Array.read", None),
    ("ocl.queue", "repro.ocl.queue",
     "CommandQueue.enqueue_nd_range_kernel", None),
    ("ocl.queue", "repro.ocl.queue", "CommandQueue.enqueue_write_buffer",
     _h2d_bytes),
    ("ocl.queue", "repro.ocl.queue", "CommandQueue.enqueue_read_buffer",
     _d2h_bytes),
    ("ocl.queue", "repro.ocl.queue", "CommandQueue.flush", None),
    ("hpl.capture", "repro.hpl.runtime", "HPLRuntime.get_captured", None),
    ("hpl.analysis", "repro.hpl.runtime", "analyze_kernel", None),
    ("hpl.codegen", "repro.hpl.runtime", "generate_source", _source_bytes),
    # compile_source runs the front-end through the names in repro.clc;
    # Program.build preprocesses once more to key the disk cache
    ("clc.preprocess", "repro.clc", "preprocess", None),
    ("clc.preprocess", "repro.ocl.program", "preprocess", None),
    ("clc.lex", "repro.clc", "tokenize", _tokens),
    ("clc.parse", "repro.clc", "parse", None),
    ("clc.sema", "repro.clc", "analyze", None),
    ("clc.passes", "repro.clc.passes.manager", "run_pipeline", None),
    ("clc.lower", "repro.clc.lower", "lower_program", None),
    ("ocl.program", "repro.ocl.program", "Program.build", None),
    ("hpl.diskcache.get", "repro.hpl.diskcache", "KernelDiskCache.get",
     _disk_hits),
    ("hpl.diskcache.put", "repro.hpl.diskcache", "KernelDiskCache.put",
     None),
    # JitEngine inherits VectorEngine.run
    ("ocl.engines", "repro.ocl.engines.vector", "VectorEngine.run",
     _work_items),
    ("ocl.engines", "repro.ocl.engines.serial", "SerialEngine.run",
     _work_items),
    ("ocl.engines.prebuild", "repro.ocl.engines.jit",
     "JitEngine.prebuild", None),
    ("ocl.costmodel", "repro.ocl.queue", "kernel_time", None),
    # cluster_eval is wrapped at the benchmark's own call site
    ("hpl.cluster", "workloads", "cluster_eval", _cluster_summary),
)

#: layers reported as per-layer metrics.  ``ocl.engines.prebuild`` runs
#: only under the jit engine, and the benchmark runs the default engine,
#: so it is printed but not reported.
REPORTED_LAYERS = (
    "hpl.evaluator", "hpl.array", "ocl.queue", "hpl.capture",
    "hpl.analysis", "hpl.codegen", "clc.preprocess", "clc.lex",
    "clc.parse", "clc.sema", "clc.passes", "clc.lower", "ocl.program",
    "hpl.diskcache.get", "hpl.diskcache.put", "ocl.engines",
    "ocl.costmodel", "hpl.cluster",
)

#: per-layer metrics that are not a layer's calls or self time
EXTRA_METRICS = (
    ("hpl.runtime.compiled_hit_ratio", "ratio"),
    ("hpl.codegen.source_bytes", "B"),
    ("clc.lex.tokens", "count"),
    ("clc.passes.runs", "count"),
    ("clc.compiles", "count"),
    ("hpl.diskcache.hit_ratio", "ratio"),
    ("hpl.diskcache.put_bytes", "B"),
    ("ocl.engines.work_items", "count"),
    ("ocl.queue.h2d_bytes", "B"),
    ("ocl.queue.d2h_bytes", "B"),
    ("hpl.cluster.chunks", "count"),
    ("hpl.cluster.retries", "count"),
    ("hpl.cluster.requeued_items", "count"),
    ("run.traced_wall_s", "s"),
    ("run.trace_overhead", "ratio"),
    ("run.unattributed_share", "ratio"),
)


def per_layer_metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer in REPORTED_LAYERS:
        units[layer + ".calls"] = "count"
        units[layer + ".self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


#: root span names: the benchmark's own set-up and one span per op
SETUP_ROOT = "run.setup"
OP_ROOT = "run.op"


class Tracer:
    """Timing wrappers over :data:`LAYERS` plus the spans they record.

    Spans are ``(name, start_ns, end_ns, parent, op)`` tuples; ``parent``
    is the index of the enclosing span (-1 for a root) and ``op`` the id
    of the op the span belongs to (``None`` during set-up).
    """

    def __init__(self, table=LAYERS) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        #: ``module:attribute (reason)`` of every target not found
        self.missing: list = []
        self._stack: list = []
        self._op = None
        self._targets: list = []    # (owner, name, original, wrapper)
        self._sample: dict | None = None
        for layer, module, attr, count in table:
            self._prepare(layer, module, attr, count)

    # -- patching -------------------------------------------------------------

    def _prepare(self, layer, module, attr, count) -> None:
        try:
            owner = importlib.import_module(module)
        except ImportError as exc:
            self.missing.append(f"{module}:{attr} ({exc})")
            return
        *path, name = attr.split(".")
        for part in path:
            owner = vars(owner).get(part)
            if owner is None:
                break
        original = None if owner is None else vars(owner).get(name)
        if original is None:
            self.missing.append(f"{module}:{attr} (no such attribute)")
            return
        if isinstance(original, (classmethod, staticmethod)):
            wrapper = type(original)(
                self._wrap(layer, original.__func__, count))
        else:
            wrapper = self._wrap(layer, original, count)
        self._targets.append((owner, name, original, wrapper))

    def _wrap(self, layer: str, func, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counts = self.counts

        def timed(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, self._op)
            if count is not None:
                count(counts, args, result)
            return result

        return timed

    @property
    def installed(self) -> bool:
        return self._sample is not None

    def install(self) -> None:
        """Patch every target; program counters are sampled from here
        until :meth:`uninstall`."""
        for owner, name, _original, wrapper in self._targets:
            setattr(owner, name, wrapper)
        self._sample = _registry_sample()

    def uninstall(self) -> None:
        """Restore every original attribute."""
        for owner, name, original, _wrapper in reversed(self._targets):
            setattr(owner, name, original)
        after = _registry_sample()
        for key, value in after.items():
            self.counts[key] += value - self._sample.get(key, 0)
        self._sample = None

    @property
    def targets(self) -> list:
        """``(owner, name, original)`` of every patched attribute."""
        return [(o, n, orig) for o, n, orig, _w in self._targets]

    # -- root spans -------------------------------------------------------------

    @contextlib.contextmanager
    def root(self, name: str, op=None):
        """A root span around benchmark code (set-up or one op)."""
        self._op = op
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, -1, op)
            self._op = None

    # -- results ----------------------------------------------------------------

    def self_ns(self) -> list:
        """Self time of every span, in span order."""
        own = [end - start for _n, start, end, _p, _o in self.spans]
        for _n, start, end, parent, _o in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def ledger(self) -> dict:
        """``name -> (calls, self_ns)`` over every recorded span."""
        out: dict = {}
        for span, own in zip(self.spans, self.self_ns()):
            calls, total = out.get(span[0], (0, 0))
            out[span[0]] = (calls + 1, total + own)
        return out

    def dump(self, path) -> None:
        """Write the spans (and missing targets) as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "op"],
                       "spans": self.spans,
                       "missing": self.missing}, fh)


def _registry_sample() -> dict:
    """Process-wide program counters the ledger reports as deltas."""
    from repro import trace
    from repro.clc.passes import pipeline_passes
    registry = trace.get_registry()
    rewriters, analyses = pipeline_passes(2)
    runs = sum(registry.counter(f"clc.pass_{p.name}").value
               for p in (*rewriters, *analyses))
    return {"clc.passes.runs": runs,
            "clc.compiles": registry.counter("clc.compiles").value,
            "hpl.diskcache.put_bytes":
                registry.counter("hpl.disk_cache_bytes").value}


def per_layer_metrics(tracer: Tracer, traced_ns: list,
                      untraced_ns: list) -> dict:
    """The reported per-layer metrics: ``name -> (value, unit)``.

    ``traced_ns``/``untraced_ns`` are the latencies of the ops run with
    and without the wrappers installed.
    """
    ledger = tracer.ledger()
    counts = tracer.counts
    out = {}
    for layer in REPORTED_LAYERS:
        calls, own = ledger.get(layer, (0, 0))
        out[layer + ".calls"] = (calls, "count")
        out[layer + ".self_s"] = (own * 1e-9, "s")

    def ratio(num, den):
        return num / den if den else 0.0

    evals = ledger.get("hpl.evaluator", (0, 0))[0]
    gets = ledger.get("hpl.diskcache.get", (0, 0))[0]
    values = dict(counts)
    values["hpl.runtime.compiled_hit_ratio"] = ratio(
        counts["hpl.runtime.compiled_hits"], evals)
    values["hpl.diskcache.hit_ratio"] = ratio(
        counts["hpl.diskcache.hits"], gets)
    op_total = sum(traced_ns)
    values["run.traced_wall_s"] = op_total * 1e-9
    values["run.trace_overhead"] = ratio(
        ratio(op_total, len(traced_ns)),
        ratio(sum(untraced_ns), len(untraced_ns)))
    values["run.unattributed_share"] = ratio(
        ledger.get(OP_ROOT, (0, 0))[1], op_total)
    for name, unit in EXTRA_METRICS:
        out[name] = (values.get(name, 0), unit)
    return out


def layer_lines(tracer: Tracer) -> list:
    """``(name, calls, self_s)`` of every span name, for printing."""
    ledger = tracer.ledger()
    names = sorted({layer for layer, *_rest in LAYERS} | set(ledger))
    return [(name, ledger.get(name, (0, 0))[0],
             ledger.get(name, (0, 0))[1] * 1e-9) for name in names]
