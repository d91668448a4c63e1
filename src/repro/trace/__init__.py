"""``repro.trace`` — spans, metrics, the run record and its renderers.

The observability layer for the reproduction: a zero-dependency span
tracer with a process-global default (disabled until :func:`enable` is
called), a metrics registry (counters / gauges / histograms), the JSONL
run record (:mod:`repro.trace.record`) that ``python -m repro.benchsuite
--record`` writes, and its renderers: Chrome ``chrome://tracing`` JSON
and a text report (``python -m repro.trace report run.jsonl``).

Typical use::

    from repro import trace

    trace.enable()
    ... run HPL / SimCL work ...
    spans = trace.get_tracer().spans()
    trace.write_chrome_trace("out.json", spans)
    print(trace.span_table(spans))

Instrumenting code::

    with trace.span("build", category="hpl", kernel=name) as sp:
        ...
        sp.set_attr("cache", "miss")

    @trace.traced("parse", category="clc")
    def parse(tokens): ...

When tracing is disabled (the default) every one of these entry points
takes a single-attribute-check fast path, so instrumentation may stay in
hot-ish code permanently; see ``tests/trace/test_overhead.py``.
"""

from __future__ import annotations

import functools

from .core import NOOP_SPAN, NoopSpan, Span, Tracer
from .export import chrome_trace, report, span_table, write_chrome_trace
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      get_registry)
from .record import Record, read_record, write_record

__all__ = [
    "Span", "Tracer", "NoopSpan", "NOOP_SPAN",
    "get_tracer", "set_tracer", "enable", "disable", "is_enabled",
    "span", "device_event", "current_span", "traced",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "get_registry",
    "reset_metrics",
    "chrome_trace", "write_chrome_trace", "span_table", "report",
    "Record", "read_record", "write_record",
]

#: the process-global tracer; disabled until someone calls enable()
_default_tracer = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-global tracer (always exists; may be disabled)."""
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Replace the process-global tracer (tests, embedders)."""
    global _default_tracer
    _default_tracer = tracer
    return tracer


def enable(fresh: bool = False) -> Tracer:
    """Turn on the global tracer; ``fresh=True`` starts a new one."""
    global _default_tracer
    if fresh:
        _default_tracer = Tracer(enabled=True)
    else:
        _default_tracer.enabled = True
    return _default_tracer


def disable() -> None:
    _default_tracer.enabled = False


def is_enabled() -> bool:
    return _default_tracer.enabled


def span(name: str, category: str = "app", **attrs):
    """Context manager for one wall-clock span on the global tracer.

    Returns a shared no-op (no allocation, no locking) when tracing is
    disabled, so call sites need no guards.
    """
    tracer = _default_tracer
    if not tracer.enabled:
        return NOOP_SPAN
    return tracer.span(name, category, **attrs)


def device_event(device: str, name: str, start_ns: int, end_ns: int,
                 category: str = "device", parent_id: int | None = None,
                 **attrs):
    """Record a completed simulated-clock span on the global tracer."""
    tracer = _default_tracer
    if not tracer.enabled:
        return None
    return tracer.device_event(device, name, start_ns, end_ns,
                               category, parent_id=parent_id, **attrs)


def current_span():
    """The calling thread's innermost open span, or None."""
    tracer = _default_tracer
    if not tracer.enabled:
        return None
    return tracer.current()


def reset_metrics() -> None:
    """Zero every instrument in the global metrics registry.

    Counters in the registry are process-global and survive
    :func:`repro.hpl.runtime.reset_runtime` by design (the opt-pipeline
    benchmark aggregates across runtime resets); tests that assert on
    absolute counter values should call this in their setup instead of
    relying on a fresh process.
    """
    get_registry().reset()


def traced(name: str | None = None, category: str = "app", **attrs):
    """Decorator form of :func:`span`; usable bare or with arguments."""
    def decorate(func, span_name=None):
        span_name = span_name or func.__name__

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer = _default_tracer
            if not tracer.enabled:
                return func(*args, **kwargs)
            with tracer.span(span_name, category, **attrs):
                return func(*args, **kwargs)
        return wrapper

    if callable(name):       # @traced with no parentheses
        func, name = name, None
        return decorate(func)
    return lambda func: decorate(func, name)
