"""Metrics registry: counters, gauges and histograms (zero-dependency).

The registry subsumes the flat counter bag the HPL runtime has always
exposed (:class:`repro.hpl.runtime.RuntimeStats` is now backed by one of
these), and gives every other layer a place to record scalars that are
cheap to keep and easy to print: a ``--record`` benchsuite run keeps a
registry snapshot per target in its run record.

All three instrument types are thread-safe; a registry hands out one
instrument per name (get-or-create), so independent call sites aggregate
into the same series.
"""

from __future__ import annotations

import threading


class Counter:
    """A monotonically *usable* accumulator (int or float increments)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    @property
    def value(self):
        return self._value

    def inc(self, amount=1):
        with self._lock:
            self._value += amount
            return self._value

    def set(self, value) -> None:
        """Direct assignment (used by the RuntimeStats facade)."""
        with self._lock:
            self._value = value

    def reset(self) -> None:
        self.set(0)

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self._value}>"


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self):
        return self._value

    def set(self, value) -> None:
        with self._lock:
            self._value = value

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self._value}>"


class Histogram:
    """Stores observations and answers count/sum/min/max/percentiles.

    Observations are kept exactly (these runs record thousands of
    samples, not millions), so percentiles are exact order statistics
    with linear interpolation between ranks.
    """

    __slots__ = ("name", "_values", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: list[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._values.append(float(value))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> float:
        with self._lock:
            return sum(self._values)

    @property
    def min(self) -> float:
        with self._lock:
            return min(self._values) if self._values else 0.0

    @property
    def max(self) -> float:
        with self._lock:
            return max(self._values) if self._values else 0.0

    @property
    def mean(self) -> float:
        with self._lock:
            if not self._values:
                return 0.0
            return sum(self._values) / len(self._values)

    def percentile(self, p: float) -> float:
        """Exact percentile ``p`` in [0, 100] with linear interpolation."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            values = sorted(self._values)
        if not values:
            return 0.0
        if len(values) == 1:
            return values[0]
        rank = (p / 100.0) * (len(values) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(values) - 1)
        frac = rank - lo
        return values[lo] * (1.0 - frac) + values[hi] * frac

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def reset(self) -> None:
        with self._lock:
            self._values.clear()

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count}>"


class MetricsRegistry:
    """Named instruments, get-or-create, with a printable summary."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument access -------------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(name)
            return inst

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge(name)
            return inst

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = Histogram(name)
            return inst

    # -- aggregate views ---------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data view of every instrument (JSON-serializable)."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, c in sorted(counters.items()):
            out["counters"][name] = c.value
        for name, g in sorted(gauges.items()):
            out["gauges"][name] = g.value
        for name, h in sorted(histograms.items()):
            out["histograms"][name] = {
                "count": h.count, "sum": h.sum, "min": h.min,
                "max": h.max, "mean": h.mean,
                "p50": h.p50, "p95": h.p95, "p99": h.p99,
            }
        return out

    def summary(self, title: str = "metrics") -> str:
        """Human-readable table of everything in the registry."""
        snap = self.snapshot()
        width = 68
        out = [title, "-" * width]
        for name, value in snap["counters"].items():
            if isinstance(value, float):
                out.append(f"{name:<44}{value:>24.6f}")
            else:
                out.append(f"{name:<44}{value:>24}")
        for name, value in snap["gauges"].items():
            out.append(f"{name:<44}{value:>24.6f}")
        for name, h in snap["histograms"].items():
            out.append(f"{name:<44}{'n=' + str(h['count']):>24}")
            out.append(f"  {'mean/p50/p95/p99':<42}"
                       f"{h['mean']:>10.3g}{h['p50']:>10.3g}"
                       f"{h['p95']:>10.3g}{h['p99']:>10.3g}")
        if len(out) == 2:
            out.append("(empty)")
        out.append("-" * width)
        return "\n".join(out)

    def reset(self) -> None:
        """Zero every counter/gauge and drop histogram observations."""
        with self._lock:
            instruments = (list(self._counters.values())
                           + list(self._gauges.values())
                           + list(self._histograms.values()))
        for inst in instruments:
            if isinstance(inst, Gauge):
                inst.set(0.0)
            else:
                inst.reset()


#: process-global registry, used when callers don't bring their own
_global_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _global_registry
