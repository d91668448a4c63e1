"""Metrics registry: counters, gauges, histogram percentiles, facade."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.trace import Counter, Gauge, Histogram, MetricsRegistry
from repro.trace import get_registry
from repro.trace.metrics import HISTOGRAM_SAMPLES


class TestCounter:
    def test_inc_and_set(self):
        c = Counter("c")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5
        c.set(2)
        assert c.value == 2
        c.reset()
        assert c.value == 0

    def test_float_increments(self):
        c = Counter("c")
        c.inc(0.25)
        c.inc(0.5)
        assert c.value == pytest.approx(0.75)

    def test_concurrent_increments_do_not_lose_updates(self):
        c = Counter("c")

        def worker():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 40_000


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("g")
        g.set(1.5)
        g.set(-2.0)
        assert g.value == -2.0


class TestHistogram:
    def test_empty(self):
        h = Histogram("h")
        assert h.count == 0
        assert h.sum == 0.0
        assert h.p50 == h.p95 == h.p99 == 0.0

    def test_stats_and_percentiles(self):
        h = Histogram("h")
        for v in range(1, 101):          # 1..100
            h.observe(v)
        assert h.count == 100
        assert h.sum == 5050
        assert h.min == 1 and h.max == 100
        assert h.mean == pytest.approx(50.5)
        assert h.p50 == pytest.approx(50.5)
        assert h.p95 == pytest.approx(95.05)
        assert h.p99 == pytest.approx(99.01)
        assert h.percentile(0) == 1
        assert h.percentile(100) == 100

    def test_percentile_validation(self):
        h = Histogram("h")
        with pytest.raises(ValueError):
            h.percentile(101)
        with pytest.raises(ValueError):
            h.percentile(-1)

    def test_single_observation(self):
        h = Histogram("h")
        h.observe(3.0)
        assert h.p50 == h.p99 == 3.0

    def test_long_runs_keep_a_bounded_sample_and_exact_totals(self):
        values = [float((i * 7919) % 100_003) for i in range(100_000)]
        h = Histogram("h")
        for v in values:
            h.observe(v)
        assert len(h._values) == HISTOGRAM_SAMPLES
        assert h.count == 100_000
        assert h.sum == sum(values)
        assert h.min == min(values) and h.max == max(values)
        assert h.mean == sum(values) / 100_000
        # a uniform sample: the median lands near the true one
        assert h.p50 == pytest.approx(sorted(values)[50_000], rel=0.05)
        again = Histogram("h")
        for v in values:
            again.observe(v)
        assert again._values == h._values           # deterministic

    def test_concurrent_observations_keep_exact_totals(self):
        h = Histogram("h")
        per_thread = HISTOGRAM_SAMPLES

        def worker():
            for v in range(per_thread):
                h.observe(v)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert h.count == 4 * per_thread
        assert h.sum == 4 * sum(range(per_thread))
        assert len(h._values) == HISTOGRAM_SAMPLES


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(3)
        reg.gauge("temp").set(1.25)
        reg.histogram("lat").observe(10.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"hits": 3}
        assert snap["gauges"] == {"temp": 1.25}
        assert snap["histograms"]["lat"]["count"] == 1
        assert snap["histograms"]["lat"]["p95"] == 10.0

    def test_summary_lists_every_instrument(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.gauge("temp").set(2.0)
        reg.histogram("lat").observe(1.0)
        text = reg.summary("title")
        assert "title" in text
        assert "hits" in text and "temp" in text and "lat" in text

    def test_empty_summary(self):
        assert "(empty)" in MetricsRegistry().summary()

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(5)
        reg.gauge("b").set(7.0)
        reg.histogram("c").observe(1.0)
        reg.reset()
        assert reg.counter("a").value == 0
        assert reg.gauge("b").value == 0.0
        assert reg.histogram("c").count == 0

    def test_global_registry_is_a_singleton(self):
        assert get_registry() is get_registry()


class TestRuntimeStatsFacade:
    """RuntimeStats is now a view over a registry (satellite: sync)."""

    def test_attribute_api_unchanged(self):
        from repro.hpl.runtime import RuntimeStats

        stats = RuntimeStats()
        stats.cache_hits += 1
        stats.h2d_bytes += 1024
        stats.codegen_seconds += 0.5
        assert stats.cache_hits == 1
        assert stats.h2d_bytes == 1024
        assert stats.codegen_seconds == 0.5

    def test_fields_mirror_into_registry(self):
        from repro.hpl.runtime import RuntimeStats

        stats = RuntimeStats()
        stats.kernels_built += 2
        stats.h2d_seconds += 0.125
        snap = stats.registry.snapshot()["counters"]
        assert snap["hpl.kernels_built"] == 2
        assert snap["hpl.h2d_seconds"] == 0.125
        # all fields are materialized even when untouched
        assert snap["hpl.launches"] == 0

    def test_transfer_seconds_sums_both_directions(self):
        from repro.hpl.runtime import RuntimeStats

        stats = RuntimeStats(h2d_seconds=0.25, d2h_seconds=0.5)
        assert stats.transfer_seconds == pytest.approx(0.75)

    def test_cache_hit_rate(self):
        from repro.hpl.runtime import RuntimeStats

        stats = RuntimeStats()
        assert stats.cache_hit_rate == 0.0
        stats.kernels_built = 1
        stats.cache_hits = 3
        assert stats.cache_hit_rate == pytest.approx(0.75)

    def test_equality_and_repr(self):
        from repro.hpl.runtime import RuntimeStats

        a, b = RuntimeStats(), RuntimeStats()
        assert a == b
        a.launches += 1
        assert a != b
        assert "launches=1" in repr(a)

    def test_unknown_kwarg_rejected(self):
        from repro.hpl.runtime import RuntimeStats

        with pytest.raises(TypeError):
            RuntimeStats(bogus=1)
