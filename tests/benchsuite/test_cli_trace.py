"""The benchsuite CLI: ``--record`` and the ``python -m repro.trace``
views of the record.

This is the acceptance path of the observability work: run EP and the
fault-recovery matrix under ``--record``, then read everything back
from that one file: the span table with self times, the Chrome trace,
the runtime metrics and the recovery events.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro import prof, trace
from repro.benchsuite import runner
from repro.benchsuite.runner import main as bench_main
from repro.hpl import reset_runtime
from repro.trace.__main__ import main as trace_cli


def _report(capsys, path) -> str:
    capsys.readouterr()
    assert trace_cli(["report", path]) == 0
    return capsys.readouterr().out


def _us(text: str) -> float:
    """A span-table duration (``12.5us``, ``3.125ms``, ``1.014s``)."""
    value, unit = re.fullmatch(r"(-?[\d.]+)(us|ms|s)", text).groups()
    return float(value) * {"us": 1.0, "ms": 1e3, "s": 1e6}[unit]


def _section(text: str, target: str) -> str:
    """The report's block for one target."""
    return text.split(f"== target {target} ")[1].split("== target ")[0]


def _launches(section: str) -> int:
    return int(re.search(r"HPL kernel launches +(\d+)", section).group(1))


@pytest.fixture()
def clean_state():
    """Reset the runtime; keep the caller's tracer and profiler."""
    saved = trace.get_tracer(), prof.get_profiler()
    reset_runtime()
    yield saved
    trace.set_tracer(saved[0])
    prof.set_profiler(saved[1])
    reset_runtime()


class TestBenchsuiteTraceFlag:
    def test_ep_with_jsonl_trace_then_summarize(self, recorded_run,
                                                capsys):
        path, _stdout = recorded_run
        record = trace.read_record(path)
        assert record.error is None
        assert [t["name"] for t in record.targets] == [
            "ep", "cluster-faults", "cluster-lb"]
        cats = {s.category for s in record.spans}
        assert {"benchsuite", "hpl", "clc", "simcl", "cluster"} <= cats
        assert any(s.clock == "sim" for s in record.spans)

        text = _report(capsys, path)
        assert "hpl.eval" in text
        assert "simcl.ndrange_kernel" in text
        # the table's wall self times add up to the root wall spans' time
        walls = [s for s in record.spans if s.clock == "wall"]
        ids = {s.span_id for s in walls}
        roots = sum(s.duration_us for s in walls if s.parent_id not in ids)
        own = sum(_us(line.split()[5]) for line in text.splitlines()
                  if line.startswith("wall  wall "))
        assert abs(own - roots) <= 0.01 * roots
        assert re.search(r"wall self total \S+ = 3 root span\(s\)", text)

    def test_ep_with_chrome_trace_is_valid_catapult(self, recorded_run,
                                                    tmp_path):
        out = tmp_path / "run.json"
        assert trace_cli(["chrome", recorded_run[0], "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        for ev in doc["traceEvents"]:
            assert ev["ph"] in ("X", "M")
            if ev["ph"] == "X":
                assert ev["dur"] >= 0
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert len(pids) >= 2     # wall track + at least one device track

    def test_verbose_prints_metrics_summary(self, recorded_run, capsys):
        text = _report(capsys, recorded_run[0])
        for target in ("ep", "cluster-faults", "cluster-lb"):
            section = _section(text, target)
            assert "runtime metrics" in section
            assert "HPL kernel cache hit rate" in section
            assert "h2d traffic" in section and "d2h traffic" in section
        ep = trace.read_record(recorded_run[0]).targets[0]
        assert _launches(_section(text, "ep")) >= 1
        assert ep["meta"]["engine"] and "pass_runs" in ep["meta"]

    def test_recovery_section_shows_retries_and_quarantine(
            self, recorded_run, capsys):
        text = _report(capsys, recorded_run[0])
        section = _section(text, "cluster-faults")
        match = re.search(r"recovery: (.*)", section)
        counts = dict((action, int(n)) for action, n
                      in re.findall(r"(\w+) x(\d+)", match.group(1)))
        assert counts.get("retry", 0) >= 1
        assert counts.get("quarantine", 0) >= 1
        assert re.search(r"cluster\.retries +[1-9]", section)
        assert "recovery: none" in _section(text, "ep")

    def test_each_section_covers_its_own_target(self, recorded_run,
                                                capsys):
        """cluster-lb shows none of cluster-faults' recovery, and
        cluster-faults counts the launches of all four legs, each of
        which starts from a fresh runtime."""
        text = _report(capsys, recorded_run[0])
        lb = _section(text, "cluster-lb")
        assert "recovery: none" in lb
        assert "cluster.retries" not in lb
        assert "cluster.device_lost" not in lb
        rows = {name: json.loads((Path(recorded_run[0]).parent
                                  / f"BENCH_cluster_{name}.json")
                                 .read_text())["legs"].values()
                for name in ("faults", "lb")}
        assert _launches(lb) == sum(leg["launches"] for leg in rows["lb"])
        # a failed launch was issued but returned no chunk result
        done = sum(leg["launches"] for leg in rows["faults"])
        failed = sum(leg["transient_failures"] + len(leg["devices_lost"])
                     for leg in rows["faults"])
        assert failed >= 1
        assert done <= _launches(_section(text, "cluster-faults")) \
            <= done + failed

    def test_cluster_faults_profiles_cover_every_leg(self, recorded_run,
                                                     capsys):
        """Each leg starts from a fresh runtime, and a runtime reset
        keeps the profiles collected so far: every launch that ran its
        kernel is profiled, not only the last leg's."""
        record = trace.read_record(recorded_run[0])
        target = next(t for t in record.targets
                      if t["name"] == "cluster-faults")
        profiled = sum(p.launches for p in target["profiles"])
        legs = json.loads((Path(recorded_run[0]).parent
                           / "BENCH_cluster_faults.json").read_text())["legs"]
        done = sum(leg["launches"] for leg in legs.values())
        section = _section(_report(capsys, recorded_run[0]),
                           "cluster-faults")
        assert done <= profiled <= _launches(section)

    def test_fig7_section_profiles_all_five_apps(self, clean_state,
                                                 tmp_path, monkeypatch):
        """fig7 resets the runtime before each app's HPL variant; the
        record still holds both variants of all five apps."""
        monkeypatch.setattr(runner, "_problems_tesla",
                            runner._problems_opt_tiny)
        path = str(tmp_path / "fig7.jsonl")
        assert bench_main(["fig7", "--record", path]) == 0
        (target,) = trace.read_record(path).targets
        assert {p.kernel for p in target["profiles"]} == {
            "ep", "ep_hpl_kernel", "floydWarshallPass", "floyd_hpl_kernel",
            "matrixTranspose", "transpose_hpl_kernel", "spmv",
            "spmv_hpl_kernel", "reduce", "reduction_hpl_kernel"}

    def test_trace_flag_does_not_leak_enabled_tracer(self, clean_state,
                                                     tmp_path):
        assert bench_main(["table1", "--record",
                           str(tmp_path / "t.jsonl")]) == 0
        assert trace.get_tracer() is clean_state[0]
        assert not trace.is_enabled()

    def test_failing_target_still_writes_the_record(
            self, clean_state, tmp_path, monkeypatch):
        def boom(_ep_class):
            with trace.span("doomed", category="test"):
                raise ValueError("boom")

        monkeypatch.setattr(runner, "run_ep", boom)
        path = str(tmp_path / "run.jsonl")
        with pytest.raises(ValueError, match="boom"):
            bench_main(["ep", "--record", path])
        record = trace.read_record(path)
        assert record.error == {"type": "ValueError", "message": "boom"}
        assert [t["name"] for t in record.targets] == ["ep"]
        (target_span,) = [s for s in record.spans if s.name == "target:ep"]
        assert target_span.attrs["error"] == "ValueError"
        assert any(s.name == "doomed" for s in record.spans)
        assert trace.get_tracer() is clean_state[0]
        assert prof.get_profiler() is clean_state[1]
