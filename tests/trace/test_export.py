"""Renderers: Chrome-trace validity, record round trip, span table, CLI."""

from __future__ import annotations

import json

import pytest

from repro import trace
from repro.errors import RecordError
from repro.trace.__main__ import main as trace_cli


def _make_spans(tracer):
    with trace.span("outer", category="hpl", kernel="saxpy"):
        with trace.span("inner", category="clc"):
            pass
        trace.device_event("GPU0", "ndrange_kernel", 2_000, 9_000,
                           category="simcl", kernel="saxpy")
        trace.device_event("GPU1", "write_buffer", 0, 5_000,
                           category="simcl", bytes=1024)
    return tracer.spans()


class TestChromeTrace:
    def test_document_is_valid_catapult_json(self, tracer, tmp_path):
        spans = _make_spans(tracer)
        path = tmp_path / "trace.json"
        trace.write_chrome_trace(str(path), spans)
        doc = json.loads(path.read_text())

        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] == "ms"
        for ev in doc["traceEvents"]:
            assert ev["ph"] in ("X", "M")
            assert isinstance(ev["pid"], int)
            assert isinstance(ev["tid"], int)
            assert "name" in ev
            if ev["ph"] == "X":
                assert isinstance(ev["ts"], (int, float))
                assert isinstance(ev["dur"], (int, float))
                assert ev["dur"] >= 0
                json.dumps(ev["args"])     # args must be serializable

    def test_wall_and_device_tracks_are_separate_pids(self, tracer):
        doc = trace.chrome_trace(_make_spans(tracer))
        x_events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        wall_pids = {e["pid"] for e in x_events
                     if e["cat"] in ("hpl", "clc")}
        sim_pids = {e["pid"] for e in x_events if e["cat"] == "simcl"}
        assert wall_pids == {1}
        assert len(sim_pids) == 2          # one pid per device
        assert 1 not in sim_pids

    def test_process_names_label_the_devices(self, tracer):
        doc = trace.chrome_trace(_make_spans(tracer))
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert "wall clock (host)" in names
        assert "sim device: GPU0" in names
        assert "sim device: GPU1" in names

    def test_sim_timestamps_are_nanoseconds_as_microseconds(self, tracer):
        spans = _make_spans(tracer)
        doc = trace.chrome_trace(spans)
        kernel = [e for e in doc["traceEvents"]
                  if e.get("name") == "ndrange_kernel"][0]
        assert kernel["ts"] == 2.0          # 2000 ns -> 2 us
        assert kernel["dur"] == 7.0

    def test_non_json_attrs_are_stringified(self, tracer):
        with trace.span("s", category="test", shape=(4, 8), obj=object()):
            pass
        doc = trace.chrome_trace(tracer.spans())
        json.dumps(doc)                     # must not raise


def _write(path, spans) -> str:
    trace.write_record(str(path), ["test"], None, spans, [])
    return str(path)


class TestJsonl:
    def test_roundtrip(self, tracer, tmp_path):
        spans = _make_spans(tracer)
        path = _write(tmp_path / "run.jsonl", spans)
        lines = open(path).read().strip().splitlines()
        assert len(lines) == 1 + len(spans)
        rows = [json.loads(line) for line in lines]
        assert rows[0]["type"] == "run"
        assert {r["type"] for r in rows[1:]} == {"span"}

        back = trace.read_record(path).spans
        assert [s.name for s in back] == [s.name for s in spans]
        assert [s.clock for s in back] == [s.clock for s in spans]
        assert [s.parent_id for s in back] == [s.parent_id for s in spans]
        sim = [s for s in back if s.clock == "sim"]
        assert {s.device for s in sim} == {"GPU0", "GPU1"}

    def test_chrome_json_is_not_a_record(self, tracer, tmp_path):
        path = tmp_path / "trace.json"
        trace.write_chrome_trace(str(path), _make_spans(tracer))
        with pytest.raises(RecordError):
            trace.read_record(str(path))


class TestSummary:
    def test_summary_groups_and_counts(self, tracer):
        spans = _make_spans(tracer)
        text = trace.span_table(spans)
        assert f"{len(spans)} span(s)" in text
        assert "hpl.outer" in text
        assert "clc.inner" in text
        assert "simcl.ndrange_kernel" in text
        assert "GPU0" in text and "GPU1" in text

    def test_summary_of_nothing(self):
        assert "(no spans)" in trace.span_table([])

    def test_self_time_excludes_wall_children_only(self):
        def span(name, span_id, parent, dur, clock="wall"):
            s = trace.Span(name, "t", span_id, parent, 1, "main", 0.0,
                           clock=clock, device="GPU0" if clock == "sim"
                           else None)
            s.end_us = dur
            return s

        spans = [span("root", 1, None, 100.0), span("child", 2, 1, 30.0),
                 span("grandchild", 3, 2, 10.0),
                 span("kernel", 4, 1, 50.0, clock="sim")]
        rows = {line.split()[2]: line.split()
                for line in trace.span_table(spans).splitlines()
                if line.startswith(("wall ", "sim "))}
        # columns: clock track span count total self mean max
        assert rows["t.root"][5] == "70.0us"
        assert rows["t.child"][5] == "20.0us"
        assert rows["t.grandchild"][5] == "10.0us"
        assert rows["t.kernel"][5] == "50.0us"
        assert "wall self total 100.0us = 1 root span(s) 100.0us" in \
            trace.span_table(spans)


class TestCli:
    def test_report_command(self, tracer, tmp_path, capsys):
        path = _write(tmp_path / "run.jsonl", _make_spans(tracer))
        assert trace_cli(["report", path]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "simcl.ndrange_kernel" in out
        assert "error: none" in out

    def test_chrome_command(self, tracer, tmp_path, capsys):
        src = _write(tmp_path / "run.jsonl", _make_spans(tracer))
        dst = tmp_path / "chrome.json"
        assert trace_cli(["chrome", src, "-o", str(dst)]) == 0
        doc = json.loads(dst.read_text())
        assert "traceEvents" in doc

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert trace_cli(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err
