"""The run record: round trip, typed rejection of malformed lines, and
a property test that no line edit makes a renderer crash."""

from __future__ import annotations

import contextlib
import io
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.hpl as hpl
from repro import prof, trace
from repro.errors import RecordError
from repro.hpl import Array, float_, idx, reset_runtime
from repro.prof.core import merge_profiles
from repro.trace.__main__ import main as trace_cli

COMMANDS = ("report", "chrome", "annotate", "flame", "roofline")


def affine(y, x):
    y[idx] = x[idx] * 3.0 + 1.0


@pytest.fixture(scope="module")
def good_lines(tmp_path_factory) -> list[str]:
    """The lines of a small real record: one target with a profiled
    kernel and one ``recover`` span."""
    saved = trace.get_tracer(), prof.get_profiler()
    tracer = trace.set_tracer(trace.Tracer())
    prof.set_profiler(prof.Profiler(enabled=True))
    try:
        reset_runtime()
        with trace.span("target:tiny", category="benchsuite") as target:
            x, y = Array(float_, 64), Array(float_, 64)
            hpl.eval(affine)(y, x)
            with trace.span("recover", category="cluster", action="retry"):
                pass
        profiles = merge_profiles(prof.get_profiler().drain())
    finally:
        trace.set_tracer(saved[0])
        prof.set_profiler(saved[1])
        reset_runtime()
    path = tmp_path_factory.mktemp("record") / "run.jsonl"
    trace.write_record(str(path), ["tiny"], None, tracer.spans(), [
        {"name": "tiny", "span": target.span_id,
         "meta": {"engine": "jit", "opt_level": 2},
         "metrics": trace.get_registry().snapshot(),
         "profiles": profiles}])
    return path.read_text().splitlines()


def _cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = trace_cli(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _write(tmp_path, lines, name="run.jsonl") -> str:
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


class TestRoundTrip:
    def test_every_line_type_reads_back(self, good_lines, tmp_path):
        record = trace.read_record(_write(tmp_path, good_lines))
        assert record.argv == ["tiny"] and record.error is None
        assert {s.name for s in record.spans} >= {"target:tiny", "recover"}
        (target,) = record.targets
        assert target["name"] == "tiny"
        (profile,) = target["profiles"]
        assert profile.kernel == "affine"
        assert profile.attributed_fraction() > 0.9

    def test_report_shows_metrics_recovery_and_hot_lines(
            self, good_lines, tmp_path):
        rc, out, _err = _cli("report", _write(tmp_path, good_lines))
        assert rc == 0
        assert "== target tiny" in out
        assert "HPL kernel cache hit rate" in out
        assert re.search(r"HPL kernel launches +1\n", out)
        assert "recovery: retry x1" in out
        assert "kernel affine" in out and "%  L" in out
        assert "roofline @" in out

    def test_error_field_round_trips(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        trace.write_record(path, [], KeyError("k"), [], [])
        assert trace.read_record(path).error == {"type": "KeyError",
                                                 "message": "'k'"}
        rc, out, _err = _cli("report", path)
        assert rc == 0 and "error: KeyError: 'k'" in out


def test_report_takes_a_target_s_spans_from_its_own_subtree(tmp_path):
    """Only spans under the target's span count, a parent cycle ends
    the walk, and a non-numeric attribute counts as zero."""
    def span(span_id, parent, name, clock="wall", **attrs):
        s = trace.Span(name=name, category="hpl" if clock == "wall"
                       else "simcl", span_id=span_id, parent_id=parent,
                       thread_id=1, thread_name="main", start_us=0.0,
                       clock=clock, device=None if clock == "wall"
                       else "dev", attrs=attrs)
        s.end_us = 2.0
        return s

    spans = [span(1, None, "target:t"), span(2, 1, "launch"),
             span(3, 2, "write_buffer", "sim", bytes=64),
             span(4, 1, "write_buffer", "sim", bytes="x"),
             span(5, None, "launch"), span(6, 7, "launch"),
             span(7, 6, "launch")]
    path = str(tmp_path / "run.jsonl")
    empty = trace.MetricsRegistry().snapshot()
    trace.write_record(path, ["t"], None, spans, [
        {"name": "t", "span": 1, "meta": {}, "metrics": empty,
         "profiles": []}])
    rc, out, _err = _cli("report", path)
    assert rc == 0
    assert re.search(r"HPL kernel launches +1\n", out)
    assert re.search(r"h2d traffic \(every queue\) +64 bytes in "
                     r"2 transfer\(s\)", out)


def _replace(lines, index, text):
    return lines[:index] + [text] + lines[index + 1:]


def _set_field(lines, index, field, value):
    row = json.loads(lines[index])
    row[field] = value
    return _replace(lines, index, json.dumps(row))


BAD = {
    "empty": lambda lines: [],
    "blank lines only": lambda lines: ["", "  "],
    "not JSON": lambda lines: _replace(lines, 1, "not json"),
    "JSON list": lambda lines: _replace(lines, 1, "[1, 2]"),
    "JSON number": lambda lines: _replace(lines, 1, "3"),
    "unknown type": lambda lines: _set_field(lines, 1, "type", "nope"),
    "unhashable type": lambda lines: _set_field(lines, 1, "type", [1]),
    "version 1": lambda lines: _set_field(lines, 0, "version", 1),
    "version 3": lambda lines: _set_field(lines, 0, "version", 3),
    "run lacks argv": lambda lines: _replace(
        lines, 0, '{"type": "run", "version": 2, "error": null}'),
    "no run line": lambda lines: lines[1:],
    "two run lines": lambda lines: lines[:1] + lines,
    "string duration": lambda lines: _set_field(lines, 1, "dur_us", "x"),
    "NaN duration": lambda lines: _replace(
        lines, 1, lines[1].replace('"dur_us": ', '"dur_us": NaN, "x": ')),
    "huge duration": lambda lines: _set_field(lines, 1, "dur_us", 1e300),
    "attrs list": lambda lines: _set_field(lines, 1, "attrs", [1]),
    "profile first": lambda lines: [lines[0], lines[-1]],
}


@pytest.mark.parametrize("damage", BAD.values(), ids=BAD.keys())
def test_malformed_record_is_a_record_error(good_lines, tmp_path, damage):
    path = _write(tmp_path, damage(good_lines))
    with pytest.raises(RecordError):
        trace.read_record(path)
    rc, out, err = _cli("report", path)
    assert rc == 2 and out == ""
    assert "is not a run record" in err


def test_non_utf8_bytes_are_a_record_error(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_bytes(b"\xff\xfe\x00garbage\n")
    with pytest.raises(RecordError):
        trace.read_record(str(path))


def test_profile_with_bad_line_key_is_a_record_error(good_lines, tmp_path):
    row = json.loads(good_lines[-1])
    assert row["type"] == "profile"
    row["lines"]["x"] = row["lines"].popitem()[1]
    with pytest.raises(RecordError):
        trace.read_record(_write(tmp_path, good_lines[:-1]
                                 + [json.dumps(row)]))


def test_record_without_profiles_has_nothing_to_annotate(good_lines,
                                                         tmp_path):
    path = _write(tmp_path, good_lines[:-1])
    assert _cli("report", path)[0] == 0
    rc, _out, err = _cli("annotate", path)
    assert rc == 2 and "contains no profiles" in err


# -- property: any line edit gives a readable record or RecordError ---------

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def _set_nested(value, path, leaf):
    """``value`` with the element ``path`` leads to replaced by
    ``leaf`` (each step picks a child modulo the container's size)."""
    if not path or not isinstance(value, (dict, list)) or not value:
        return leaf
    keys = list(value) if isinstance(value, dict) else range(len(value))
    key = list(keys)[path[0] % len(value)]
    value[key] = _set_nested(value[key], path[1:], leaf)
    return value


_edits = st.one_of(
    st.tuples(st.just("delete"), st.integers(0)),
    st.tuples(st.just("duplicate"), st.integers(0)),
    st.tuples(st.just("truncate"), st.integers(0),
              st.floats(0, 1, exclude_max=True)),
    st.tuples(st.just("flip"), st.integers(0),
              st.floats(0, 1, exclude_max=True), st.integers(0, 7)),
    st.tuples(st.just("replace"), st.integers(0), _json),
    st.tuples(st.just("nested"), st.integers(0),
              st.lists(st.integers(0), min_size=1, max_size=4), _json))


def _apply(lines: list[str], edit) -> list[str]:
    kind, where, *args = edit
    i = where % len(lines)
    line = lines[i]
    if kind == "delete":
        return lines[:i] + lines[i + 1:]
    if kind == "duplicate":
        return lines[:i + 1] + lines[i:]
    if kind == "truncate":
        return _replace(lines, i, line[:int(args[0] * len(line))])
    if kind == "flip":
        raw = bytearray(line.encode())
        if raw:
            raw[int(args[0] * len(raw))] ^= 1 << args[1]
        return _replace(lines, i, raw.decode("utf-8", "replace"))
    if kind == "replace":
        return _replace(lines, i, json.dumps(args[0]))
    try:
        row = json.loads(line)
    except ValueError:          # an earlier edit broke this line
        return lines
    return _replace(lines, i, json.dumps(
        _set_nested(row, args[0], args[1])))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(edits=st.lists(_edits, min_size=1, max_size=3))
def test_edited_record_reads_or_is_rejected(good_lines, tmp_path, edits):
    lines = list(good_lines)
    for edit in edits:
        if lines:
            lines = _apply(lines, edit)
    path = _write(tmp_path, lines)
    try:
        trace.read_record(path)
        readable = True
    except RecordError:
        readable = False
    for command in COMMANDS:
        rc, _out, err = _cli(command, path)
        if not readable:
            assert rc == 2 and "is not a run record" in err
        elif command in ("report", "chrome"):
            assert rc == 0
        else:
            assert rc in (0, 2)
