"""Renderers of a run: Chrome ``chrome://tracing`` JSON and the report.

Chrome trace (catapult) format
------------------------------
:func:`chrome_trace` emits the JSON object format with complete ("X")
events.  Wall-clock spans go on one process track ("wall clock (host)"),
with one thread row per Python thread; each simulated device gets its
own process track ("sim device: <name>") whose timestamps are the
device's simulated nanoseconds (shown as microseconds, the unit catapult
expects).  Load the file at ``chrome://tracing`` or https://ui.perfetto.dev.

Report
------
:func:`report` renders a :class:`~repro.trace.record.Record` as text:
the span table with inclusive and self (exclusive) time, then per
target the runtime metrics, the recovery events and, when the profiler
ran, the hot kernel lines and the roofline table.  A target's numbers
come from the spans under its ``target:<name>`` span and from the
counters it added, so each section covers that target alone, across
every ``reset_runtime()`` inside it.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict

from ..prof.report import hotlines, roofline
from .core import Span

#: pid of the wall-clock (host) track in the Chrome trace
WALL_PID = 1
#: first pid handed to simulated-device tracks
DEVICE_PID_BASE = 2


def _json_safe(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return str(value)


def chrome_trace(spans: list[Span]) -> dict:
    """The catapult JSON-object form of ``spans`` (see module docs)."""
    events: list[dict] = []
    device_pids: dict[str, int] = {}
    thread_tids: dict[int, int] = {}

    events.append({"name": "process_name", "ph": "M", "pid": WALL_PID,
                   "tid": 0, "args": {"name": "wall clock (host)"}})

    for span in spans:
        if span.clock == "sim":
            device = span.device or "device"
            pid = device_pids.get(device)
            if pid is None:
                pid = DEVICE_PID_BASE + len(device_pids)
                device_pids[device] = pid
                events.append({"name": "process_name", "ph": "M",
                               "pid": pid, "tid": 0,
                               "args": {"name": f"sim device: {device}"}})
                events.append({"name": "thread_name", "ph": "M",
                               "pid": pid, "tid": 0,
                               "args": {"name": "simulated timeline"}})
            tid = 0
        else:
            pid = WALL_PID
            tid = thread_tids.get(span.thread_id)
            if tid is None:
                tid = len(thread_tids)
                thread_tids[span.thread_id] = tid
                events.append({"name": "thread_name", "ph": "M",
                               "pid": pid, "tid": tid,
                               "args": {"name": span.thread_name
                                        or f"thread-{span.thread_id}"}})
        args = {k: _json_safe(v) for k, v in span.attrs.items()}
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": span.start_us,
            "dur": span.duration_us,
            "pid": pid,
            "tid": tid,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: list[Span]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(spans), fh, indent=1)
        fh.write("\n")


# -- report ------------------------------------------------------------------


def _fmt_us(us: float) -> str:
    if us >= 1e6:
        return f"{us / 1e6:.3f}s"
    if us >= 1e3:
        return f"{us / 1e3:.3f}ms"
    return f"{us:.1f}us"


def span_table(spans: list[Span]) -> str:
    """Spans aggregated by (clock, track, category, name), most self
    time first.

    Wall-clock rows show where the host spent real time (capture,
    codegen, build); sim rows show the modelled device timeline per
    device (transfers, kernel executions).  A span's self time is its
    duration minus those of its direct wall-clock children, so the wall
    self times add up to the time of the root wall spans.
    """
    children: dict = defaultdict(float)
    for span in spans:
        if span.clock == "wall" and span.parent_id is not None:
            children[span.parent_id] += span.duration_us
    groups: dict[tuple, list] = defaultdict(list)
    for span in spans:
        track = (span.device or "host") if span.clock == "sim" else "wall"
        groups[(span.clock, track, span.category, span.name)].append(
            (span.duration_us,
             span.duration_us - children.get(span.span_id, 0.0)))

    header = (f"{'clock':<6}{'track':<22}{'span':<28}{'count':>6}"
              f"{'total':>11}{'self':>11}{'mean':>11}{'max':>11}")
    rule = "-" * len(header)
    out = [f"trace summary: {len(spans)} span(s)", rule, header, rule]
    wall_self = 0.0
    for key, batch in sorted(groups.items(),
                             key=lambda kv: -sum(o for _d, o in kv[1])):
        clock, track, category, name = key
        total = sum(d for d, _o in batch)
        own = sum(o for _d, o in batch)
        wall_self += own if clock == "wall" else 0.0
        out.append(f"{clock:<6}{track[:20]:<22}"
                   f"{(category + '.' + name)[:26]:<28}{len(batch):>6}"
                   f"{_fmt_us(total):>11}{_fmt_us(own):>11}"
                   f"{_fmt_us(total / len(batch)):>11}"
                   f"{_fmt_us(max(d for d, _o in batch)):>11}")
    if not groups:
        out.append("(no spans)")
    wall_ids = {s.span_id for s in spans if s.clock == "wall"}
    roots = [s.duration_us for s in spans if s.clock == "wall"
             and s.parent_id not in wall_ids]
    out += [rule, f"wall self total {_fmt_us(wall_self)} = "
                  f"{len(roots)} root span(s) {_fmt_us(sum(roots))}"]
    return "\n".join(out)


def _under(spans: list[Span], root_id) -> list[Span]:
    """The spans below the span ``root_id``, at any depth; a sim span
    is below the wall span that was open when its command was
    enqueued."""
    if root_id is None:
        return []
    parent = {s.span_id: s.parent_id for s in spans}
    known = {root_id: True}

    def below(span_id) -> bool:
        path = []
        while span_id is not None and span_id not in known:
            known[span_id] = False      # ends a parent cycle, if any
            path.append(span_id)
            span_id = parent.get(span_id)
        verdict = known.get(span_id, False)
        known.update(dict.fromkeys(path, verdict))
        return verdict

    return [s for s in spans if below(s.parent_id)]


def _number_attr(span: Span, key: str):
    """A numeric span attribute, 0 if absent or not a number (a record
    is outside input)."""
    value = span.attrs.get(key, 0)
    return value if isinstance(value, (int, float)) else 0


def _metrics(target: dict, spans: list[Span]) -> list[str]:
    """Headline numbers of one target, from its own ``spans``: the HPL
    runtime's evals, captures, builds and launches, and the simulated
    transfers of every queue."""
    proc, meta = target["metrics"]["counters"], target["meta"]
    hpl = defaultdict(list)
    traffic = {"h2d": [0, 0, 0.0], "d2h": [0, 0, 0.0]}
    for span in spans:
        if span.clock == "wall" and span.category == "hpl":
            hpl[span.name].append(span)
        elif span.clock == "sim" and span.name in ("write_buffer",
                                                   "read_buffer"):
            way = traffic["h2d" if span.name == "write_buffer" else "d2h"]
            way[0] += 1
            way[1] += _number_attr(span, "bytes")
            way[2] += span.duration_us * 1e-6
    hits = sum(s.attrs.get("cache") == "hit" for s in hpl["eval"])
    built = len(hpl["build"])
    rate = hits / (hits + built) if hits + built else 0.0
    launches = sum("error" not in s.attrs for s in hpl["launch"])

    def seconds(name, attr):
        return sum(_number_attr(s, attr) for s in hpl[name])

    def line(way):
        count, nbytes, secs = traffic[way]
        return (f"{f'{way} traffic (every queue)':<36}{nbytes:>12}"
                f" bytes in {count} transfer(s), {secs:.6f}s simulated")

    return [f"runtime metrics (engine {meta.get('engine')}, "
            f"-O{meta.get('opt_level')})",
            f"{'HPL kernel cache hit rate':<36}{100.0 * rate:>10.1f}%"
            f"   ({hits} hits / {built} builds)",
            f"{'HPL capture + codegen time':<36}"
            f"{seconds('capture', 'codegen_seconds'):>11.6f}s",
            f"{'HPL OpenCL build time':<36}"
            f"{seconds('build', 'build_seconds'):>11.6f}s",
            f"{'HPL kernel launches':<36}{launches:>12}",
            line("h2d"), line("d2h"),
            f"{'disk cache':<36}"
            f"{proc.get('hpl.disk_cache_hits', 0):>12} hit(s), "
            f"{proc.get('hpl.disk_cache_misses', 0)} miss(es), "
            f"{proc.get('hpl.disk_cache_bytes', 0)} bytes written"]


def _recovery(target: dict, spans: list[Span]) -> list[str]:
    """The target's ``recover`` spans by action and the ``cluster.*``
    counters it moved."""
    actions = Counter(str(s.attrs.get("action")) for s in spans
                      if s.name == "recover" and s.clock == "wall")
    out = ["recovery: " + (", ".join(f"{action} x{n}" for action, n
                                     in sorted(actions.items()))
                           or "none")]
    out += [f"  {name:<42}{value:>12}" for name, value
            in target["metrics"]["counters"].items()
            if name.startswith("cluster.") and value]
    return out


def report(record) -> str:
    """The text view of a run record (see the module docs)."""
    error = record.error
    out = [f"run: {' '.join(record.argv) or '(no arguments)'}",
           "error: " + (f"{error['type']}: {error['message']}"
                        if error else "none"),
           "", span_table(record.spans)]
    for target in record.targets:
        own = _under(record.spans, target["span"])
        out += ["", f"== target {target['name']} " + "=" * 50]
        out += _metrics(target, own)
        out += _recovery(target, own)
        if target["profiles"]:
            out += ["", hotlines(target["profiles"]), "",
                    roofline(target["profiles"])]
    return "\n".join(out)
