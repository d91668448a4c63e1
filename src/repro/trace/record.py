"""The run record: everything one benchsuite run observed, in one file.

``python -m repro.benchsuite <target> --record run.jsonl`` writes it and
``python -m repro.trace`` renders it.  Every line is one JSON object
whose ``type`` says what it holds:

``run``
    The first line: the format ``version``, the ``argv`` and the
    ``error`` that ended the run (``{"type", "message"}``, or null).
``span``
    One finished span, :meth:`Span.to_dict`.
``target``
    One per benchsuite target: its ``name``, the id of its
    ``target:<name>`` ``span``, the ``meta`` that ``--json`` prints,
    and a snapshot of the process-global metrics registry
    (``metrics``) whose counters, and the pass counts in ``meta``, are
    what this target added.  The report derives the HPL runtime
    numbers from the spans under the target's span.
``profile``
    One merged :meth:`KernelProfile.to_dict` per kernel, belonging to
    the ``target`` line before it.

:func:`read_record` checks every field the renderers use and raises
:class:`~repro.errors.RecordError` for anything else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..errors import RecordError
from ..prof.core import BranchStat, KernelProfile, LineStat
from .core import Span
from .export import _json_safe

#: bump when a line's shape changes; other versions are rejected
RECORD_VERSION = 2

#: numbers beyond this are not measurements (and would overflow the
#: renderers' arithmetic); the bound also rejects NaN and infinities
_MAX_MAGNITUDE = 1e18


@dataclass
class Record:
    """A parsed run record; each target dict also holds its
    ``profiles`` as :class:`KernelProfile` objects."""

    argv: list
    error: dict | None
    spans: list
    targets: list


def write_record(path: str, argv, error, spans, targets) -> None:
    """Write a run record; ``error`` is the exception that ended the
    run or None, ``targets`` are target-line dicts plus ``profiles``."""
    with open(path, "w", encoding="utf-8") as fh:
        def put(kind, row):
            fh.write(json.dumps(_json_safe({"type": kind, **row})) + "\n")

        put("run", {"version": RECORD_VERSION, "argv": list(argv),
                    "error": None if error is None else {
                        "type": type(error).__name__,
                        "message": str(error)}})
        for span in spans:
            put("span", span.to_dict())
        for target in targets:
            put("target", {k: v for k, v in target.items()
                           if k != "profiles"})
            for profile in target["profiles"]:
                put("profile", profile.to_dict())


# -- reading -----------------------------------------------------------------

def _num(v) -> bool:
    return isinstance(v, (int, float)) and abs(v) < _MAX_MAGNITUDE


def _is(*types):
    return lambda v: isinstance(v, types)


def _or_none(check):
    return lambda v: v is None or check(v)


def _num_map(v) -> bool:
    return isinstance(v, dict) and all(_num(x) for x in v.values())


def _stat_map(fields):
    """``{"<line>": {field: number}}``, line numbers non-negative."""
    def check(v):
        if not isinstance(v, dict):
            return False
        for key, rec in v.items():
            try:
                line = int(key)
            except ValueError:
                return False
            if not (0 <= line < _MAX_MAGNITUDE and isinstance(rec, dict)
                    and all(_num(rec.get(f)) for f in fields)):
                return False
        return True
    return check


def _snapshot(v) -> bool:
    return (isinstance(v, dict) and _num_map(v.get("counters"))
            and _num_map(v.get("gauges"))
            and isinstance(v.get("histograms"), dict)
            and all(_num_map(h) for h in v["histograms"].values()))


_STR = _is(str)

_FIELDS = {
    "run": {"version": lambda v: v == RECORD_VERSION,
            "argv": lambda v: isinstance(v, list)
            and all(isinstance(a, str) for a in v),
            "error": _or_none(lambda v: isinstance(v, dict)
                              and all(isinstance(v.get(k), str)
                                      for k in ("type", "message")))},
    "span": {"name": _STR, "cat": _STR, "id": _num,
             "parent": _or_none(_num), "tid": _num, "thread": _STR,
             "clock": lambda v: v in ("wall", "sim"),
             "device": _or_none(_is(str)), "ts_us": _num, "dur_us": _num,
             "attrs": _is(dict)},
    "target": {"name": _STR, "span": _or_none(_num), "meta": _is(dict),
               "metrics": _snapshot},
    "profile": {"kernel": _STR, "engine": _STR, "device": _STR,
                "source": _STR, "is_cpu": _is(bool), "counters": _num_map,
                **dict.fromkeys(
                    ("work_items", "work_groups", "launches", "compute_s",
                     "memory_s", "barrier_s", "launch_s", "total_s",
                     "weighted_ops", "bytes_moved", "compute_ceiling",
                     "bandwidth_ceiling", "segment_bytes"), _num),
                "lines": _stat_map(LineStat._FIELDS),
                "branches": _stat_map(BranchStat.__slots__)},
}


def _parse(lineno: int, text: str) -> dict:
    where = f"line {lineno}"
    try:
        row = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise RecordError(f"{where} is not JSON: {exc}") from None
    if not isinstance(row, dict):
        raise RecordError(f"{where} is not a JSON object")
    kind = row.get("type")
    fields = _FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise RecordError(f"{where} has unknown type {kind!r:.60}")
    for name, check in fields.items():
        if name not in row:
            raise RecordError(f"{where}: {row['type']} lacks {name!r}")
        if not check(row[name]):
            raise RecordError(f"{where}: {row['type']} has a bad "
                              f"{name!r}: {row[name]!r:.60}")
    return row


def read_record(path: str) -> Record:
    """Parse a run record; raises :class:`RecordError` if any line is
    malformed and :class:`OSError` if the file cannot be read."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        rows = [(n, _parse(n, text)) for n, text in enumerate(fh, 1)
                if text.strip()]
    if not rows:
        raise RecordError(f"{path} is empty")
    (_, run), rest = rows[0], rows[1:]
    if run["type"] != "run" or any(r["type"] == "run" for _, r in rest):
        raise RecordError(f"{path} must start with its only run line")
    record = Record(run["argv"], run["error"], [], [])
    for lineno, row in rest:
        kind = row["type"]
        if kind == "span":
            record.spans.append(Span.from_dict(row))
        elif kind == "target":
            record.targets.append({**row, "profiles": []})
        elif not record.targets:
            raise RecordError(f"line {lineno}: profile before any target")
        else:
            record.targets[-1]["profiles"].append(
                KernelProfile.from_dict(row))
    return record
