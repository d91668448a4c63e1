"""``python -m repro.trace <command> RECORD [-o OUT]`` — render the
run record that ``python -m repro.benchsuite --record`` writes.

A record that cannot be read exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..errors import RecordError
from ..prof.core import merge_profiles
from ..prof.report import annotate, flame, roofline
from .export import chrome_trace, report
from .record import read_record

_COMMANDS = {
    "report": "span table, metrics, recovery, hot lines and roofline",
    "chrome": "chrome://tracing JSON of the spans",
    "annotate": "annotated source of each profiled kernel",
    "flame": "collapsed-stack flamegraph lines",
    "roofline": "compute- vs memory-bound table",
}


def _render(command: str, record, path: str) -> str | None:
    if command == "report":
        return report(record)
    if command == "chrome":
        return json.dumps(chrome_trace(record.spans), indent=1)
    profiles = merge_profiles(p for t in record.targets
                              for p in t["profiles"])
    if not profiles:
        print(f"error: {path} contains no profiles", file=sys.stderr)
        return None
    if command == "annotate":
        return "\n\n".join(annotate(p) for p in profiles)
    return flame(profiles) if command == "flame" else roofline(profiles)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace", description="Render a run record.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("record", help="JSONL run record")
        p.add_argument("-o", "--output", help="write to a file")
    ns = parser.parse_args(argv)

    try:
        record = read_record(ns.record)
    except OSError as exc:
        print(f"error: cannot read {ns.record}: {exc}", file=sys.stderr)
        return 2
    except RecordError as exc:
        print(f"error: {ns.record} is not a run record: {exc}",
              file=sys.stderr)
        return 2
    text = _render(ns.command, record, ns.record)
    if text is None:
        return 2
    if ns.output:
        with open(ns.output, "w", encoding="utf-8") as fh:
            fh.write(text.rstrip("\n") + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
