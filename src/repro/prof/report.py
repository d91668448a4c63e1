"""Profile renderers: annotated source, flamegraph, roofline, hot lines.

All renderers take :class:`~repro.prof.core.KernelProfile` objects
(usually the merged-by-kernel view from ``Profiler.merged()``) and
return strings — ``python -m repro.trace`` prints them from a run
record, tests golden-match them.

Formats
-------
``annotate``
    The kernel's generated OpenCL C source with one stat gutter per
    line: share of modeled cost, dynamic executions, ops, global bytes
    and transactions, coalescing efficiency, SIMT occupancy.  Divergent
    branches and low-occupancy regions are summarized underneath.
``flame``
    Brendan Gregg's collapsed-stack format, one frame stack per source
    line (``device;kernel;L<n> <source>``), weighted by modeled cost in
    nanoseconds — feed it to any flamegraph renderer.
``roofline``
    Per-device table of arithmetic intensity against the compute and
    bandwidth ceilings, labeling each kernel compute- or memory-bound.
``hotlines``
    The few costliest source lines of each kernel (the run report's
    per-target block).
"""

from __future__ import annotations

from .core import KernelProfile

#: annotate: a line must carry at least this cost share to be flagged hot
HOT_THRESHOLD = 0.10

_RULE_WIDTH = 78


def _rule() -> str:
    return "-" * _RULE_WIDTH


def _fmt_count(value: float) -> str:
    value = float(value)
    if value >= 1e9:
        return f"{value / 1e9:.1f}G"
    if value >= 1e6:
        return f"{value / 1e6:.1f}M"
    if value >= 1e4:
        return f"{value / 1e3:.1f}k"
    if value == int(value):
        return str(int(value))
    return f"{value:.1f}"


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f}ms"
    return f"{seconds * 1e6:.2f}us"


def _profile_header(profile: KernelProfile) -> list[str]:
    out = [
        f"kernel {profile.kernel}  [{profile.engine} engine @ "
        f"{profile.device}]",
        f"  launches={profile.launches}  work_items={profile.work_items}"
        f"  work_groups={profile.work_groups}"
        f"  modeled_time={_fmt_seconds(profile.total_s)}",
    ]
    ai = profile.arithmetic_intensity
    ai_txt = f"{ai:.3f}" if ai != float("inf") else "inf"
    out.append(
        f"  bound={profile.bound}  AI={ai_txt} ops/B"
        f"  ridge={profile.ridge_point:.3f} ops/B"
        f"  compute={_fmt_seconds(profile.compute_s)}"
        f"  memory={_fmt_seconds(profile.memory_s)}")
    return out


def annotate(profile: KernelProfile) -> str:
    """Annotated-source view of one kernel profile."""
    total_cost = profile.line_cost_total()
    src_lines = profile.source.splitlines()
    out = _profile_header(profile)
    out.append(f"  attributed: {profile.attributed_fraction() * 100.0:.1f}%"
               " of modeled cost on source lines")
    out.append(_rule())
    out.append(f"{'line':>5} {'cost%':>6} {'execs':>8} {'ops':>8}"
               f" {'bytes':>8} {'tx':>6} {'coal%':>6} {'occ%':>5}  source")
    out.append(_rule())

    # source lines, plus any profiled line past the end of the source
    extra = sorted(line for line in profile.lines if line > len(src_lines))
    for lineno in [*range(1, len(src_lines) + 1), *extra]:
        text = src_lines[lineno - 1] if lineno - 1 < len(src_lines) else ""
        rec = profile.lines.get(lineno)
        if rec is None:
            out.append(f"{lineno:>5} {'':>6} {'':>8} {'':>8}"
                       f" {'':>8} {'':>6} {'':>6} {'':>5}  {text}")
            continue
        share = rec.cost_seconds / total_cost if total_cost > 0 else 0.0
        coal = (f"{rec.coalescing(profile.segment_bytes) * 100.0:.0f}"
                if rec.transactions > 0 and not profile.is_cpu else "")
        occ = (f"{rec.occupancy * 100.0:.0f}"
               if rec.lane_slots > 0 else "")
        marker = " *HOT*" if share >= HOT_THRESHOLD else ""
        out.append(
            f"{lineno:>5} {share * 100.0:>5.1f}% {_fmt_count(rec.execs):>8}"
            f" {_fmt_count(rec.ops):>8} {_fmt_count(rec.mem_bytes):>8}"
            f" {_fmt_count(rec.transactions):>6} {coal:>6} {occ:>5}"
            f"  {text}{marker}")

    unattributed = profile.lines.get(0)
    if unattributed is not None and total_cost > 0:
        share = unattributed.cost_seconds / total_cost
        out.append(_rule())
        out.append(f"(unattributed: {share * 100.0:.1f}% of cost on"
                   f" instructions without a source line)")

    divergent = profile.divergent_branches()
    if divergent:
        out.append(_rule())
        out.append("divergent branches (worst first):")
        for line, rec in divergent[:10]:
            out.append(
                f"  line {line:>4}: {rec.events} exec(s),"
                f" {rec.divergent} divergent,"
                f" {rec.taken_fraction * 100.0:.1f}% of active lanes"
                " took the then-side")

    low_occ = sorted(
        ((line, rec) for line, rec in profile.lines.items()
         if line > 0 and rec.lane_slots > 0 and rec.occupancy < 0.999),
        key=lambda kv: kv[1].occupancy)
    if low_occ:
        out.append(_rule())
        out.append("lane occupancy below 100%:")
        for line, rec in low_occ[:10]:
            out.append(f"  line {line:>4}: {rec.occupancy * 100.0:.1f}%"
                       f" average active lanes")
    out.append(_rule())
    return "\n".join(out)


def _frame_text(lineno: int, src_lines: list[str]) -> str:
    if lineno <= 0:
        return "L0 <unattributed>"
    text = (src_lines[lineno - 1].strip()
            if lineno - 1 < len(src_lines) else "")
    text = text.replace(";", ",")   # ';' separates collapsed-stack frames
    return f"L{lineno} {text}".strip()


def flame(profiles: list[KernelProfile]) -> str:
    """Collapsed-stack flamegraph: one line per source line, cost in ns."""
    out = []
    for profile in profiles:
        src_lines = profile.source.splitlines()
        root = f"{profile.device};{profile.kernel} [{profile.engine}]"
        for lineno, rec in sorted(profile.lines.items()):
            weight = int(round(rec.cost_seconds * 1e9))
            if weight <= 0:
                continue
            out.append(f"{root};{_frame_text(lineno, src_lines)} {weight}")
    return "\n".join(out)


def roofline(profiles: list[KernelProfile]) -> str:
    """Per-device roofline tables over every profiled kernel."""
    by_device: dict[str, list[KernelProfile]] = {}
    for profile in profiles:
        by_device.setdefault(profile.device, []).append(profile)

    out = []
    for device in sorted(by_device):
        batch = by_device[device]
        spec = batch[0]
        out.append(f"roofline @ {device}: "
                   f"compute {spec.compute_ceiling / 1e9:.1f} Gops/s, "
                   f"bandwidth {spec.bandwidth_ceiling / 1e9:.1f} GB/s, "
                   f"ridge {spec.ridge_point:.3f} ops/B")
        out.append(_rule())
        out.append(f"{'kernel':<28} {'engine':<8} {'AI ops/B':>9}"
                   f" {'compute':>10} {'memory':>10}  bound")
        out.append(_rule())
        for profile in sorted(batch, key=lambda p: p.kernel):
            ai = profile.arithmetic_intensity
            ai_txt = f"{ai:>9.3f}" if ai != float("inf") else f"{'inf':>9}"
            out.append(
                f"{profile.kernel[:27]:<28} {profile.engine:<8} {ai_txt}"
                f" {_fmt_seconds(profile.compute_s):>10}"
                f" {_fmt_seconds(profile.memory_s):>10}"
                f"  {profile.bound}-bound")
        out.append(_rule())
        out.append("")
    return "\n".join(out).rstrip("\n")


def hotlines(profiles: list[KernelProfile], top: int = 5) -> str:
    """Compact per-kernel hot-line tables."""
    out = []
    for profile in profiles:
        src_lines = profile.source.splitlines()
        total_cost = profile.line_cost_total()
        out.extend(_profile_header(profile))
        ranked = sorted(
            ((line, rec) for line, rec in profile.lines.items()
             if line > 0 and rec.cost_seconds > 0),
            key=lambda kv: -kv[1].cost_seconds)[:top]
        for line, rec in ranked:
            share = rec.cost_seconds / total_cost if total_cost else 0.0
            text = (src_lines[line - 1].strip()
                    if line - 1 < len(src_lines) else "")
            out.append(f"    {share * 100.0:>5.1f}%  L{line:<4} {text[:56]}")
        out.append("")
    return "\n".join(out).rstrip("\n")
