"""``repro.prof`` — source-level kernel profiler.

Attributes the cost model's counters back to kernel source lines (via
the ``line`` debug info the clc bytecode carries), tracks SIMT
divergence and lane occupancy in the lock-step jit engine, measures
memory coalescing from the warp address streams, and classifies each
kernel against its device's roofline (compute- vs. memory-bound).

Enable with any of::

    hpl.configure(profile=True)
    HPL_PROFILE=1 python ...
    from repro import prof; prof.enable()

then read results::

    for profile in prof.get_profiler().merged():
        print(report.annotate(profile))

or record a benchsuite run and render it:
``python -m repro.benchsuite ep --record run.jsonl`` then
``python -m repro.trace annotate run.jsonl``.

Disabled (the default), the engines pay one attribute check per launch
and one ``is not None`` check on a local per counted instruction — see
``tests/prof/test_overhead.py``.
"""

from __future__ import annotations

import os

from .core import (BranchStat, KernelProfile, LaunchCollector, LineStat,
                   Profiler, build_profile, merge_profiles)

__all__ = [
    "BranchStat", "KernelProfile", "LaunchCollector", "LineStat",
    "Profiler", "build_profile", "merge_profiles",
    "get_profiler", "set_profiler", "enable", "disable", "is_enabled",
    "reset", "begin_launch", "finish_launch",
]


def _env_enabled() -> bool:
    value = os.environ.get("HPL_PROFILE", "")
    return value not in ("", "0", "false", "False", "no")


#: the process-global profiler; honors HPL_PROFILE at import time
_default_profiler = Profiler(enabled=_env_enabled())


def get_profiler() -> Profiler:
    """The process-global profiler (always exists; may be disabled)."""
    return _default_profiler


def set_profiler(profiler: Profiler) -> Profiler:
    """Replace the process-global profiler (tests, embedders)."""
    global _default_profiler
    _default_profiler = profiler
    return profiler


def enable() -> Profiler:
    _default_profiler.enabled = True
    return _default_profiler


def disable() -> None:
    _default_profiler.enabled = False


def is_enabled() -> bool:
    return _default_profiler.enabled


def reset() -> None:
    """Drop collected profiles; keeps the enabled/disabled state.

    (:func:`repro.hpl.runtime.reset_runtime` calls this, and the
    benchsuite resets the runtime mid-run while ``--record`` is on —
    clearing must not silently turn profiling off.)
    """
    _default_profiler.clear()


def begin_launch(kernel: str, engine: str, spec, source: str,
                 work_items: int, work_groups: int):
    """Engine entry point: a collector, or ``None`` while disabled."""
    profiler = _default_profiler
    if not profiler.enabled:
        return None
    return profiler.begin_launch(kernel, engine, spec, source,
                                 work_items, work_groups)


def finish_launch(col, counters):
    """Engine exit point: finalize ``col`` (no-op when ``None``)."""
    if col is None:
        return None
    return _default_profiler.finish_launch(col, counters)
