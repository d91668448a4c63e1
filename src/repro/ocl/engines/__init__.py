"""Execution backends that run compiled kernel IR.

Two engines implement the backend protocol documented in
:mod:`repro.ocl.engines.base` and register themselves with its registry:

* :class:`~repro.ocl.engines.serial.SerialEngine` (``serial``) — a
  per-work-item reference interpreter with generator-based barriers.
  Slow, obviously correct; used for small problems and as the
  differential-testing oracle.
* :class:`~repro.ocl.engines.jit.JitEngine` (``jit``, the default) — the
  lock-step SIMT engine: every work-item of the NDRange executes
  simultaneously as NumPy lanes, with divergence handled by activity
  masks.  A program's first launch runs the bytecode interpreter it
  inherits from :class:`~repro.ocl.engines.vector.VectorEngine`; from the
  second launch on the program's bytecode is compiled into generated
  NumPy code, with results, cost counters and per-line profiles
  bit-identical across the two tiers.

Every engine fills a :class:`repro.ocl.costmodel.CostCounters` while it
runs; the cost model turns those counts into simulated device time.
Custom backends register via :func:`register_engine` and become
selectable through ``Device(engine=...)``, ``hpl.configure(engine=...)``
and ``$HPL_ENGINE`` — see ``docs/engines.md``.
"""

from .base import (BufferBinding, LocalBinding, NDRange, ScalarBinding,
                   available_engines, default_engine, get_engine_class,
                   register_engine, set_default_engine)
from .jit import JitEngine
from .serial import SerialEngine
from .vector import VectorEngine

__all__ = ["NDRange", "ScalarBinding", "BufferBinding", "LocalBinding",
           "SerialEngine", "VectorEngine", "JitEngine",
           "register_engine", "get_engine_class", "available_engines",
           "default_engine", "set_default_engine"]
