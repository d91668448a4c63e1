"""Deterministic fault injection for the simulated platform.

A :class:`FaultPlan` describes *when and how* simulated devices
misbehave.  Queues consult the active plan before running each command
and surface injected faults as real OpenCL-style event error statuses
(negative ``cl_int`` codes on :class:`~repro.ocl.event.Event`), so host
code sees exactly what a flaky driver would give it; ``Program.build``
consults it too for transient build failures.

Three clause kinds are supported:

``lost``
    The device dies permanently once its simulated clock reaches
    ``at=`` seconds (default 0, i.e. immediately).  Every command from
    then on fails with ``DEVICE_NOT_AVAILABLE`` / :class:`DeviceLost`.

``transient``
    A specific operation fails once (or ``count=`` consecutive times)
    and then works again — the model for recoverable driver hiccups.
    Select the victim either deterministically (``nth=K``: the K-th
    matching operation, 1-based) or probabilistically (``prob=P`` with
    a seeded per-clause RNG).  ``code=oor`` (default) fails with
    ``OUT_OF_RESOURCES``; ``code=lost`` with ``DEVICE_NOT_AVAILABLE``.

``slow``
    Straggler mode: every matching command's simulated duration is
    multiplied by ``factor=``.  Commands still succeed.

Plans come from :func:`configure` (programmatically, or via
``hpl.configure(faults=...)``) or the ``HPL_FAULTS`` environment
variable, and are written in a tiny one-line grammar — semicolon
separated clauses of ``key=value`` tokens::

    device=Quadro#1 kind=lost at=0.5
    device=Tesla kind=transient op=kernel nth=2 count=2 code=oor
    device=* kind=slow factor=4; seed=7

``device=`` matches case-insensitively against a substring of the
device's unique ``name#index`` label (``*`` matches every device), and
``op=`` is one of ``kernel read write copy marker build any``.
See ``docs/faults.md`` for the full grammar.
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass, field

from ..errors import DeviceLost, FaultPlanError, OutOfResources
from .api import command_status, command_type

#: environment variable consulted on first use when no plan was configured
ENV_VAR = "HPL_FAULTS"

_OPS = ("kernel", "read", "write", "copy", "marker", "build", "any")

_OP_OF_COMMAND = {
    command_type.NDRANGE_KERNEL: "kernel",
    command_type.READ_BUFFER: "read",
    command_type.WRITE_BUFFER: "write",
    command_type.COPY_BUFFER: "copy",
    command_type.MARKER: "marker",
}


def op_name(command: command_type) -> str:
    """The fault-grammar operation name for a queue command type."""
    return _OP_OF_COMMAND.get(command, "other")


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault clause (see the module docstring for semantics)."""

    device: str                     #: label fragment, or ``*`` for all
    kind: str                       #: ``lost`` | ``transient`` | ``slow``
    op: str = "any"
    at: float = 0.0                 #: lost: onset on the simulated clock
    nth: int | None = None          #: transient: 1-based victim index
    prob: float | None = None       #: transient: iid failure probability
    count: int = 1                  #: transient: consecutive failures
    code: str = "oor"               #: ``oor`` | ``lost``
    factor: float = 1.0             #: slow: duration multiplier
    seed: int | None = None         #: per-clause RNG seed override

    def matches_device(self, label: str) -> bool:
        return self.device == "*" or self.device.lower() in label.lower()

    def matches_op(self, op: str) -> bool:
        return self.op == "any" or self.op == op


@dataclass
class Injection:
    """What :meth:`FaultPlan.draw` decided: status code + exception."""

    status: command_status
    error: BaseException
    kind: str                       #: ``lost`` or ``transient``


_CODES = {
    "oor": (command_status.OUT_OF_RESOURCES, OutOfResources),
    "lost": (command_status.DEVICE_NOT_AVAILABLE, DeviceLost),
}


def _injection(code: str, kind: str, label: str, op: str) -> Injection:
    status, exc_type = _CODES[code]
    return Injection(status, exc_type(
        f"injected {kind} fault: {op} on {label}"), kind)


class FaultPlan:
    """A deterministic, seedable schedule of device faults.

    The plan holds both the parsed clauses and the mutable bookkeeping
    that makes injection deterministic: per-clause operation counters,
    per-clause seeded RNGs (for ``prob=`` clauses) and the set of
    devices that have already died.  :meth:`reset` rewinds all of it so
    one plan can drive several independent runs identically.
    """

    def __init__(self, specs, seed: int = 0) -> None:
        self.specs = list(specs)
        self.seed = seed
        for spec in self.specs:
            _validate(spec)
        self._lock = threading.Lock()
        #: (device label, op) -> (indices of the clauses matching such a
        #: command, its combined slow factor); clauses never change
        self._matches: dict = {}
        self.reset()

    # -- construction -------------------------------------------------------

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from the one-line ``HPL_FAULTS`` grammar."""
        specs = []
        for clause in text.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            kv = {}
            for token in clause.split():
                if "=" not in token:
                    raise FaultPlanError(
                        f"fault clause token {token!r} is not key=value "
                        f"(in clause {clause!r})")
                key, value = token.split("=", 1)
                if key in kv:
                    raise FaultPlanError(
                        f"duplicate key {key!r} in fault clause {clause!r}")
                kv[key] = value
            if set(kv) == {"seed"}:
                seed = _parse_int(kv["seed"], "seed", clause)
                continue
            specs.append(_spec_from_kv(kv, clause))
        return cls(specs, seed=seed)

    def reset(self) -> None:
        """Rewind all injection state (counters, RNGs, dead devices)."""
        with self._lock:
            self._counts = [0] * len(self.specs)
            self._lost: set[str] = set()
            self._rngs = [
                random.Random(spec.seed if spec.seed is not None
                              else (self.seed * 1000003 + i))
                for i, spec in enumerate(self.specs)]

    # -- queries ------------------------------------------------------------

    def is_lost(self, label: str) -> bool:
        """Has ``label`` already died under this plan?"""
        return label in self._lost

    def _matching(self, label: str, op: str) -> tuple:
        """``(clause indices, slow factor)`` of a command of ``op`` on
        ``label``: the clauses that match it, in order, and the product
        of the factors of its ``slow`` clauses."""
        found = self._matches.get((label, op))
        if found is None:
            indices = tuple(i for i, spec in enumerate(self.specs)
                            if spec.matches_device(label)
                            and spec.matches_op(op))
            factor = 1.0
            for i in indices:
                if self.specs[i].kind == "slow":
                    factor *= self.specs[i].factor
            found = self._matches[(label, op)] = (indices, factor)
        return found

    def slow_factor(self, label: str, op: str) -> float:
        """Combined straggler slowdown for one command (1.0 = none)."""
        return self._matching(label, op)[1]

    def draw(self, label: str, op: str,
             start_seconds: float) -> Injection | None:
        """Decide the fate of one command about to run.

        Mutates plan state (operation counters, RNG streams, the dead
        set), so call exactly once per command attempt.  Returns an
        :class:`Injection` to fail the command, or None to let it run.
        """
        with self._lock:
            if label in self._lost:
                return _injection("lost", "lost", label, op)
            for i in self._matching(label, op)[0]:
                spec = self.specs[i]
                if spec.kind == "lost":
                    if start_seconds >= spec.at:
                        self._lost.add(label)
                        return _injection("lost", "lost", label, op)
                elif spec.kind == "transient":
                    self._counts[i] += 1
                    seen = self._counts[i]
                    if spec.nth is not None:
                        if spec.nth <= seen < spec.nth + spec.count:
                            return _injection(spec.code, "transient",
                                              label, op)
                    elif self._rngs[i].random() < spec.prob:
                        return _injection(spec.code, "transient",
                                          label, op)
        return None

    def draw_build(self, label: str) -> BaseException | None:
        """Like :meth:`draw` for a program build on ``label``."""
        injection = self.draw(label, "build", 0.0)
        return injection.error if injection is not None else None

    def __repr__(self) -> str:
        return (f"<FaultPlan seed={self.seed} specs={len(self.specs)} "
                f"lost={sorted(self._lost)}>")


# -- clause parsing helpers -------------------------------------------------

def _parse_int(value: str, key: str, clause: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise FaultPlanError(
            f"{key}={value!r} is not an integer (in clause "
            f"{clause!r})") from None


def _parse_float(value: str, key: str, clause: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise FaultPlanError(
            f"{key}={value!r} is not a number (in clause "
            f"{clause!r})") from None


_SPEC_KEYS = {"device", "kind", "op", "at", "nth", "prob", "count",
              "code", "factor", "seed"}


def _spec_from_kv(kv: dict, clause: str) -> FaultSpec:
    unknown = set(kv) - _SPEC_KEYS
    if unknown:
        raise FaultPlanError(
            f"unknown key(s) {sorted(unknown)} in fault clause {clause!r}")
    if "kind" not in kv:
        raise FaultPlanError(f"fault clause {clause!r} has no kind=")
    if "device" not in kv:
        raise FaultPlanError(f"fault clause {clause!r} has no device=")
    return FaultSpec(
        device=kv["device"],
        kind=kv["kind"],
        op=kv.get("op", "any"),
        at=_parse_float(kv["at"], "at", clause) if "at" in kv else 0.0,
        nth=_parse_int(kv["nth"], "nth", clause) if "nth" in kv else None,
        prob=(_parse_float(kv["prob"], "prob", clause)
              if "prob" in kv else None),
        count=_parse_int(kv["count"], "count", clause)
        if "count" in kv else 1,
        code=kv.get("code", "oor"),
        factor=(_parse_float(kv["factor"], "factor", clause)
                if "factor" in kv else 1.0),
        seed=_parse_int(kv["seed"], "seed", clause) if "seed" in kv else None,
    )


def _validate(spec: FaultSpec) -> None:
    if spec.kind not in ("lost", "transient", "slow"):
        raise FaultPlanError(
            f"unknown fault kind {spec.kind!r} (expected lost, "
            f"transient, or slow)")
    if spec.op not in _OPS:
        raise FaultPlanError(
            f"unknown fault op {spec.op!r} (expected one of "
            f"{', '.join(_OPS)})")
    if spec.code not in _CODES:
        raise FaultPlanError(
            f"unknown fault code {spec.code!r} (expected oor or lost)")
    if spec.kind == "transient" and spec.nth is not None \
            and spec.prob is not None:
        raise FaultPlanError(
            "a transient clause takes nth= or prob=, not both")
    if spec.nth is not None and spec.nth < 1:
        raise FaultPlanError(f"nth={spec.nth} must be >= 1 (1-based)")
    if spec.prob is not None and not 0.0 < spec.prob <= 1.0:
        raise FaultPlanError(f"prob={spec.prob} must be in (0, 1]")
    if spec.count < 1:
        raise FaultPlanError(f"count={spec.count} must be >= 1")
    if spec.factor < 1.0:
        raise FaultPlanError(
            f"factor={spec.factor} must be >= 1 (slowdowns only)")


# -- process-wide active plan ----------------------------------------------

_active: FaultPlan | None = None
_configured = False
_config_lock = threading.Lock()


def configure(plan: FaultPlan | str | None) -> FaultPlan | None:
    """Install (or clear, with None) the process-wide fault plan.

    Accepts a ready :class:`FaultPlan` or a plan string in the
    ``HPL_FAULTS`` grammar.  Once called, the environment variable is
    no longer consulted.  Returns the installed plan.
    """
    global _active, _configured
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    elif plan is not None and not isinstance(plan, FaultPlan):
        raise FaultPlanError(
            f"faults must be a FaultPlan, a plan string, or None, "
            f"got {plan!r}")
    with _config_lock:
        _active = plan
        _configured = True
    return plan


def active_plan() -> FaultPlan | None:
    """The plan queues consult, honouring ``HPL_FAULTS`` on first use."""
    global _active, _configured
    if _configured:
        return _active
    with _config_lock:
        if not _configured:
            text = os.environ.get(ENV_VAR, "").strip()
            _active = FaultPlan.parse(text) if text else None
            _configured = True
    return _active


def _reset_for_tests() -> None:
    """Forget any configured plan so ``HPL_FAULTS`` is re-read."""
    global _active, _configured
    with _config_lock:
        _active = None
        _configured = False
