"""``python -m repro.benchsuite`` — run paper experiments from the shell.

See :func:`repro.benchsuite.runner.main` for the flags (``--record``,
``--json``, ``--ep-class``) and available targets.
"""

from __future__ import annotations

from .runner import main

if __name__ == "__main__":
    raise SystemExit(main())
