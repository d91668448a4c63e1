"""The child-process helper every cross-process measurement spawns
through (:func:`repro.benchsuite.common.run_child`)."""

import json
import os
import signal

import pytest

from repro.benchsuite.common import run_child


def test_kwargs_round_trip_as_json():
    kwargs = {"mode": "kill", "n": 4096, "ratio": 0.5, "tiny": True,
              "nested": {"dirs": ["a", "b"], "none": None}}
    proc = run_child(dict, kwargs)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == kwargs


def test_env_overrides_set_and_remove_keys(monkeypatch):
    monkeypatch.setenv("HPL_FAULTS", "device=Tesla kind=lost at=0")
    inherited = run_child(os.getenv, {"key": "HPL_FAULTS"})
    assert json.loads(inherited.stdout) == "device=Tesla kind=lost at=0"
    removed = run_child(os.getenv, {"key": "HPL_FAULTS"},
                        env={"HPL_FAULTS": None})
    assert json.loads(removed.stdout) is None
    overridden = run_child(os.getenv, {"key": "HPL_OPT_LEVEL"},
                           env={"HPL_OPT_LEVEL": 0})
    assert json.loads(overridden.stdout) == "0"


def test_source_root_leads_the_child_path():
    proc = run_child(os.getenv, {"key": "PYTHONPATH"},
                     env={"PYTHONPATH": None})
    root = json.loads(proc.stdout)
    assert os.path.isfile(os.path.join(root, "repro", "__init__.py"))


def test_nonzero_exit_raises_with_target_and_stderr():
    with pytest.raises(RuntimeError) as info:
        run_child(json.loads, {"s": "{"})
    message = str(info.value)
    assert "json:loads" in message
    assert "JSONDecodeError" in message


def test_timeout_raises_with_target():
    with pytest.raises(RuntimeError, match="_signal:pause timed out"):
        run_child(signal.pause, timeout=1)
