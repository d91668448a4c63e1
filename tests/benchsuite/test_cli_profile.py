"""The benchsuite CLI: the kernel profiles a ``--record`` run keeps.

The acceptance path of the profiler work: the EP target of the shared
recorded run (see ``conftest.py``) must come back from the record with
its hot source lines and a compute-bound roofline row, and recording
must not leave the profiler on.
"""

from __future__ import annotations

from repro import prof
from repro.benchsuite.runner import main as bench_main
from repro.hpl import reset_runtime
from repro.trace import read_record
from repro.trace.__main__ import main as trace_cli


class TestBenchsuiteProfileFlag:
    def test_ep_with_profile_prints_hot_lines(self, recorded_run, capsys):
        capsys.readouterr()
        assert trace_cli(["report", recorded_run[0]]) == 0
        out = capsys.readouterr().out
        ep = out.split("== target ep ")[1].split("== target ")[0]
        assert "kernel ep_hpl_kernel" in ep
        assert "bound=compute" in ep
        # hot lines are shown with their cost share and source text
        assert "%  L" in ep

    def test_profile_out_writes_artifact_pair(self, recorded_run, capsys):
        ep = read_record(recorded_run[0]).targets[0]
        assert any(p.kernel == "ep_hpl_kernel" for p in ep["profiles"])

        capsys.readouterr()
        assert trace_cli(["flame", recorded_run[0]]) == 0
        assert "ep_hpl_kernel [jit]" in capsys.readouterr().out
        assert trace_cli(["roofline", recorded_run[0]]) == 0
        assert "compute-bound" in capsys.readouterr().out

    def test_profile_flag_does_not_leak(self, tmp_path):
        saved = prof.get_profiler()
        prof.set_profiler(prof.Profiler(enabled=False))
        reset_runtime()
        try:
            assert bench_main(["table1", "--record",
                               str(tmp_path / "t.jsonl")]) == 0
            # --record profiles the run only; a later plain run must
            # not silently keep collecting
            assert not prof.is_enabled()
            assert bench_main(["ep"]) == 0
            assert len(prof.get_profiler()) == 0
        finally:
            prof.set_profiler(saved)
            reset_runtime()
