"""Every job of the benchmark's three workloads runs once and passes its output check, or
fails only as perfbench/spec.json's known_failures expect: the benchmark's own `correct` rule.
A constructor keyword the benchmark passes, or an output it checks, that breaks shows here."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["picard", "forms", "sharpness"])
def test_each_benchmark_job_runs_and_fails_only_as_known(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import bench, workloads

    jobs = workloads.build(workload, 0, str(tmp_path)).jobs
    known = {k["job"] for k in workloads.SPEC["known_failures"] if k["workload"] == workload}
    result = bench.check(jobs, [bench.run_pass(jobs)], known)
    assert result.correct, {name: result.notes[name] for name in result.unexpected}
