"""Self-tests of the nflab benchmark.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import filecmp
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from nflab import nullform  # noqa: E402
from perfbench import bench, tracer, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _jobs(workload, outdir, names=None, seed=0, prefix=None):
    jobs = workloads.build(workload, seed, str(outdir)).jobs
    return [j for j in jobs
            if (names is None or j.name in names) and (prefix is None or j.name.startswith(prefix))]


def _known(workload):
    return {k["job"] for k in workloads.SPEC["known_failures"] if k["workload"] == workload}


def test_broken_form_reports_failures(tmp_path, monkeypatch):
    jobs = _jobs("forms", tmp_path, names={"qtilde@2x16", "sminus@2x16"})
    clean = bench.check(jobs, [bench.run_pass(jobs)], _known("forms"))
    assert clean.failed == [] and clean.correct

    original = nullform._qtilde

    def skewed(u, v):
        out = original(u, v)
        return out.copy_with(1.001 * out.coeffs)

    monkeypatch.setattr(nullform, "_qtilde", skewed)
    broken = bench.check(jobs, [bench.run_pass(jobs)], _known("forms"))
    assert broken.failed == ["qtilde@2x16"]
    assert len(broken.failed) / broken.attempted > 0
    assert not broken.correct


def test_known_failures_are_exactly_the_failing_jobs(tmp_path):
    jobs = _jobs("forms", tmp_path, prefix=None)
    jobs = [j for j in jobs if j.name.endswith("@2x16")]
    result = bench.check(jobs, [bench.run_pass(jobs)], _known("forms"))
    assert set(result.failed) == {name for name in _known("forms") if name.endswith("@2x16")}
    assert result.correct


def test_traced_run_writes_identical_cli_csvs(tmp_path):
    for workload in ("picard", "sharpness"):
        plain, traced = tmp_path / f"{workload}-plain", tmp_path / f"{workload}-traced"
        plain.mkdir()
        traced.mkdir()
        bench.run_pass(_jobs(workload, plain, prefix="cli-"))
        t = tracer.Tracer()
        t.install()
        try:
            bench.run_pass(_jobs(workload, traced, prefix="cli-"), t)
        finally:
            t.uninstall()
        assert any(s[1] == "cli.main" for s in t.spans)
        names = sorted(p.name for p in plain.iterdir())
        assert names and names == sorted(p.name for p in traced.iterdir())
        for name in names:
            assert filecmp.cmp(plain / name, traced / name, shallow=False), name


def test_uninstall_restores_every_binding():
    from nflab import iterate, lattice
    before = (lattice.fine_samples, nullform.fine_samples, iterate.fine_samples,
              iterate.apply_form, nullform.apply_form)
    t = tracer.Tracer()
    t.install()
    assert nullform.fine_samples is not before[1]
    t.uninstall()
    after = (lattice.fine_samples, nullform.fine_samples, iterate.fine_samples,
             iterate.apply_form, nullform.apply_form)
    assert all(a is b for a, b in zip(after, before))


def test_sweep_worker_spans_parent_to_cli_main(tmp_path):
    from nflab import cli
    t = tracer.Tracer()
    t.install()
    try:
        code = cli.main(["symbol-check", "--name", "all", "--samples", "2000",
                         "--out", str(tmp_path / "sym.csv")])
    finally:
        t.uninstall()
    assert code == 0
    (main_id,) = [s[0] for s in t.spans if s[1] == "cli.main"]
    fuzz = [s for s in t.spans if s[1] == "nullform.check_symbol_inequality"]
    assert len(fuzz) == len(nullform.INEQUALITY_REGISTRY)
    assert all(s[4] == main_id for s in fuzz)
    metrics = tracer.layer_metrics(t.spans, 1)
    assert 0.0 < metrics["cli.main.parallelism"] <= 2.0


def test_second_seed_measures_the_same_work(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.build(workload, 0, str(tmp_path)).sizes
        b = workloads.build(workload, 1, str(tmp_path)).sizes
        assert a == b, workload
    pairs = []
    for seed in (0, 1):
        jobs = [j for j in _jobs("forms", tmp_path, seed=seed)
                if j.name.endswith("@2x16") and j.group == "kernel_forms_s"]
        t = tracer.Tracer()
        t.install()
        try:
            bench.run_pass(jobs, t)
        finally:
            t.uninstall()
        pairs.append(tracer.layer_metrics(t.spans, 1)["nullform.kernel_pairs"])
    assert pairs[0] == pairs[1] == workloads.build("forms", 0, str(tmp_path)).sizes[
        "forms.2x16.kernel_pairs"]


def test_benchmark_json_names_every_reported_metric():
    assert [tuple(m.values()) for m in BENCHMARK["per_layer"]] == bench.PER_LAYER
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == {"setup_s", "wall_norm_s", "peak_rss_mb"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "picard",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
