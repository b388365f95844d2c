"""Smoke test of tools/bench_layers.py: one repetition at (2, 16), each layer in a child
process, and the file's schema."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_layers.py"
SIZED = ["transform", "inverse_transform", "product", "crop", "complex_pad", "operand_pads", "q0",
         "qij", "qtilde", "splus", "sminus", "ralpha", "duhamel_mixed", "modified_norm"]
FIXED = ["schur_bound", "counterexample_lattice_ratio", "counterexample_norms", "membership_1e6",
         "fuzzer_1e6"] + [
    f"picard_J1.{s}" for s in ("YMmodel", "WMM", "WM", "MKGmodel", "scalarQ0")]


def _tool():
    spec = importlib.util.spec_from_file_location("bench_layers", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_repetition_writes_every_layer(tmp_path, monkeypatch):
    monkeypatch.setenv("NFLAB_THREADS", "2")
    out = tmp_path / "BENCH_smoke.json"
    assert _tool().main(["--reps", "1", "--sizes", "2x16", "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert bench["schema"] == "nflab-bench-layers/2"
    prov = bench["provenance"]
    assert set(prov) == {"cores", "python", "numpy", "libc", "NFLAB_THREADS", "pool_threads",
                         "git_revision", "src_modified", "reps"}
    assert prov["NFLAB_THREADS"] == "2" and prov["pool_threads"] == 2 and prov["reps"] == 1
    assert [(r["layer"], r["size"]) for r in bench["layers"]] == (
        [(name, "2x16") for name in SIZED] + [(name, None) for name in FIXED])
    for row in bench["layers"]:
        assert set(row) == {"layer", "size", "median_ms", "q1_ms", "q3_ms", "minor_faults",
                            "voluntary_switches", "peak_rss_mb", "reps"}
        assert 0 < row["q1_ms"] <= row["median_ms"] <= row["q3_ms"]
        assert row["minor_faults"] >= 0 and row["voluntary_switches"] >= 0
        assert row["peak_rss_mb"] > 0 and row["reps"] == 1
