"""nflab benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload picard --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; nflab is imported from its `src/`
and nowhere else.  With `--trace 0` the last line of standard output is the
JSON result with the end-to-end metrics; with `--trace 1` it holds the
per-layer table of a traced pass and `trace.overhead`, and the spans are
written to `.bench_out/`.  The lines before it name every metric with its
unit, the outcome of every output check and the run's provenance.
"""

from __future__ import annotations

import os
import sys

# pinned before numpy loads: BLAS/OpenMP single-threaded, the CLI's sweep
# pool at no more than two threads and never more than the cores present
NPROC = os.cpu_count() or 1
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NFLAB_THREADS": str(min(2, NPROC))}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 9
SETUP_CODE = ("import sys, tempfile; sys.path[:0] = [{root!r}, {src!r}]\n"
              "from perfbench import workloads\n"
              "with tempfile.TemporaryDirectory(dir={out!r}) as d:\n"
              "    workloads.build({workload!r}, {seed!r}, d)\n")

def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be a non-negative integer")
    return value


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("picard", "forms", "sharpness"))
    ap.add_argument("--seed", required=True, type=_seed)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args(argv)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _setup_seconds(workload: str, seed: int, bench) -> tuple:
    """Median time of a fresh interpreter importing nflab and building the inputs.

    Returns (raw seconds, seconds normalized by the reference kernel timed
    before and after each start).
    """
    code = SETUP_CODE.format(root=str(ROOT), src=str(SRC), out=str(OUT),
                             workload=workload, seed=seed)
    raw, norm = [], []
    for _ in range(SETUP_REPS):
        ref = bench.reference_kernel_s()
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        raw.append(perf_counter() - t0)
        ref = (ref + bench.reference_kernel_s()) / 2.0
        norm.append(raw[-1] / ref * bench.REFERENCES["compute"][1])
    return statistics.median(raw), statistics.median(norm)


def _emit(result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "nflab" / "__init__.py").is_file():
        print(f"nflab sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    OUT.mkdir(exist_ok=True)

    import numpy as np
    import nflab
    from perfbench import bench, tracer as trace_mod, workloads

    if Path(nflab.__file__).resolve().parent != SRC / "nflab":
        print(f"imported nflab from {nflab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setup_raw, setup_s = _setup_seconds(args.workload, args.seed, bench)
    print(f"setup raw_s = {setup_raw:.6g} s  normalized = {setup_s:.6g} s")
    provenance = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "nproc": NPROC, "cpu": _cpu_model(),
                  "python": platform.python_version(), "numpy": np.__version__,
                  "threads": THREAD_ENV}
    print("provenance " + json.dumps(provenance))

    outdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        load = workloads.build(args.workload, args.seed, outdir)
        jobs = load.jobs
        known = {k["job"] for k in workloads.SPEC["known_failures"]
                 if k["workload"] == args.workload}
        ref = workloads.REFERENCE[args.workload]
        if args.trace:
            # untraced and traced passes share the budget; their wall-time
            # ratio is the tracing overhead
            plain = bench.measure(jobs, args.seconds / 2.0, reference=ref)
            tracer = trace_mod.Tracer()
            tracer.install()
            try:
                passes = bench.measure(jobs, args.seconds / 2.0, tracer, "traced-", ref)
            finally:
                tracer.uninstall()
            values = bench.medians(jobs, plain, ref)
            values.update(trace_mod.layer_metrics(tracer.spans, len(passes)))
            values["trace.overhead"] = (bench.medians(jobs, passes, ref)["wall_norm_s"]
                                        / values["wall_norm_s"] - 1.0)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in bench.PER_LAYER}
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path, provenance)
            print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        else:
            passes = bench.measure(jobs, args.seconds, reference=ref)
            values = bench.medians(jobs, passes, ref)
            metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                       "wall_norm_s": {"value": values["wall_norm_s"], "unit": "s"},
                       "peak_rss_mb": {"value": bench.peak_rss_mb(), "unit": "MB"}}
        result = bench.check(jobs, passes, known)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    print(f"passes {len(passes)}  pass wall_s " + " ".join(f"{p.wall_s:.3f}" for p in passes))
    print(f"jobs {len(jobs)}  sizes " + json.dumps(load.sizes))
    for name, (ok, note) in result.notes.items():
        tag = "ok" if ok else ("known-failure" if name in known else "FAIL")
        print(f"check {name}: {tag} {note}")
    print(f"raw wall_s = {values['bench.wall_s']:.6g} s  "
          f"{ref} reference kernel = {values['bench.ref_s']:.6g} s")
    for group in workloads.GROUPS[args.workload]:
        print(f"study {group} = {values['study.' + group]:.6g} s")
    print(f"fail_ratio = {len(result.failed)}/{result.attempted} = "
          f"{len(result.failed) / result.attempted:.6g} 1")
    _emit({"correct": result.correct, "attempted": result.attempted,
           "failed": len(result.failed), "metrics": metrics})
    return 0


if __name__ == "__main__":
    sys.exit(main())
