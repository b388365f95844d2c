"""Timed passes, output checks and metrics of one benchmark run.

A pass runs a workload's job list once, one job at a time (closed loop).
`measure()` repeats passes for a time budget; `medians()` reduces them to
per-job medians; `check()` then verifies the outputs of the last pass.

Every job is preceded by a fixed reference kernel (no nflab code).  On a
shared host every process slows by 20-40% for minutes at a time; a job's
time divided by the reference time measured next to it cancels most of
that drift.  Contention slows interpreter-bound and memory-bound code by
different amounts, so there are two kernels and each workload names the
one that matches its jobs (`workloads.REFERENCE`).  Normalized times are
reported in seconds of a host where that kernel takes its nominal time.
"""

from __future__ import annotations

import resource
import statistics
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from . import tracer as tracing
from . import workloads as wl


_REF_FIELD = np.random.default_rng(0).standard_normal((32, 32, 32)) + 0j
_REF_TABLE = {i: i for i in range(1000)}
_REF_STREAM = np.random.default_rng(0).standard_normal(1_000_000)


def _compute_kernel() -> None:
    """Cache-resident FFTs and an interpreter loop."""
    for _ in range(4):
        np.fft.ifftn(np.fft.fftn(_REF_FIELD))
    total = 0
    for i in range(30000):
        total += _REF_TABLE[i % 1000]


def _memory_kernel() -> None:
    """Fresh 8 MB temporaries streamed through memory."""
    for _ in range(3):
        (_REF_STREAM * 1.0001 + 0.5).sum()


# kernel and its wall time on the nominal host (2-core Xeon, Python 3.11.7, numpy 2.4.6)
REFERENCES = {"compute": (_compute_kernel, 0.0075), "memory": (_memory_kernel, 0.0070)}


def reference_kernel_s(reference: str = "compute") -> float:
    """Wall time of one call of a reference kernel."""
    kernel, _ = REFERENCES[reference]
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


@dataclass
class Pass:
    wall_s: float
    job_s: dict
    ref_s: dict
    outputs: dict
    errors: dict


@dataclass
class CheckResult:
    attempted: int
    failed: list
    unexpected: list
    notes: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.unexpected


def run_pass(jobs: list, tracer=None, tag: str = "", reference: str = "compute") -> Pass:
    """Run every job once; a job that raises is recorded, not propagated."""
    job_s, ref_s, outputs, errors = {}, {}, {}, {}
    t_pass = perf_counter()
    for job in jobs:
        ref_s[job.name] = reference_kernel_s(reference)
        if tracer is not None:
            tracer.job = f"{tag}{job.name}"
        t0 = perf_counter()
        try:
            outputs[job.name] = job.run()
        except Exception:
            errors[job.name] = traceback.format_exc()
        job_s[job.name] = perf_counter() - t0
    return Pass(perf_counter() - t_pass, job_s, ref_s, outputs, errors)


def measure(jobs: list, seconds: float, tracer=None, tag: str = "",
            reference: str = "compute") -> list:
    """Passes until the next one would end past `seconds`; at least one.

    Only the last pass keeps its outputs (the checks read those), so peak
    RSS does not grow with the number of passes.
    """
    passes = []
    t0 = perf_counter()
    while True:
        if passes:
            passes[-1].outputs.clear()
        passes.append(run_pass(jobs, tracer, f"{tag}{len(passes)}:", reference))
        elapsed = perf_counter() - t0
        if elapsed + elapsed / len(passes) > seconds:
            return passes


# per-study times: every workload reports all of them (0 where a study does
# not run), so they sit with the per-layer metrics of the traced run
STUDIES = [(f"study.{g}", "s", "lower") for groups in wl.GROUPS.values() for g in groups]
PER_LAYER = (STUDIES + [("bench.wall_s", "s", "lower"), ("bench.ref_s", "s", "lower")]
             + tracing.PER_LAYER)


def medians(jobs: list, passes: list, reference: str = "compute") -> dict:
    """Pass and study times as sums of per-job medians over the passes.

    wall_norm_s and the study times are normalized by the reference kernel;
    bench.wall_s and bench.ref_s are the raw medians.  A per-job median drops a burst
    of contention that touched one job, where a median of pass sums keeps
    every pass such a burst touched.
    """
    def per_job(f):
        return {job.name: statistics.median(f(p, job.name) for p in passes) for job in jobs}

    nominal = REFERENCES[reference][1]
    raw = per_job(lambda p, name: p.job_s[name])
    norm = per_job(lambda p, name: p.job_s[name] / p.ref_s[name] * nominal)
    out = {"wall_norm_s": sum(norm.values()), "bench.wall_s": sum(raw.values()),
           "bench.ref_s": statistics.median(r for p in passes for r in p.ref_s.values())}
    for name, _, _ in STUDIES:
        group = name.split(".", 1)[1]
        out[name] = sum(norm[job.name] for job in jobs if job.group == group)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check(jobs: list, passes: list, known_failures: set) -> CheckResult:
    """Check the last pass's outputs; a job fails if it raised in any pass or fails its check."""
    last = passes[-1]
    failed, notes = [], {}
    raised = {name: err for p in passes for name, err in p.errors.items()}
    for job in jobs:
        if job.name in raised:
            ok, note = False, "raised: " + raised[job.name].strip().splitlines()[-1]
        else:
            try:
                ok, note = job.check(last.outputs[job.name], last.outputs)
            except Exception:
                ok, note = False, "check raised: " + traceback.format_exc().strip().splitlines()[-1]
        notes[job.name] = (ok, note)
        if not ok:
            failed.append(job.name)
    unexpected = [name for name in failed if name not in known_failures]
    return CheckResult(len(jobs), failed, unexpected, notes)
