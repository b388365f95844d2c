"""Span tracer that wraps nflab's layer boundaries from outside the program.

`Tracer.install()` replaces each function listed in `BOUNDARIES` in every
nflab module namespace that binds it (`lattice.fine_samples`,
`nullform.fine_samples`, `iterate.fine_samples`, ...) and `uninstall()` puts
the originals back.  Spans (name, start, end, parent, job) are kept in
memory; `write()` stores them as JSON lines and `layer_metrics()` reduces
them to the per-layer table.

A span opened on a worker thread (the `_sweep` pool of `nflab.cli`) with no
open span on its own thread takes the main thread's innermost open span as
its parent, so a sweep's tasks are children of the `cli.main` call that
started them.  Self time is a span's duration minus the union of its
children's intervals; concurrent children therefore never count twice.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

BOUNDARIES = {
    "lattice": ("transform", "inverse_transform", "fine_samples", "field_from_fine_samples",
                "dealiased_product", "time_spatial_rep", "from_time_spatial_rep",
                "mixed_norm", "modified_mixed_norm_detailed"),
    "multiplier": ("apply", "ws_norm"),
    "nullform": ("apply_form", "check_symbol_inequality"),
    "propagate": ("duhamel_mixed", "homogeneous_spacetime", "pm_decompose"),
    "iterate": ("picard_run", "apply_nonlinearity"),
    "probe": ("probe_embedding", "embedding_ratio", "counterexample_lattice_ratio",
              "counterexample_norms", "membership_check", "schur_bound", "trilinear_form",
              "discrete_schur_constant"),
    "cli": ("main",),
}
FORMS = ("q0", "qij", "qtilde", "product", "ralpha", "splus", "sminus")
KERNEL_FORMS = ("ralpha", "splus", "sminus")


def _span_names() -> list:
    names = []
    for mod, funcs in BOUNDARIES.items():
        for fn in funcs:
            if (mod, fn) == ("nullform", "apply_form"):
                names += [f"nullform.apply_form.{form}" for form in FORMS]
            else:
                names.append(f"{mod}.{fn}")
    return names


SPAN_NAMES = _span_names()

# every per-layer metric with its unit and direction, in report order
PER_LAYER = (
    [(f"{s}.{k}", u, "lower") for s in SPAN_NAMES for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("lattice.fine_samples.distinct_ratio", "1", "higher"),
       ("lattice.fine_samples.mb", "MB", "lower"),
       ("nullform.kernel_pairs", "count", "lower"),
       ("nullform.kernel_ns_per_pair", "ns", "lower"),
       ("nullform.check_symbol_inequality.samples_per_s", "1/s", "higher"),
       ("iterate.picard_run.steps", "count", "lower"),
       ("cli.main.parallelism", "1", "higher"),
       ("trace.overhead", "1", "lower")]
)


class Tracer:
    """Wrapper-based span recorder for one process; inert until `install()`."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_thread = threading.main_thread()
        self._main_stack = []
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, qualname: str, fn):
        before, after = _HOOKS.get(qualname, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name, attrs = qualname, {}
            if before is not None:
                name = before(attrs, *args, **kwargs) or qualname
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main and stack is not main else None
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, self.job,
                                   threading.get_ident(), attrs))
            if after is not None:
                after(attrs, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod, funcs in BOUNDARIES.items():
            module = sys.modules[f"nflab.{mod}"]
            for fn in funcs:
                original = getattr(module, fn)
                wrappers[id(original)] = (original, self._wrap(f"{mod}.{fn}", original))
        for modname, module in list(sys.modules.items()):
            if modname != "nflab" and not modname.startswith("nflab."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    # -- output ------------------------------------------------------------

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for sid, name, start, end, parent, job, thread, attrs in self.spans:
                rec = {"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "job": job, "thread": thread}
                rec.update(attrs)
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# per-boundary attributes, gathered only in the traced run


def _fine_samples_before(attrs, fieldv, factor=1.5):
    h = hashlib.blake2b(fieldv.coeffs.tobytes(), digest_size=16)
    h.update(repr((fieldv.coeffs.shape, fieldv.real_flag, factor)).encode())
    attrs["input_hash"] = h.hexdigest()


def _fine_samples_after(attrs, result):
    attrs["bytes"] = int(result.nbytes)


def _apply_form_before(attrs, spec, u, v):
    if spec.form in KERNEL_FORMS:
        occupied = sys.modules["nflab.nullform"].occupied_modes
        attrs["pairs"] = int(len(occupied(u)[0]) * len(occupied(v)[0]))
    return f"nullform.apply_form.{spec.form}"


def _symbol_after(attrs, report):
    attrs["samples"] = int(report.samples)


def _picard_after(attrs, trace):
    attrs["steps"] = len(trace.d) + (trace.diverged_at is not None)


_HOOKS = {
    "lattice.fine_samples": (_fine_samples_before, _fine_samples_after),
    "nullform.apply_form": (_apply_form_before, None),
    "nullform.check_symbol_inequality": (None, _symbol_after),
    "iterate.picard_run": (None, _picard_after),
}


# ---------------------------------------------------------------------------
# reduction to the per-layer table


def _union_length(intervals: list, lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans: list, passes: int) -> dict:
    """Per-pass layer table from the spans of `passes` traced passes.

    Returns {metric: value}; every metric of PER_LAYER but trace.overhead.
    """
    children = defaultdict(list)
    for sid, name, start, end, parent, job, thread, attrs in spans:
        if parent is not None:
            children[parent].append((start, end))
    calls = defaultdict(int)
    self_s = defaultdict(float)
    hashes = defaultdict(set)
    fine_bytes = pairs = samples = steps = 0
    main_wall = main_busy = 0.0
    for sid, name, start, end, parent, job, thread, attrs in spans:
        calls[name] += 1
        self_s[name] += (end - start) - _union_length(children.get(sid, []), start, end)
        if "input_hash" in attrs:
            hashes[job].add(attrs["input_hash"])
        fine_bytes += attrs.get("bytes", 0)
        pairs += attrs.get("pairs", 0)
        samples += attrs.get("samples", 0)
        steps += attrs.get("steps", 0)
        if name == "cli.main":
            main_wall += end - start
            main_busy += sum(b - a for a, b in children.get(sid, []))
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] / passes
        out[f"{name}.self_s"] = self_s[name] / passes
    fine_calls = calls["lattice.fine_samples"]
    kernel_s = sum(self_s[f"nullform.apply_form.{f}"] for f in KERNEL_FORMS)
    sym_s = self_s["nullform.check_symbol_inequality"]
    out.update({
        "lattice.fine_samples.distinct_ratio":
            sum(len(h) for h in hashes.values()) / fine_calls if fine_calls else 0.0,
        "lattice.fine_samples.mb": fine_bytes / 1e6 / passes,
        "nullform.kernel_pairs": pairs / passes,
        "nullform.kernel_ns_per_pair": kernel_s * 1e9 / pairs if pairs else 0.0,
        "nullform.check_symbol_inequality.samples_per_s": samples / sym_s if sym_s else 0.0,
        "iterate.picard_run.steps": steps / passes,
        "cli.main.parallelism": main_busy / main_wall if main_wall else 0.0,
    })
    return out
