"""Time each layer of nflab on its own and write the table as a BENCH file.

Usage: python tools/bench_layers.py [--reps 5] [--sizes 2x16,2x32,3x16] [--out BENCH_<n>.json]

Each layer is one whole public call, run in a child process of its own
(`--layer NAME [--size NxN]` runs one and prints its row), once as a warm-up
and then `reps` times.  A row holds the median and quartiles of the wall
times, the median numbers of minor page faults and of voluntary context
switches per call (getrusage, the whole process, pool threads included: a
thread that waits on a lock switches out) and the child's peak RSS.  One process per
layer keeps the allocator state one layer leaves (glibc's dynamic mmap
threshold rises after a large free) out of the next layer's row.

The layers, at every (n, N) of --sizes on an N x N^n lattice of period 2 pi
with `random_field` inputs at their default band: transform and inverse, the
3/2-padded product, one crop of a real and one of a complex fine-lattice
product, one complex pad (`fine_samples`), the n + 1 derivative pads of one
real operand, each
bilinear form, `duhamel_mixed` and the modified mixed norm at (q, r) = (4, 4).
Once, whatever the sizes: `schur_bound`, `counterexample_lattice_ratio`, the
counterexample family's norms and its membership checks at 10^6 samples (draw
included) at the four scales L = 8..64 of the README's `counterexample` command,
the `delta` symbol fuzzer at 10^6 samples (draw included) and `picard_run` with
J = 1 for each model system at (3, 16, 8).

The rows call the current API: one pass tree per operand (`fine_images`), and
checkers that take their draw (`check_symbol_inequality(name, pairs)`,
`membership_check(p, draw)`).  To time an older commit, run the version of this
tool from that commit.

The file also records the core count, Python, numpy and glibc versions,
NFLAB_THREADS, and the git revision with whether src/ differs from it.
Without --out the JSON goes to standard output.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from nflab import iterate as it  # noqa: E402
from nflab import lattice as lat  # noqa: E402
from nflab import nullform as nf  # noqa: E402
from nflab import probe as pr  # noqa: E402
from nflab import propagate as prop  # noqa: E402
from nflab.multiplier import SpaceIndex  # noqa: E402

SCHEMA = "nflab-bench-layers/2"
TWO_PI = 2.0 * math.pi
SYSTEMS = ("YMmodel", "WMM", "WM", "MKGmodel", "scalarQ0")
FORMS = {"q0": nf.BilinearFormSpec("q0"), "qij": nf.BilinearFormSpec("qij", i=1, j=2),
         "qtilde": nf.BilinearFormSpec("qtilde"), "splus": nf.BilinearFormSpec("splus", alpha=0.7),
         "sminus": nf.BilinearFormSpec("sminus", alpha=0.7),
         "ralpha": nf.BilinearFormSpec("ralpha", alpha=0.7)}
SIZED = ("transform", "inverse_transform", "product", "crop", "complex_pad", "operand_pads",
         *FORMS, "duhamel_mixed", "modified_norm")
FIXED = ("schur_bound", "counterexample_lattice_ratio", "counterexample_norms", "membership_1e6",
         "fuzzer_1e6",
         *(f"picard_J1.{name}" for name in SYSTEMS))


def operand_pads(u):
    """The n + 1 derivative pads of u under the malloc policy, as `combine_forms`' planned pads
    (`lattice.planned_products`) run them: one pass tree (`fine_images`)."""
    ops = [("d", mu) for mu in range(u.grid.n + 1)]
    return lambda: (lat._malloc_policy(), lat.fine_images(u, ops))


def crops(grid, fields):
    """One crop (`field_from_fine_samples`) of the fine-lattice product of a real and of a
    complex pair of fields, under the malloc policy, as `combine_forms` runs them."""
    pairs = [(lat.fine_samples(u) * lat.fine_samples(v), u.real_flag) for u, v in fields]
    return lambda: (lat._malloc_policy(), [lat.field_from_fine_samples(grid, lat.SPACETIME, P, real)
                                           for P, real in pairs])


def membership_checks(params, samples: int):
    """The membership checks of every scale in params on one shared draw, draw included."""
    def checks():
        draw = pr.membership_draw(samples, params[0].n, 0)
        return [pr.membership_check(p, draw) for p in params]
    return checks


def sized_layers(n: int, N: int) -> dict:
    """name -> call, for the layers timed at lattice size (n, N)."""
    grid = lat.make_grid(n, N, N, TWO_PI, TWO_PI)
    u, v = (lat.random_field(grid, lat.SPACETIME, seed) for seed in (1, 2))
    u_c, v_c = (lat.random_field(grid, lat.SPACETIME, seed, real=False) for seed in (1, 2))
    samples = lat.inverse_transform(u)
    a_u = lat.time_spatial_rep(u)
    layers = {"transform": lambda: lat.transform(grid, samples, lat.SPACETIME),
              "inverse_transform": lambda: lat.inverse_transform(u),
              "product": lambda: lat.dealiased_product(u, v),
              "crop": crops(grid, [(u, v), (u_c, v_c)]),
              "complex_pad": lambda: (lat._malloc_policy(), lat.fine_samples(u_c)),
              "operand_pads": operand_pads(u)}
    layers.update({name: (lambda s=spec: nf.apply_form(s, u, v)) for name, spec in FORMS.items()})
    layers["duhamel_mixed"] = lambda: prop.duhamel_mixed(grid, a_u)
    layers["modified_norm"] = lambda: lat.modified_mixed_norm(u, 4, 4)
    return layers


def _cauchy(grid, seed: int) -> it.CauchyData:
    """Position data of sup 0.05 and zero velocity, as `nflab iterate` builds them."""
    P = lat.inverse_transform(lat.random_field(grid, lat.SPATIAL, seed, max_freq=2, decay=2.0))
    zero = lat.SpectralField(grid, lat.SPATIAL, np.zeros(grid.spatial_shape, dtype=complex),
                             real_flag=True)
    return it.CauchyData(lat.transform(grid, P * (0.05 / float(np.max(np.abs(P)))), lat.SPATIAL),
                         zero)


def fixed_layers() -> dict:
    """name -> call, for the layers timed once whatever the sizes."""
    rng = np.random.default_rng(0)
    grid = lat.make_grid(3, 16, 8, TWO_PI, TWO_PI)
    systems = dict(zip(SYSTEMS, (
        it.SystemSpec("YMmodel", N=2, q_coeff=rng.uniform(-1, 1, (2, 3, 2, 2)),
                                 q_coeff_second=rng.uniform(-1, 1, (2, 3, 2, 2))),
        it.SystemSpec("WMM", N=2, a_table=rng.uniform(-1, 1, (2, 2, 2))),
        it.SystemSpec("WM", N=2, gamma_const=rng.uniform(-1, 1, (2, 2, 2))),
        it.SystemSpec("MKGmodel", N1=1, N2=2),
        it.SystemSpec("scalarQ0"))))
    idx = SpaceIndex(1.2, 0.6)
    scales = [pr.CounterexampleParams(L=L, s=0.4, theta=0.6, n=3) for L in (8.0, 16.0, 32.0, 64.0)]
    family = pr.EmbeddingSpec(SpaceIndex(0.5, 0.1), SpaceIndex(-0.5, 0.6), SpaceIndex(-0.5, -0.4),
                              n=2)
    layers = {
        "schur_bound": lambda: pr.schur_bound(
            pr.KernelSpec(1.2, 0.2, 0.3, variant="homogeneous", n=3), 16.0, 0.1),
        "counterexample_lattice_ratio": lambda: pr.counterexample_lattice_ratio(family, 8),
        "counterexample_norms": lambda: [pr.counterexample_norms(p) for p in scales],
        "membership_1e6": membership_checks(scales, 10**6),
        "fuzzer_1e6": lambda: nf.check_symbol_inequality("delta", nf.frequency_pairs(10**6, 0)),
    }
    for name, spec in systems.items():
        data = [_cauchy(grid, 10 + 11 * c) for c in range(spec.N)]
        layers[f"picard_J1.{name}"] = (
            lambda s=spec, d=data: it.picard_run(s, d, 1, idx, grid.T_per / 2.0))
    return layers


def time_layer(name: str, size, reps: int) -> dict:
    """Median and quartiles (ms) of `reps` calls after one warm-up, median minor faults and
    voluntary context switches per call and the process's peak RSS (MB): what each child
    process prints."""
    call = (sized_layers(*size) if size else fixed_layers())[name]
    call()
    times, faults, switches = [], [], []
    for _ in range(reps):
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        call()
        times.append(1e3 * (time.perf_counter() - t0))
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        faults.append(r1.ru_minflt - r0.ru_minflt)
        switches.append(r1.ru_nvcsw - r0.ru_nvcsw)
    q1, _, q3 = statistics.quantiles(times, n=4) if reps > 1 else times * 3
    return {"median_ms": statistics.median(times), "q1_ms": q1, "q3_ms": q3,
            "minor_faults": statistics.median(faults),
            "voluntary_switches": statistics.median(switches),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "reps": reps}


def in_child(name: str, size, reps: int) -> dict:
    size = size and "x".join(map(str, size))
    argv = [sys.executable, __file__, "--layer", name, "--reps", str(reps)]
    done = subprocess.run(argv + (["--size", size] if size else []), capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"layer {name} at {size} failed:\n{done.stderr}")
    return {"layer": name, "size": size, **json.loads(done.stdout)}


def _git(*args) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def provenance(reps: int) -> dict:
    rev = _git("rev-parse", "HEAD")
    libc, version = platform.libc_ver()
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "libc": f"{libc} {version}".strip(),
            "NFLAB_THREADS": os.environ.get("NFLAB_THREADS"), "pool_threads": lat._threads(),
            "git_revision": rev.stdout.strip() if rev.returncode == 0 else None,
            "src_modified": (_git("diff", "--quiet", "HEAD", "--", "src").returncode != 0
                             if rev.returncode == 0 else None),
            "reps": reps}


def run(reps: int, sizes) -> dict:
    rows = [in_child(name, size, reps) for size in sizes for name in SIZED]
    rows += [in_child(name, None, reps) for name in FIXED]
    return {"schema": SCHEMA, "provenance": provenance(reps), "layers": rows}


def _sizes(text: str):
    try:
        sizes = [tuple(int(x) for x in s.split("x")) for s in text.split(",")]
    except ValueError:
        sizes = [()]
    if any(len(size) != 2 for size in sizes):
        raise argparse.ArgumentTypeError(f"sizes are n x N pairs like 2x16,3x16, got {text!r}")
    return sizes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=5, help="timed calls per layer, after one warm-up")
    ap.add_argument("--sizes", type=_sizes, default=_sizes("2x16,2x32,3x16"))
    ap.add_argument("--out", help="the BENCH_<n>.json file to write")
    ap.add_argument("--layer", choices=SIZED + FIXED, help="time this layer alone; print its row")
    ap.add_argument("--size", type=_sizes, help="the n x N of a sized --layer")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be >= 1")
    if args.layer:
        if (args.layer in SIZED) != (args.size is not None):
            ap.error(f"--size goes with the sized layers only: {', '.join(SIZED)}")
        print(json.dumps(time_layer(args.layer, args.size and args.size[0], args.reps)))
        return 0
    text = json.dumps(run(args.reps, args.sizes), indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
