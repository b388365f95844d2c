"""Inputs, job lists and output checks of the three benchmark workloads.

`build(name, seed, outdir)` generates every input of a workload from `seed`
and returns its fixed job list.  A job is one closed-loop call into nflab;
its `group` is the end-to-end metric its time is charged to.  Checks run
after the timed passes and use identities that any correct program satisfies
on the job's inputs, never stored outputs.  Tolerances live in `spec.json`.

All nflab calls go through module attributes (`nf.apply_form`, ...), so the
tracer sees the benchmark's own calls as well as nflab's internal ones.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from nflab import cli
from nflab import iterate as it
from nflab import lattice as lat
from nflab import multiplier as mult
from nflab import nullform as nf
from nflab import probe as pr
from nflab import propagate as prop

TWO_PI = 2.0 * math.pi
SPEC = json.loads((Path(__file__).with_name("spec.json")).read_text())
TOL = SPEC["tolerances"]

GROUPS = {
    "picard": ("picard_heavy_s", "picard_light_s"),
    "forms": ("kernel_forms_s", "product_forms_s"),
    "sharpness": ("ce_family_s", "embedding_s", "schur_s", "fuzz_s"),
}

# reference kernel each workload's times are normalized by (bench.REFERENCES):
# picard and sharpness are bound by the interpreter and cache-resident FFTs,
# forms by multi-megabyte temporaries of the kernel sums and 3-D FFTs
REFERENCE = {"picard": "compute", "forms": "memory", "sharpness": "compute"}


@dataclass
class Job:
    name: str
    group: str
    run: Callable[[], Any]
    # check(result, outputs) -> (ok, measured error or note); `outputs` maps
    # job names to results so a check can combine two jobs
    check: Callable[[Any, dict], tuple]


@dataclass
class Workload:
    jobs: list
    # work sizes (lattice shapes, occupied modes, kernel pairs); equal for every seed
    sizes: dict


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(got - want))) / (scale if scale > 0 else 1.0)


def _within(err: float, tol: float) -> tuple:
    return err <= tol, f"rel_err={err:.3e} tol={tol:g}"


def _subseeds(rng, k: int) -> list:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=k)]


def _occupied(f) -> int:
    return int(len(nf.occupied_modes(f)[0]))


# ---------------------------------------------------------------------------
# picard: Picard runs of the five model systems


PICARD_GRID = (3, 16, 8)
PICARD_J = 3
ORACLE_GRID = (2, 32, 32)
ORACLE_J = 8
ORACLE_WIDTH = 0.5
HS = mult.SpaceIndex(1.2, 0.6)


def _cauchy(grid, seed: int, scale: float = 0.05, max_freq: int = 2):
    """Position data scaled to sup `scale` and zero velocity, as `nflab iterate` builds."""
    f = lat.random_field(grid, lat.SPATIAL, seed, max_freq=max_freq, decay=2.0)
    P = lat.inverse_transform(f)
    P = P * (scale / float(np.max(np.abs(P))))
    zero = lat.SpectralField(grid=grid, kind=lat.SPATIAL,
                             coeffs=np.zeros(grid.spatial_shape, dtype=complex),
                             real_flag=True)
    return it.CauchyData(lat.transform(grid, P, lat.SPATIAL), zero)


def _systems(rng, n: int) -> dict:
    pairs = n * (n - 1) // 2

    def table(*shape):
        return rng.uniform(-1.0, 1.0, size=shape)

    return {
        "YMmodel": it.SystemSpec("YMmodel", N=2, q_coeff=table(2, pairs, 2, 2),
                                 q_coeff_second=table(2, pairs, 2, 2)),
        "WMM": it.SystemSpec("WMM", N=2, a_table=table(2, 2, 2)),
        "WM": it.SystemSpec("WM", N=2, gamma_const=table(2, 2, 2)),
        "MKGmodel": it.SystemSpec("MKGmodel", N1=1, N2=1, q_coeff=table(1, pairs, 1, 1),
                                  q_coeff_second=table(1, pairs, 1, 1)),
        "scalarQ0": it.SystemSpec("scalarQ0"),
    }


def _first_cut_iterate(data: list, width: float) -> list:
    grid = data[0].f.grid
    phi = lat.cutoff_profile(grid, width).reshape((grid.N_t,) + (1,) * grid.n)
    return [lat.from_time_spatial_rep(grid, phi * prop.homogeneous_spacetime(d), real_flag=True)
            for d in data]


def _q_combination(coeff, left: list, right: list) -> list:
    """sum_{p,J,K} coeff[I,p,J,K] Q_{ij_p}(left^J, right^K), per SystemSpec's docstring."""
    n = left[0].grid.n
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    out = [np.zeros(left[0].coeffs.shape, dtype=complex) for _ in range(coeff.shape[0])]
    for p, (i, j) in enumerate(pairs):
        spec = nf.BilinearFormSpec("qij", i=i, j=j)
        for J in range(coeff.shape[2]):
            for K in range(coeff.shape[3]):
                q = nf.apply_form(spec, left[J], right[K]).coeffs
                for I in range(coeff.shape[0]):
                    out[I] += coeff[I, p, J, K] * q
    return [left[0].copy_with(c) for c in out]


def _d_inv(f):
    return mult.apply(mult.MultiplierSpec("d", -1.0), f)


def assembled_nonlinearity(spec, comps: list) -> list:
    """The model nonlinearity built from apply_form and apply alone."""
    if spec.kind == "WM":
        q0 = nf.BilinearFormSpec("q0")
        return [-sum(spec.gamma_const[I, J, K] * nf.apply_form(q0, comps[J], comps[K]).coeffs
                     for J in range(spec.N) for K in range(spec.N))
                for I in range(spec.N)]
    if spec.kind == "WMM":
        qt = nf.BilinearFormSpec("qtilde")
        return [sum(spec.a_table[I, J, K] * nf.apply_form(qt, comps[J], comps[K]).coeffs
                    for J in range(spec.N) for K in range(spec.N))
                for I in range(spec.N)]
    if spec.kind == "YMmodel":
        first = [_d_inv(f) for f in _q_combination(spec.q_coeff, comps, comps)]
        second = _q_combination(spec.q_coeff_second, [_d_inv(c) for c in comps], comps)
        return [a.coeffs + b.coeffs for a, b in zip(first, second)]
    if spec.kind == "MKGmodel":
        u, v = comps[:spec.N1], comps[spec.N1:]
        top = [_d_inv(f) for f in _q_combination(spec.q_coeff, v, v)]
        bottom = _q_combination(spec.q_coeff_second, [_d_inv(c) for c in u], v)
        return [f.coeffs for f in top + bottom]
    raise ValueError(spec.kind)


def _trace_ok(trace) -> tuple:
    finite = all(math.isfinite(x) for x in trace.sup_hs + trace.ws + trace.d)
    return finite and trace.flag == "converged", f"flag={trace.flag} finite={finite}"


def _nonlinearity_check(spec, data: list, width: float):
    def check(trace, outputs):
        ok, note = _trace_ok(trace)
        cut = _first_cut_iterate(data, width)
        got = [f.coeffs for f in it.apply_nonlinearity(spec, cut)]
        want = assembled_nonlinearity(spec, cut)
        err = max(_rel_err(g, w) for g, w in zip(got, want))
        ok2, note2 = _within(err, TOL["nonlinearity_rel"])
        return ok and ok2, f"{note} {note2}"
    return check


def _oracle_check(data, grid):
    def check(trace, outputs):
        ok, note = _trace_ok(trace)
        ts = prop.signed_times(grid)
        window = np.abs(ts) <= ORACLE_WIDTH / 2.0 + 1e-12
        want = max(mult.spatial_hs_norm(it.q0_closed_form(data, t).coeffs, grid, HS.s)
                   for t in ts[window])
        err = abs(trace.sup_hs[-1] - want) / want
        ok2, note2 = _within(err, TOL["picard_oracle_rel"])
        return ok and ok2, f"{note} {note2}"
    return check


def _cli_iterate_check(path: str):
    def check(code, outputs):
        rows = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
        flag = rows[-1].rsplit(",", 1)[-1]
        return code == 0 and flag == "converged", f"exit={code} flag={flag}"
    return check


def build_picard(seed: int, outdir: str) -> Workload:
    rng = np.random.default_rng([seed, 1])
    grid = lat.make_grid(*PICARD_GRID, TWO_PI, TWO_PI)
    width = grid.T_per / 2.0
    systems = _systems(rng, grid.n)
    jobs = []
    sizes = {"picard.grid": list(grid.spacetime_shape)}
    for name in ("YMmodel", "WMM", "WM", "MKGmodel", "scalarQ0"):
        spec = systems[name]
        data = [_cauchy(grid, s) for s in _subseeds(rng, spec.N)]
        sizes[f"picard.{name}.data_modes"] = [_occupied(d.f) for d in data]
        check = (_nonlinearity_check(spec, data, width) if name != "scalarQ0"
                 else (lambda trace, outputs: _trace_ok(trace)))
        jobs.append(Job(
            name=f"{name}@{grid.n}x{grid.N_x}",
            group="picard_heavy_s" if name in ("YMmodel", "WMM") else "picard_light_s",
            run=lambda spec=spec, data=data: it.picard_run(spec, data, PICARD_J, HS, width),
            check=check))

    # the closed-form oracle case of the scalar Q0 equation: a seeded
    # translate of cos(x) cos(y), which leaves every H^s norm unchanged
    og = lat.make_grid(*ORACLE_GRID, 1.0, TWO_PI)
    X = np.arange(og.N_x) * og.dx
    sx, sy = rng.uniform(0.0, TWO_PI, size=2)
    XX, YY = np.meshgrid(X + sx, X + sy, indexing="ij")
    f = lat.transform(og, 0.05 * np.cos(XX) * np.cos(YY), lat.SPATIAL)
    zero = lat.transform(og, np.zeros(og.spatial_shape), lat.SPATIAL)
    odata = it.CauchyData(f, zero)
    sizes["picard.oracle.grid"] = list(og.spacetime_shape)
    jobs.append(Job(
        name=f"scalarQ0-oracle@{og.n}x{og.N_x}", group="picard_light_s",
        run=lambda: it.picard_run(it.SystemSpec("scalarQ0"), [odata], ORACLE_J, HS, ORACLE_WIDTH),
        check=_oracle_check(odata, og)))

    path = os.path.join(outdir, "iterate.csv")
    argv = ["iterate", "--system", "scalarQ0", "--J", "8", "--n", "2", "--nt", "32",
            "--nx", "32", "--t-per", "1.0", "--seed", str(_subseeds(rng, 1)[0] % 10**6),
            "--out", path]
    jobs.append(Job(name="cli-iterate", group="picard_light_s",
                    run=lambda: cli.main(argv), check=_cli_iterate_check(path)))
    return Workload(jobs, sizes)


# ---------------------------------------------------------------------------
# forms: every bilinear form at three lattice sizes


FORM_SIZES = ((2, 16), (2, 32), (3, 16))
# spatial band |k_j| <= b of the kernel-route fields.  Their time band stays
# at random_field's default |k_0| <= N/4, where tau-sums reach the Nyquist
# plane; the kernel cost grows with the occupied pairs, and these bands keep
# one pass near 2 s (0.5M, 1.9M and 1.3M pairs)
KERNEL_BANDS = {(2, 16): 4, (2, 32): 4, (3, 16): 2}
KERNEL_ALPHA = 0.7


def _deriv(f, j: int):
    return f.copy_with(f.coeffs * (1j * f.grid.xi_component(j, f.kind)))


def _box(f):
    g = f.grid
    return f.copy_with(f.coeffs * (g.tau_broadcast() ** 2 - g.abs_xi(f.kind) ** 2))


def _riesz_pair(f, j: int):
    r0 = mult.MultiplierSpec("riesz", axis=0)
    return mult.apply(r0, mult.apply(mult.MultiplierSpec("riesz", axis=j), f))


def _expected(form: str, u, v) -> np.ndarray:
    """Reference value of a derivative-route form, from products and multipliers."""
    prod = lat.dealiased_product
    if form == "q0":
        return 0.5 * (_box(prod(u, v)).coeffs - prod(_box(u), v).coeffs
                      - prod(u, _box(v)).coeffs)
    if form == "qij":
        return (_deriv(prod(u, _deriv(v, 1)), 0).coeffs
                - _deriv(prod(u, _deriv(v, 0)), 1).coeffs)
    if form == "qtilde":
        total = 0
        for j in range(1, u.grid.n + 1):
            w = prod(_riesz_pair(u, j), v).coeffs - prod(u, _riesz_pair(v, j)).coeffs
            total = total + _deriv(u.copy_with(w), j - 1).coeffs
        return total
    if form == "product":
        return prod(u, v, factor=2.0).coeffs
    raise ValueError(form)


def _form_check(form: str, u, v):
    def check(out, outputs):
        return _within(_rel_err(out.coeffs, _expected(form, u, v)), TOL["forms_rel"])
    return check


def _splus_check(u, v):
    """S_+ at alpha = 1 equals (Du)v + u(Dv) - D(uv)."""
    def check(out, outputs):
        D = mult.MultiplierSpec("d", 1.0)
        prod = lat.dealiased_product
        want = (prod(mult.apply(D, u), v).coeffs + prod(u, mult.apply(D, v)).coeffs
                - mult.apply(D, prod(u, v)).coeffs)
        got = nf.apply_form(nf.BilinearFormSpec("splus", alpha=1.0), u, v).coeffs
        return _within(_rel_err(got, want), TOL["forms_rel"])
    return check


def _sminus_check(spec, u, v):
    def check(out, outputs):
        return _within(_rel_err(out.coeffs, nf.apply_form(spec, v, u).coeffs), TOL["forms_rel"])
    return check


def _ralpha_check(u, v):
    """R^alpha = S+(u+,v+) + S-(u+,v-) + S-(u-,v+) + S+(u-,v-)."""
    def check(out, outputs):
        up, um = prop.pm_decompose(u)
        vp, vm = prop.pm_decompose(v)
        sp = nf.BilinearFormSpec("splus", alpha=KERNEL_ALPHA)
        sm = nf.BilinearFormSpec("sminus", alpha=KERNEL_ALPHA)
        four = (nf.apply_form(sp, up, vp).coeffs + nf.apply_form(sm, up, vm).coeffs
                + nf.apply_form(sm, um, vp).coeffs + nf.apply_form(sp, um, vm).coeffs)
        return _within(_rel_err(out.coeffs, four), TOL["forms_rel"])
    return check


def _kernel_field(grid, kind: str, seed: int, band: int):
    """random_field at its default band, spatial axes cut to |k_j| <= band."""
    f = lat.random_field(grid, kind, seed)
    k = np.abs(np.fft.fftfreq(grid.N_x) * grid.N_x) <= band
    keep = np.ones(f.coeffs.shape, dtype=bool)
    for ax in range(grid.n):
        shape = [1] * f.coeffs.ndim
        shape[f.coeffs.ndim - grid.n + ax] = grid.N_x
        keep &= k.reshape(shape)
    return f.copy_with(np.where(keep, f.coeffs, 0.0))


def _form_job(name: str, group: str, spec, u, v, check) -> Job:
    return Job(name=name, group=group, run=lambda: nf.apply_form(spec, u, v), check=check)


def build_forms(seed: int, outdir: str) -> Workload:
    rng = np.random.default_rng([seed, 2])
    jobs = []
    sizes = {}
    for n, N in FORM_SIZES:
        g = lat.make_grid(n, N, N, TWO_PI, TWO_PI)
        tag = f"{n}x{N}"
        # real fields over the whole band, tau = 0 and Nyquist planes included
        u = lat.transform(g, rng.standard_normal(g.spacetime_shape), lat.SPACETIME)
        v = lat.transform(g, rng.standard_normal(g.spacetime_shape), lat.SPACETIME)
        for form, spec in (("q0", nf.BilinearFormSpec("q0")),
                           ("qij", nf.BilinearFormSpec("qij", i=1, j=2)),
                           ("qtilde", nf.BilinearFormSpec("qtilde")),
                           ("product", nf.BilinearFormSpec("product"))):
            jobs.append(_form_job(f"{form}@{tag}", "product_forms_s", spec, u, v,
                                  _form_check(form, u, v)))
        # kernel-route fields, tau = 0 plane included
        s = _subseeds(rng, 4)
        band = KERNEL_BANDS[(n, N)]
        ku = _kernel_field(g, lat.SPACETIME, s[0], band)
        kv = _kernel_field(g, lat.SPACETIME, s[1], band)
        xu = _kernel_field(g, lat.SPATIAL, s[2], band)
        xv = _kernel_field(g, lat.SPATIAL, s[3], band)
        sp = nf.BilinearFormSpec("splus", alpha=KERNEL_ALPHA)
        sm = nf.BilinearFormSpec("sminus", alpha=KERNEL_ALPHA)
        jobs += [
            _form_job(f"ralpha@{tag}", "kernel_forms_s",
                      nf.BilinearFormSpec("ralpha", alpha=KERNEL_ALPHA), ku, kv,
                      _ralpha_check(ku, kv)),
            _form_job(f"splus@{tag}", "kernel_forms_s", sp, ku, kv, _splus_check(ku, kv)),
            _form_job(f"sminus@{tag}", "kernel_forms_s", sm, ku, kv, _sminus_check(sm, ku, kv)),
            _form_job(f"splus-spatial@{tag}", "kernel_forms_s", sp, xu, xv, _splus_check(xu, xv)),
            _form_job(f"sminus-spatial@{tag}", "kernel_forms_s", sm, xu, xv,
                      _sminus_check(sm, xu, xv)),
        ]
        occ = {k: _occupied(f) for k, f in (("u", u), ("v", v), ("ku", ku), ("kv", kv),
                                            ("xu", xu), ("xv", xv))}
        sizes[f"forms.{tag}.shape"] = list(g.spacetime_shape)
        sizes[f"forms.{tag}.occupied"] = occ
        sizes[f"forms.{tag}.kernel_pairs"] = (3 * occ["ku"] * occ["kv"]
                                              + 2 * occ["xu"] * occ["xv"])
    sizes["forms.kernel_pairs"] = sum(v for k, v in sizes.items() if k.endswith(".kernel_pairs"))
    return Workload(jobs, sizes)


# ---------------------------------------------------------------------------
# sharpness: probes, Schur certificates, counterexamples, fuzzing


def _csv_rows(path: str, last: int = 7) -> list:
    """Data rows split into their last `last` fields (param_json holds commas)."""
    lines = Path(path).read_text().splitlines()
    return [ln.rsplit(",", last - 1) for ln in lines[2:] if not ln.startswith("#")]


def _csv_comments(path: str) -> dict:
    out = {}
    for ln in Path(path).read_text().splitlines()[1:]:
        if ln.startswith("#"):
            for item in ln[1:].split():
                key, _, val = item.partition("=")
                out[key] = val
    return out


def _cli_job(name: str, group: str, argv: list, check) -> Job:
    return Job(name=name, group=group, run=lambda: cli.main(argv), check=check)


def _verdict_check(path: str, want: str):
    def check(code, outputs):
        verdicts = {row[-1] for row in _csv_rows(path)}
        return code == 0 and verdicts == {want}, f"exit={code} verdicts={sorted(verdicts)}"
    return check


def _drift_rule_check(sup: float, drift: float, verdict: str) -> tuple:
    """The verdict follows the probe's fixed drift rule.

    Whether a finite cone-concentrated ensemble lands within the drift limit
    depends on the seed, so the check asks for a finite positive ratio and a
    verdict that agrees with the reported drift, not for one verdict.
    """
    rule = "bounded-consistent" if sup > 0.0 and drift <= pr.DRIFT_LIMIT else "inconclusive"
    ok = math.isfinite(sup) and sup > 0.0 and verdict == rule
    return ok, f"sup={sup:.4g} drift={drift:.3f} verdict={verdict}"


def _cone_check(path: str):
    def check(code, outputs):
        (row,) = _csv_rows(path)
        ok, note = _drift_rule_check(float(row[3]), float(row[5]), row[6])
        return code == 0 and ok, f"exit={code} {note}"
    return check


def _ce_check(path: str, s: float, theta: float):
    def check(code, outputs):
        c = _csv_comments(path)
        errs = {"slope_u": abs(float(c["slope_u"]) - (s + theta + 1.5)),
                "slope_v": abs(float(c["slope_v"]) - (2.0 * s + 2.0)),
                "slope_ratio": abs(float(c["slope_ratio"]) - (1.5 - s - theta))}
        ok = (code == 0 and int(c["membership_failures"]) == 0
              and all(errs[k] <= TOL["ce_" + k] for k in errs))
        note = " ".join(f"{k}_err={v:.3f}" for k, v in errs.items())
        return ok, f"exit={code} membership_failures={c['membership_failures']} {note}"
    return check


def _ladder_check(path: str, inside: bool):
    def check(code, outputs):
        vals = [float(r[2]) for r in _csv_rows(path)]
        if inside:
            worst = max(abs(v - vals[0]) / vals[0] for v in vals[1:])
            return code == 0 and worst < TOL["schur_inside_rel"], f"exit={code} rel_change={worst:.3e}"
        grow = min(b / a for a, b in zip(vals[:2], vals[1:3]))
        return code == 0 and grow >= TOL["schur_outside_factor"], f"exit={code} min_growth={grow:.3f}"
    return check


def _symbol_check(path: str):
    def check(code, outputs):
        bad = sum(int(r[2]) for r in _csv_rows(path))
        return code == 0 and bad == 0, f"exit={code} violations={bad}"
    return check


TRILINEAR_KERNEL = pr.KernelSpec(a=0.8, b=0.6, c=0.2, variant="inhomogeneous", n=2)
TRILINEAR_RADIUS = 5.0


def _gaussian_spectrum(spacing: float, center) -> dict:
    """Seeded translate of the refinement-stability profile exp(-|x - c|^2 / 4) on |x| <= 5."""
    m = int(TRILINEAR_RADIUS / spacing)
    pts = {}
    for idx in np.ndindex(2 * m + 1, 2 * m + 1):
        key = (idx[0] - m, idx[1] - m)
        x = np.array(key) * spacing
        if float(x @ x) <= TRILINEAR_RADIUS**2:
            d = x - center
            pts[key] = math.exp(-float(d @ d) / 4.0)
    return pts


def _l2(f: dict, spacing: float) -> float:
    return math.sqrt(sum(w * w for w in f.values()) * spacing**2)


def _trilinear_check(ratios, outputs):
    drift = abs(ratios[1] - ratios[0]) / ratios[0]
    return drift <= TOL["trilinear_drift"], f"drift={drift:.3e}"


def _schur_certificate_check(C, outputs):
    """The spacing-1/2 trilinear ratio stays below sqrt of the Cauchy-Schwarz constant."""
    ratio, bound = outputs["trilinear"][1], math.sqrt(C)
    return ratio <= bound, f"ratio={ratio:.4g} certificate={bound:.4g}"


def build_sharpness(seed: int, outdir: str) -> Workload:
    rng = np.random.default_rng([seed, 3])
    s = [x % 10**6 for x in _subseeds(rng, 5)]
    out = {k: os.path.join(outdir, f"{k}.csv") for k in
           ("ce", "family", "cone", "energy", "inside", "outside", "sym")}
    jobs = [
        _cli_job("cli-counterexample", "ce_family_s",
                 ["counterexample", "--n", "3", "--L", "8,16,32,64",
                  "--membership-samples", "100000", "--seed", str(s[0]), "--out", out["ce"]],
                 _ce_check(out["ce"], 0.4, 0.6)),
        # crit 9's failing product estimate: s = 0, theta = 0.6 on n = 2
        _cli_job("cli-family", "ce_family_s",
                 ["probe-embedding", "--ensemble", "counterexample-family", "--n", "2",
                  "--trials", "1", "--left-s=0.5", "--left-theta=0.1", "--right-s=-0.5",
                  "--right-theta=0.6", "--target-s=-0.5", "--target-theta=-0.4",
                  "--scales", "4,6,8", "--out", out["family"]],
                 _verdict_check(out["family"], "growth-detected")),
        _cli_job("cli-cone", "embedding_s",
                 ["probe-embedding", "--ensemble", "cone-concentrated", "--trials", "10",
                  "--left-s", "1.2", "--left-theta", "0.6", "--right-s", "1.2",
                  "--right-theta", "0.6", "--target-s", "1.2", "--target-theta", "0.6",
                  "--seed", str(s[1]), "--out", out["cone"]],
                 _cone_check(out["cone"])),
        _cli_job("cli-energy", "embedding_s",
                 ["probe-embedding", "--ensemble", "cone-concentrated", "--trials", "10",
                  "--unary", "--left-s", "0.0", "--left-theta", "0.6", "--target-q", "inf",
                  "--target-r", "2", "--seed", str(s[2]), "--out", out["energy"]],
                 _cone_check(out["energy"])),
    ]
    for key, c, inside in (("inside", "0.3", True), ("outside", "0.6", False)):
        jobs.append(_cli_job(
            f"cli-kernel-{key}", "schur_s",
            ["probe-kernel", "--a", "1.2", "--b", "0.2", "--c", c, "--variant", "homogeneous",
             "--n", "3", "--R", "16", "--h", "0.1", "--halvings", "2", "--out", out[key]],
            _ladder_check(out[key], inside)))
    jobs.append(_cli_job("cli-symbol-check", "fuzz_s",
                         ["symbol-check", "--name", "all", "--samples", "100000",
                          "--seed", str(s[3]), "--out", out["sym"]],
                         _symbol_check(out["sym"])))

    g = lat.make_grid(2, 16, 16, TWO_PI, TWO_PI)
    ralpha = pr.EmbeddingSpec(left=mult.SpaceIndex(1.2, 0.6), right=mult.SpaceIndex(1.2, 0.6),
                              target=mult.SpaceIndex(0.8, 0.6), n=2,
                              form=nf.BilinearFormSpec("ralpha", alpha=KERNEL_ALPHA))
    jobs.append(Job(
        name="probe-ralpha", group="embedding_s",
        run=lambda: pr.probe_embedding(ralpha, "cone-concentrated", 10, g, seed=s[4]),
        check=lambda rep, outputs: _drift_rule_check(rep.sup_ratio, rep.refinement_drift,
                                                     rep.verdict)))

    center = rng.uniform(-0.5, 0.5, size=2)
    spectra = {h: _gaussian_spectrum(h, center) for h in (1.0, 0.5)}

    def trilinear():
        return [pr.trilinear_form(TRILINEAR_KERNEL, f, f, f, spacing=h) / _l2(f, h) ** 3
                for h, f in spectra.items()]

    jobs.append(Job(name="trilinear", group="schur_s", run=trilinear, check=_trilinear_check))
    jobs.append(Job(
        name="discrete-schur", group="schur_s",
        run=lambda: pr.discrete_schur_constant(TRILINEAR_KERNEL, spectra[0.5], spectra[0.5],
                                               spectra[0.5], spacing=0.5),
        check=_schur_certificate_check))
    sizes = {"sharpness.cone.grid": list(g.spacetime_shape),
             "sharpness.trilinear.points": [len(f) for f in spectra.values()]}
    return Workload(jobs, sizes)


_FACTORIES = {"picard": build_picard, "forms": build_forms, "sharpness": build_sharpness}
WORKLOADS = tuple(_FACTORIES)


def build(name: str, seed: int, outdir: str) -> Workload:
    """Every input of workload `name`, generated from `seed`; CLI jobs write into `outdir`."""
    return _FACTORIES[name](seed, outdir)
