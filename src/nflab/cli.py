"""Configuration-driven experiment runner.

Subcommands: norms, admissible, symbol-check, iterate, probe-embedding,
probe-kernel, counterexample, selftest.  Exit codes: 0 success, 2 config
error, 3 numerical-failure flag (divergence, ascent non-convergence,
growth-rule mismatch never raises, it is reported in the CSV).

Config files are flat `key = value` text with [section] brackets; values on
the command line override the file.  Every output file starts with a header
line embedding the fully resolved configuration, so identical config plus
seed reproduces byte-identical output.  NFLAB_THREADS caps the fan-out of
parameter sweeps.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import iterate as it
from . import lattice as lat
from . import multiplier as mult
from . import nullform as nf
from . import probe as pr

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    pass


def _fail(code: int, msg: str) -> int:
    print(f"ERROR\tcode={code}\tmsg={msg}")
    return code


def _parse_value(text: str):
    text = text.strip()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        if text.lower() in ("inf", "infinity"):
            return math.inf
        return text


def read_config(path: str) -> dict:
    """Flat key = value lines under [section] brackets -> {'section.key': value}."""
    out = {}
    section = ""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, val = line.split("=", 1)
            full = f"{section}.{key.strip()}" if section else key.strip()
            out[full] = _parse_value(val)
    return out


GRID_KEYS = {"grid.n": 2, "grid.N_t": 16, "grid.N_x": 16,
             "grid.T_per": 2 * math.pi, "grid.L_per": 2 * math.pi}


def _resolve(defaults: dict, file_cfg: dict, overrides: dict) -> dict:
    cfg = dict(defaults)
    for k, v in file_cfg.items():
        if k not in cfg:
            raise ConfigError(f"unknown config key {k!r}")
        cfg[k] = v
    for k, v in overrides.items():
        if v is not None:
            cfg[k] = v
    return cfg


def _header(cfg: dict) -> str:
    """Header line embedding the resolved configuration.

    Output destinations are not experiment parameters and are excluded, so
    identical config plus seed reproduces byte-identical files anywhere.
    """
    items = " ".join(f"{k}={cfg[k]!r}" for k in sorted(cfg)
                     if not k.endswith(".out"))
    return f"# config: {items}\n"


def _grid_from(cfg: dict) -> lat.Grid:
    return lat.make_grid(cfg["grid.n"], cfg["grid.N_t"], cfg["grid.N_x"],
                         cfg["grid.T_per"], cfg["grid.L_per"])


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _threads() -> int:
    env = os.environ.get("NFLAB_THREADS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return max(1, os.cpu_count() or 1)


def _sweep(func, args_list):
    """Deterministically ordered concurrent map."""
    workers = min(_threads(), max(1, len(args_list)))
    if workers == 1:
        return [func(a) for a in args_list]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(func, args_list))


# ---------------------------------------------------------------------------
# subcommands


def cmd_admissible(args, file_cfg) -> int:
    cfg = _resolve({"adm.q": 4.0, "adm.r": 4.0, "adm.n": 3,
                    "adm.sigma": None, "adm.s1": None, "adm.s2": None},
                   file_cfg,
                   {"adm.q": args.q, "adm.r": args.r, "adm.n": args.n,
                    "adm.sigma": args.sigma, "adm.s1": args.s1, "adm.s2": args.s2})
    q, r, n = cfg["adm.q"], cfg["adm.r"], cfg["adm.n"]
    ok = mult.is_wave_admissible(q, r, n)
    if not ok:
        print("not-admissible")
        return EXIT_OK
    s = mult.strichartz_s(q, r, n)
    line = f"admissible s={s:g}"
    if cfg["adm.sigma"] is not None:
        okB = mult.check_thmB(q, r, n, cfg["adm.sigma"], cfg["adm.s1"], cfg["adm.s2"])
        # the stated region is sufficient, not sharp, for s1 != s2: outside
        # it the estimate's status is unknown rather than false
        line += f" bilinear={'inside' if okB else 'unknown'}"
    print(line)
    return EXIT_OK


def cmd_symbol_check(args, file_cfg) -> int:
    cfg = _resolve({"symbol.name": "delta", "symbol.samples": 100000,
                    "symbol.seed": 0, "symbol.out": None},
                   file_cfg,
                   {"symbol.name": args.name, "symbol.samples": args.samples,
                    "symbol.seed": args.seed, "symbol.out": args.out})
    names = list(nf.INEQUALITY_REGISTRY) if cfg["symbol.name"] == "all" else [cfg["symbol.name"]]
    for nm in names:
        if nm not in nf.INEQUALITY_REGISTRY:
            raise ConfigError(f"unknown inequality {nm!r}; known: {sorted(nf.INEQUALITY_REGISTRY)}")
    reports = _sweep(lambda nm: nf.check_symbol_inequality(
        nm, cfg["symbol.samples"], cfg["symbol.seed"]), names)
    buf = [_header(cfg), "name,samples,violations,worst_margin,constant\n"]
    bad = 0
    for rep in reports:
        buf.append(f"{rep.name},{rep.samples},{rep.violations},{rep.worst_margin!r},{rep.constant!r}\n")
        bad += rep.violations
    _write(cfg["symbol.out"], "".join(buf))
    return EXIT_NUMERICAL if bad else EXIT_OK


def cmd_norms(args, file_cfg) -> int:
    defaults = dict(GRID_KEYS)
    defaults.update({"norms.s": 0.5, "norms.theta": 0.6, "norms.q": 2.0,
                     "norms.r": 2.0, "norms.seed": 0, "norms.field": None,
                     "norms.out": None})
    cfg = _resolve(defaults, file_cfg,
                   {"grid.n": args.n, "grid.N_t": args.nt, "grid.N_x": args.nx,
                    "grid.T_per": args.t_per, "grid.L_per": args.l_per,
                    "norms.s": args.s, "norms.theta": args.theta,
                    "norms.q": args.q, "norms.r": args.r,
                    "norms.seed": args.seed, "norms.field": args.field,
                    "norms.out": args.out})
    if cfg["norms.field"]:
        f = lat.read_field(cfg["norms.field"])
    else:
        grid = _grid_from(cfg)
        f = lat.random_field(grid, lat.SPACETIME, cfg["norms.seed"])
    if f.kind != lat.SPACETIME:
        raise ConfigError("norms needs a spacetime field")
    q, r = cfg["norms.q"], cfg["norms.r"]
    idx = mult.SpaceIndex(cfg["norms.s"], cfg["norms.theta"])
    lower, ascent, upper, converged = lat.modified_mixed_norm_detailed(f, q, r)
    rows = [_header(cfg),
            "mixed,modified_lower,modified_ascent,modified_upper,ws,cal,ascent_converged\n",
            f"{lat.mixed_norm(f, q, r)!r},{lower!r},{ascent!r},{upper!r},"
            f"{mult.ws_norm(f, idx)!r},{mult.cal_norm(f, idx)!r},{int(converged)}\n"]
    _write(cfg["norms.out"], "".join(rows))
    return EXIT_OK if converged else EXIT_NUMERICAL


def _system_from_name(name: str, n_comp: int) -> it.SystemSpec:
    if name == "scalarQ0":
        return it.SystemSpec("scalarQ0")
    if name == "WM":
        return it.SystemSpec("WM", N=n_comp)
    if name == "WMM":
        return it.SystemSpec("WMM", N=n_comp)
    if name == "YMmodel":
        return it.SystemSpec("YMmodel", N=n_comp)
    if name == "MKGmodel":
        half = max(1, n_comp // 2)
        return it.SystemSpec("MKGmodel", N1=half, N2=max(1, n_comp - half))
    raise ConfigError(f"unknown system {name!r}")


def cmd_iterate(args, file_cfg) -> int:
    defaults = dict(GRID_KEYS)
    defaults.update({"iterate.system": "scalarQ0", "iterate.J": 8,
                     "iterate.components": 1, "iterate.s": 1.2,
                     "iterate.theta": 0.6, "iterate.cutoff_width": None,
                     "iterate.data_scale": 0.05, "iterate.max_freq": 2,
                     "iterate.seed": 0, "iterate.out": None})
    cfg = _resolve(defaults, file_cfg,
                   {"grid.n": args.n, "grid.N_t": args.nt, "grid.N_x": args.nx,
                    "grid.T_per": args.t_per, "grid.L_per": args.l_per,
                    "iterate.system": args.system, "iterate.J": args.J,
                    "iterate.components": args.components, "iterate.s": args.s,
                    "iterate.theta": args.theta,
                    "iterate.cutoff_width": args.cutoff_width,
                    "iterate.data_scale": args.data_scale,
                    "iterate.seed": args.seed, "iterate.out": args.out})
    grid = _grid_from(cfg)
    if cfg["iterate.cutoff_width"] is None:
        cfg["iterate.cutoff_width"] = grid.T_per / 2.0
    sys_spec = _system_from_name(cfg["iterate.system"], cfg["iterate.components"])
    data = []
    scale = cfg["iterate.data_scale"]
    for c in range(sys_spec.N):
        f = lat.random_field(grid, lat.SPATIAL, cfg["iterate.seed"] + 11 * c,
                             max_freq=cfg["iterate.max_freq"], decay=2.0)
        P = lat.inverse_transform(f)
        top = float(np.max(np.abs(P)))
        P = P * (scale / top) if top > 0 and scale > 0 else P * 0.0
        fpos = lat.transform(grid, P, lat.SPATIAL)
        zero = lat.SpectralField(grid=grid, kind=lat.SPATIAL,
                                 coeffs=np.zeros(grid.spatial_shape, dtype=complex),
                                 real_flag=True)
        data.append(it.CauchyData(fpos, zero))
    trace = it.picard_run(sys_spec, data, cfg["iterate.J"],
                          mult.SpaceIndex(cfg["iterate.s"], cfg["iterate.theta"]),
                          cfg["iterate.cutoff_width"])
    _write(cfg["iterate.out"], _header(cfg) + trace.to_csv())
    return EXIT_NUMERICAL if trace.flag == "diverged" else EXIT_OK


def parse_form(text, n: int):
    """Bilinear form of a probe: product (None), q0, qtilde or qij<i><j> with 1 <= i < j <= n."""
    if text == "product":
        return None
    if text in ("q0", "qtilde"):
        return nf.BilinearFormSpec(text)
    m = re.fullmatch(r"qij([1-9])([1-9])", str(text))
    if m and 1 <= int(m[1]) < int(m[2]) <= n:
        return nf.BilinearFormSpec("qij", i=int(m[1]), j=int(m[2]))
    raise ConfigError(f"unknown form {text!r}; expected product, q0, qtilde or qij<i><j>, i < j <= {n}")


def cmd_probe_embedding(args, file_cfg) -> int:
    defaults = dict(GRID_KEYS)
    defaults.update({"probe.ensemble": "random-gaussian", "probe.trials": 20,
                     "probe.seed": 0, "probe.form": "product",
                     "probe.left_s": 1.2, "probe.left_theta": 0.6,
                     "probe.right_s": 1.2, "probe.right_theta": 0.6,
                     "probe.target_s": 1.2, "probe.target_theta": 0.6,
                     "probe.target_q": None, "probe.target_r": None,
                     "probe.unary": False,
                     "probe.scales": None, "probe.out": None})
    cfg = _resolve(defaults, file_cfg,
                   {"grid.n": args.n, "grid.N_t": args.nt, "grid.N_x": args.nx,
                    "grid.T_per": args.t_per, "grid.L_per": args.l_per,
                    "probe.ensemble": args.ensemble, "probe.trials": args.trials,
                    "probe.seed": args.seed, "probe.form": args.form,
                    "probe.left_s": args.left_s, "probe.left_theta": args.left_theta,
                    "probe.right_s": args.right_s, "probe.right_theta": args.right_theta,
                    "probe.target_s": args.target_s, "probe.target_theta": args.target_theta,
                    "probe.target_q": args.target_q, "probe.target_r": args.target_r,
                    "probe.unary": True if args.unary else None,
                    "probe.scales": args.scales, "probe.out": args.out})
    form = parse_form(cfg["probe.form"], cfg["grid.n"])
    target_mixed = None
    if cfg["probe.target_q"] is not None or cfg["probe.target_r"] is not None:
        if cfg["probe.target_q"] is None or cfg["probe.target_r"] is None:
            raise ConfigError("mixed-norm targets need both target_q and target_r")
        target_mixed = (cfg["probe.target_q"], cfg["probe.target_r"])
    spec = pr.EmbeddingSpec(
        left=mult.SpaceIndex(cfg["probe.left_s"], cfg["probe.left_theta"]),
        right=mult.SpaceIndex(cfg["probe.right_s"], cfg["probe.right_theta"]),
        target=mult.SpaceIndex(cfg["probe.target_s"], cfg["probe.target_theta"]),
        n=cfg["grid.n"], form=form, target_mixed=target_mixed,
        unary=bool(cfg["probe.unary"]))
    scales = cfg["probe.scales"]
    if isinstance(scales, str):
        scales = [float(x) for x in scales.split(",")]
    grid = _grid_from(cfg)
    report = pr.probe_embedding(spec, cfg["probe.ensemble"], cfg["probe.trials"],
                                grid, seed=cfg["probe.seed"], scales=scales)
    def _jsonable(x):
        x = float(x)
        return "inf" if math.isinf(x) else x

    param_fields = {"left": [spec.left.s, spec.left.theta]}
    if not spec.unary:
        param_fields["right"] = [spec.right.s, spec.right.theta]
    if spec.target_mixed is not None:
        param_fields["target_mixed"] = [_jsonable(x) for x in spec.target_mixed]
    else:
        param_fields["target"] = [spec.target.s, spec.target.theta]
    param = json.dumps(param_fields, separators=(",", ":"))
    rows = [_header(cfg), "probe_id,param_json,scale,value,slope,residual,verdict\n"]
    if report.scales:
        for L, v in zip(report.scales, report.values):
            rows.append(f"embedding,{param!r},{L!r},{v!r},{report.slope!r},"
                        f"{report.residual!r},{report.verdict}\n")
    else:
        rows.append(f"embedding,{param!r},,{report.sup_ratio!r},,"
                    f"{'' if report.refinement_drift is None else repr(report.refinement_drift)},"
                    f"{report.verdict}\n")
    _write(cfg["probe.out"], "".join(rows))
    if cfg["probe.out"] and report.scales:
        with open(str(cfg["probe.out"]) + ".plot", "w") as fh:
            fh.write(_header(cfg))
            for L, v in zip(report.scales, report.values):
                fh.write(f"{L!r} {v!r}\n")
    return EXIT_OK


def cmd_probe_kernel(args, file_cfg) -> int:
    defaults = {"kernel.a": 1.2, "kernel.b": 0.2, "kernel.c": 0.3,
                "kernel.sign": "plus", "kernel.variant": "homogeneous",
                "kernel.n": 3, "kernel.R": 16.0, "kernel.h": 0.1,
                "kernel.halvings": 2, "kernel.out": None}
    cfg = _resolve(defaults, file_cfg,
                   {"kernel.a": args.a, "kernel.b": args.b, "kernel.c": args.c,
                    "kernel.sign": args.sign, "kernel.variant": args.variant,
                    "kernel.n": args.n, "kernel.R": args.R, "kernel.h": args.h,
                    "kernel.halvings": args.halvings, "kernel.out": args.out})
    k = pr.KernelSpec(a=cfg["kernel.a"], b=cfg["kernel.b"], c=cfg["kernel.c"],
                      sign=cfg["kernel.sign"], variant=cfg["kernel.variant"],
                      n=cfg["kernel.n"])
    ladder = [(cfg["kernel.R"], cfg["kernel.h"] / 2**i)
              for i in range(cfg["kernel.halvings"] + 1)]
    ladder.append((2 * cfg["kernel.R"], cfg["kernel.h"]))
    vals = _sweep(lambda rh: pr.schur_bound(k, rh[0], rh[1]), ladder)
    rows = [_header(cfg), "R,h,value\n"]
    for (R, h), v in zip(ladder, vals):
        rows.append(f"{R!r},{h!r},{v!r}\n")
    inside = (k.a + k.b + k.c > k.n / 2.0) and (k.c < (k.n - 1) / 4.0)
    rows.append(f"# region={'inside' if inside else 'outside'}\n")
    if not inside:
        # failure in this direction is asserted without proof in the source
        # material; growth evidence here is tagged, not treated as a refutation
        rows.append("# tag=unproven-direction\n")
    _write(cfg["kernel.out"], "".join(rows))
    return EXIT_OK


def cmd_counterexample(args, file_cfg) -> int:
    defaults = {"ce.n": 3, "ce.s": 0.4, "ce.theta": 0.6, "ce.L": "8,16,32,64",
                "ce.membership_samples": 0, "ce.seed": 0, "ce.out": None}
    cfg = _resolve(defaults, file_cfg,
                   {"ce.n": args.n, "ce.s": args.s, "ce.theta": args.theta,
                    "ce.L": args.L, "ce.membership_samples": args.membership_samples,
                    "ce.seed": args.seed, "ce.out": args.out})
    Ls = cfg["ce.L"]
    if isinstance(Ls, str):
        Ls = [float(x) for x in Ls.split(",")]
    params = [pr.CounterexampleParams(L=L, s=cfg["ce.s"], theta=cfg["ce.theta"],
                                      n=cfg["ce.n"]) for L in Ls]
    recs = _sweep(pr.counterexample_norms, params)
    fit_u = pr.scaling_fit([(r.L, r.norm_u) for r in recs])
    fit_v = pr.scaling_fit([(r.L, r.norm_v) for r in recs])
    fit_ratio = pr.scaling_fit([(r.L, r.ratio) for r in recs]) if all(
        r.ratio > 0 for r in recs) else None
    rows = [_header(cfg), "L,norm_u,norm_v,lhs_lower,ratio,measure_A,measure_C\n"]
    for r in recs:
        rows.append(f"{r.L!r},{r.norm_u!r},{r.norm_v!r},{r.lhs_lower!r},"
                    f"{r.ratio!r},{r.measure_A!r},{r.measure_C!r}\n")
    rows.append(f"# slope_u={fit_u.slope!r} slope_v={fit_v.slope!r}")
    if fit_ratio is not None:
        rows.append(f" slope_ratio={fit_ratio.slope!r}")
    rows.append("\n")
    failures = 0
    if cfg["ce.membership_samples"]:
        failures = sum(pr.membership_check(p, cfg["ce.membership_samples"],
                                           cfg["ce.seed"]) for p in params)
        rows.append(f"# membership_failures={failures}\n")
    _write(cfg["ce.out"], "".join(rows))
    if cfg["ce.out"]:
        with open(str(cfg["ce.out"]) + ".plot", "w") as fh:
            fh.write(_header(cfg))
            for r in recs:
                fh.write(f"{r.L!r} {r.ratio!r}\n")
    return EXIT_NUMERICAL if failures else EXIT_OK


def cmd_selftest(args, file_cfg) -> int:
    grid = lat.make_grid(2, 16, 16, 2 * math.pi, 2 * math.pi)
    rng = np.random.default_rng(0)
    P = rng.standard_normal(grid.spacetime_shape)
    f = lat.transform(grid, P, lat.SPACETIME)
    ok = True
    err = float(np.max(np.abs(lat.inverse_transform(f) - P)))
    ok &= err <= 1e-12
    print(f"selftest roundtrip max_err={err:.3e} {'ok' if err <= 1e-12 else 'FAIL'}")
    plan = abs(lat.mixed_norm(f, 2, 2) ** 2 - f.l2() ** 2) / f.l2() ** 2
    ok &= plan <= 1e-10
    print(f"selftest plancherel rel_err={plan:.3e} {'ok' if plan <= 1e-10 else 'FAIL'}")
    adm = mult.is_wave_admissible(4, 4, 3) and abs(mult.strichartz_s(4, 4, 3) - 0.5) < 1e-15
    ok &= adm
    print(f"selftest admissible(4,4,3) {'ok' if adm else 'FAIL'}")
    rep = nf.check_symbol_inequality("delta", 20000, 0)
    ok &= rep.violations == 0
    print(f"selftest delta-inequality violations={rep.violations} "
          f"{'ok' if rep.violations == 0 else 'FAIL'}")
    return EXIT_OK if ok else EXIT_NUMERICAL


# ---------------------------------------------------------------------------


def _add_grid_args(p):
    p.add_argument("--n", type=int)
    p.add_argument("--nt", type=int)
    p.add_argument("--nx", type=int)
    p.add_argument("--t-per", dest="t_per", type=float)
    p.add_argument("--l-per", dest="l_per", type=float)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nflab")
    ap.add_argument("--config", help="flat key = value config file")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("admissible", help="Strichartz exponent bookkeeping")
    p.add_argument("--q", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--s1", type=float)
    p.add_argument("--s2", type=float)
    p.set_defaults(func=cmd_admissible)

    registry_names = ", ".join(sorted(nf.INEQUALITY_REGISTRY))
    p = sub.add_parser("symbol-check", help="fuzz a registered pointwise inequality",
                       description=f"Registry names: {registry_names}, or 'all'.")
    p.add_argument("--name", help=f"one of: {registry_names}; or 'all'")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_symbol_check)

    p = sub.add_parser("norms", help="norm panel for a stored or seeded field")
    _add_grid_args(p)
    p.add_argument("--s", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--field", help="path to an NFLB1 container")
    p.add_argument("--out")
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("iterate", help="Picard run for a model system")
    _add_grid_args(p)
    p.add_argument("--system")
    p.add_argument("--J", type=int)
    p.add_argument("--components", type=int)
    p.add_argument("--s", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--cutoff-width", dest="cutoff_width", type=float)
    p.add_argument("--data-scale", dest="data_scale", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("probe-embedding", help="worst-case ratio study")
    _add_grid_args(p)
    p.add_argument("--ensemble")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--form")
    p.add_argument("--left-s", dest="left_s", type=float)
    p.add_argument("--left-theta", dest="left_theta", type=float)
    p.add_argument("--right-s", dest="right_s", type=float)
    p.add_argument("--right-theta", dest="right_theta", type=float)
    p.add_argument("--target-s", dest="target_s", type=float)
    p.add_argument("--target-theta", dest="target_theta", type=float)
    p.add_argument("--target-q", dest="target_q", type=float,
                   help="with --target-r: mixed-norm target via the upper surrogate")
    p.add_argument("--target-r", dest="target_r", type=float)
    p.add_argument("--unary", action="store_true", default=None,
                   help="probe a linear embedding: target(u) / source(u)")
    p.add_argument("--scales")
    p.add_argument("--out")
    p.set_defaults(func=cmd_probe_embedding)

    p = sub.add_parser("probe-kernel", help="Schur certificate refinement ladder")
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--sign")
    p.add_argument("--variant")
    p.add_argument("--n", type=int)
    p.add_argument("--R", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--halvings", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_probe_kernel)

    p = sub.add_parser("counterexample", help="slab/shell family scaling study")
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--L")
    p.add_argument("--membership-samples", dest="membership_samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("selftest", help="fast built-in checks")
    p.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    file_cfg = {}
    try:
        if args.config:
            file_cfg = read_config(args.config)
        return args.func(args, file_cfg)
    except (ConfigError, ValueError, KeyError, OSError) as exc:
        return _fail(EXIT_CONFIG, str(exc))


if __name__ == "__main__":
    sys.exit(main())
