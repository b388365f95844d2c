"""Configuration-driven experiment runner.

Subcommands: norms, admissible, symbol-check, iterate, probe-embedding,
probe-kernel, counterexample, selftest.  `COMMANDS` gives each one a table
of `Opt(key, type, default, help)` rows that alone drives its flags
(`sec.some_key` -> `--some-key`), config keys, defaults and header.  Config
files are flat `key = value` text with [section] brackets; flags override
the file and unknown keys are rejected.  Flag text and file values take one
route: the row's type applied to the value's text, so `--q 4` and `[adm]
q = 4` give the same value.  Every output file starts with a header line
embedding the fully resolved configuration, so identical config plus seed
reproduces byte-identical output at any NFLAB_THREADS, which caps the one worker
pool (`lattice.pmap`): symbol-check inequalities, probe trials, family scales,
paired fine-lattice pads and the row blocks of kernel sums.

Exit codes: 0 success; 2 configuration error (`ConfigError`, `ValueError`,
`OSError`, a value its row's type rejects); 3 numerical-failure flag
(divergence, ascent non-convergence, membership failures; a growth-rule
mismatch is reported in the CSV).  Anything else propagates as a bug.
MKGmodel needs components >= 3, so that v (the second half) has two or more.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from typing import Callable, NamedTuple

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


# text before a '#' outside quotes, and in group 1 a quoted tail that never closes
_UNCOMMENTED = re.compile(r'(?:[^#"]|"(?:[^"\\]|\\.)*")*("(?:[^"\\]|\\.)*)?')


def read_config(path: str) -> dict:
    """Flat key = value lines under [section] brackets -> {'section.key': value}, each key once
    per section; a value is its JSON where it parses, else its text unless it opens with '"'."""
    out, seen = {}, {}
    section = ""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = (m := _UNCOMMENTED.match(raw))[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, val = (x.strip() for x in line.split("=", 1))
            full = f"{section}.{key}" if section else key
            if seen.setdefault(full, lineno) != lineno:
                raise ConfigError(f"{path}:{lineno}: {full} given twice, first on line {seen[full]}")
            try:
                out[full] = json.loads(val)
            except json.JSONDecodeError:
                if m[1] or val.startswith('"'):  # an unclosed quote never parses as JSON
                    why = "never closes" if m[1] else "is not one JSON string"
                    raise ConfigError(f"{path}:{lineno}: {full} has a quoted value that {why}")
                out[full] = val
    return out


class Opt(NamedTuple):
    """One option: its config key, the type that turns its text into a value, its default."""

    key: str
    type: Callable[[str], object]
    default: object = None
    help: str | None = None
    flag: str | None = None


def _flag(opt: Opt) -> str:
    return opt.flag or "--" + opt.key.split(".", 1)[1].replace("_", "-")


def _count(lo: int, hi: int | None = None):
    def count(text: str) -> int:
        v = int(text)
        if v < lo or (hi is not None and v > hi):
            raise ValueError(f"must be an integer >= {lo}" + ("" if hi is None else f" and <= {hi}"))
        return v
    return count


def _finite(what: str, lo: float = -math.inf):
    def finite(text: str) -> float:
        v = float(text)
        if not (math.isfinite(v) and v >= lo):
            bound = "" if lo == -math.inf else f" and >= {lo:g}"
            raise ValueError(f"{what} must be finite (not inf, not NaN){bound}, got {v!r}")
        return v
    return finite


_index = _finite("a Sobolev or wave index")


def _bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError("must be true or false")
    return text.lower() == "true"


def _resolve(opts, file_cfg: dict, flags: dict) -> dict:
    """Defaults, then file values, then the flags given; each given value is its
    row's type applied to its text (a non-string file value's JSON spelling)."""
    types = {o.key: o.type for o in opts}
    for k in file_cfg:
        if k not in types:
            raise ConfigError(f"unknown config key {k!r}")
    given = {**file_cfg, **{k: flags[k] for k in types if flags.get(k) is not None}}
    cfg = {o.key: o.default for o in opts}
    for k, v in given.items():
        if v is None:  # a file's null leaves the default
            continue
        text = v if isinstance(v, str) else json.dumps(v)
        try:
            cfg[k] = types[k](text)
            if isinstance(cfg[k], float) and math.isnan(cfg[k]):
                raise ValueError("must be a number, not NaN")
        except ValueError as exc:
            raise ConfigError(f"{k} = {text!r}: {exc}") from None
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


def _write_plot(cfg: dict, out, points) -> None:
    """`<out>.plot` of a scaling study: the header, then one `x y` line per point."""
    _write(str(out) + ".plot", _header(cfg) + "".join(f"{x!r} {y!r}\n" for x, y in points))


# ---------------------------------------------------------------------------
# subcommands


def cmd_admissible(cfg) -> int:
    q, r, n = cfg["adm.q"], cfg["adm.r"], cfg["adm.n"]
    missing = [k for k in ("adm.sigma", "adm.s1", "adm.s2") if cfg[k] is None]
    if 0 < len(missing) < 3:
        raise ConfigError(f"the bilinear check needs adm.sigma, adm.s1 and adm.s2 together; "
                          f"missing {', '.join(missing)}")
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


def cmd_symbol_check(cfg) -> int:
    names = list(nf.INEQUALITY_REGISTRY) if cfg["symbol.name"] == "all" else [cfg["symbol.name"]]
    for nm in names:
        if nm not in nf.INEQUALITY_REGISTRY:
            raise ConfigError(f"unknown inequality {nm!r}; known: {sorted(nf.INEQUALITY_REGISTRY)}")
    pairs = nf.frequency_pairs(cfg["symbol.samples"], cfg["symbol.seed"])  # one draw for all
    reports = lat.pmap(lambda nm: nf.check_symbol_inequality(nm, pairs), names)
    buf = [_header(cfg), "name,samples,violations,worst_margin,constant\n"]
    bad = 0
    for rep in reports:
        buf.append(f"{rep.name},{rep.samples},{rep.violations},{rep.worst_margin!r},{rep.constant!r}\n")
        bad += rep.violations
    _write(cfg["symbol.out"], "".join(buf))
    return EXIT_NUMERICAL if bad else EXIT_OK


def cmd_norms(cfg) -> int:
    if cfg["norms.field"]:
        f = lat.read_field(cfg["norms.field"])
        # a stored field brings its own lattice and draws nothing: record what acted
        cfg["norms.seed"] = None
        cfg.update((f"grid.{k}", getattr(f.grid, k))
                   for k in ("n", "N_t", "N_x", "T_per", "L_per"))
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
    if name not in it.KINDS:
        raise ConfigError(f"unknown system {name!r}")
    if name != "MKGmodel":
        return it.SystemSpec(name, N=n_comp)
    if n_comp < 3:
        raise ConfigError(f"MKGmodel needs components >= 3, got {n_comp}: it splits them into "
                          "u (components // 2) and v (the rest), and with one v component "
                          "Q_ij(v, v) = 0 by antisymmetry, so the u-equation never moves")
    return it.SystemSpec(name, N1=n_comp // 2, N2=n_comp - n_comp // 2)


def cmd_iterate(cfg) -> int:
    grid = _grid_from(cfg)
    if cfg["iterate.cutoff_width"] is None:
        cfg["iterate.cutoff_width"] = grid.T_per / 2.0
    # |k| <= N_x // 2 holds the whole band, so a larger max_freq records the value that acts
    cfg["iterate.max_freq"] = min(cfg["iterate.max_freq"], grid.N_x // 2)
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
    """Bilinear form of a probe: product, q0, qtilde or qij<i><j> with 1 <= i < j <= n."""
    if text in ("product", "q0", "qtilde"):
        return nf.BilinearFormSpec(text)
    m = re.fullmatch(r"qij([1-9])([1-9])", str(text))
    if m and 1 <= int(m[1]) < int(m[2]) <= n:
        return nf.BilinearFormSpec("qij", i=int(m[1]), j=int(m[2]))
    raise ConfigError(f"unknown form {text!r}; expected product, q0, qtilde or qij<i><j>, i < j <= {n}")


def cmd_probe_embedding(cfg) -> int:
    form = parse_form(cfg["probe.form"], cfg["grid.n"])
    mixed = (cfg["probe.target_q"], cfg["probe.target_r"])
    if mixed.count(None) == 1:
        raise ConfigError("mixed-norm targets need both target_q and target_r")
    right = mult.SpaceIndex(cfg["probe.right_s"], cfg["probe.right_theta"])
    target = mult.SpaceIndex(cfg["probe.target_s"], cfg["probe.target_theta"])
    spec = pr.EmbeddingSpec(left=mult.SpaceIndex(cfg["probe.left_s"], cfg["probe.left_theta"]),
                            right=None if cfg["probe.unary"] else right,
                            target=target if None in mixed else mixed, n=cfg["grid.n"], form=form)
    scales = cfg["probe.scales"]
    if scales is not None:
        scales = [float(x) for x in scales.split(",")]
    grid = _grid_from(cfg)
    report = pr.probe_embedding(spec, cfg["probe.ensemble"], cfg["probe.trials"],
                                grid, seed=cfg["probe.seed"], scales=scales)
    if cfg["probe.ensemble"] == "counterexample-family":
        # the family draws nothing and builds its own lattice per scale: of the grid only n acts
        cfg.update(dict.fromkeys(("probe.trials", "probe.seed", "grid.N_t", "grid.N_x",
                                  "grid.T_per", "grid.L_per")))
        cfg["probe.scales"] = cfg["probe.scales"] or ",".join(map(str, report.scales))
    def _jsonable(x):
        x = float(x)
        return "inf" if math.isinf(x) else x

    param_fields = {"left": [spec.left.s, spec.left.theta]}
    # the header records None for an index that does not act, as param_json omits it
    if spec.right is None:
        cfg.update(dict.fromkeys(("probe.right_s", "probe.right_theta")))
    else:
        param_fields["right"] = [spec.right.s, spec.right.theta]
    if isinstance(spec.target, mult.SpaceIndex):
        param_fields["target"] = [spec.target.s, spec.target.theta]
    else:
        param_fields["target_mixed"] = [_jsonable(x) for x in spec.target]
        cfg.update(dict.fromkeys(("probe.target_s", "probe.target_theta")))
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
        _write_plot(cfg, cfg["probe.out"], zip(report.scales, report.values))
    return EXIT_OK


def cmd_probe_kernel(cfg) -> int:
    k = pr.KernelSpec(a=cfg["kernel.a"], b=cfg["kernel.b"], c=cfg["kernel.c"],
                      sign=cfg["kernel.sign"], variant=cfg["kernel.variant"],
                      n=cfg["kernel.n"])
    ladder = [(cfg["kernel.R"], cfg["kernel.h"] / 2**i)
              for i in range(cfg["kernel.halvings"] + 1)]
    ladder.append((2 * cfg["kernel.R"], cfg["kernel.h"]))
    vals = pr.schur_ladder(k, ladder)
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


def cmd_counterexample(cfg) -> int:
    if not cfg["ce.membership_samples"]:
        cfg["ce.seed"] = None  # the seed selects membership samples only: record what acted
    params = [pr.CounterexampleParams(L=float(L), s=cfg["ce.s"], theta=cfg["ce.theta"],
                                      n=cfg["ce.n"]) for L in cfg["ce.L"].split(",")]
    pr.check_fit_scales([p.L for p in params])
    # each scale is a few ms of quadrature: serial until a pool's gain on them shows end to end
    recs = [pr.counterexample_norms(p) for p in params]
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
        # one unit draw serves every scale
        draw = pr.membership_draw(cfg["ce.membership_samples"], cfg["ce.n"], cfg["ce.seed"])
        failures = sum(pr.membership_check(p, draw) for p in params)
        rows.append(f"# membership_failures={failures}\n")
    _write(cfg["ce.out"], "".join(rows))
    if cfg["ce.out"]:
        _write_plot(cfg, cfg["ce.out"], [(r.L, r.ratio) for r in recs])
    return EXIT_NUMERICAL if failures else EXIT_OK


def cmd_selftest(cfg) -> int:
    grid = lat.make_grid(2, 16, 16, 2 * math.pi, 2 * math.pi)
    rng = np.random.default_rng(0)
    P = rng.standard_normal(grid.spacetime_shape)
    f = lat.transform(grid, P, lat.SPACETIME)
    err = float(np.max(np.abs(lat.inverse_transform(f) - P)))
    plan = abs(lat.mixed_norm(f, 2, 2) ** 2 - f.l2() ** 2) / f.l2() ** 2
    violations = nf.check_symbol_inequality("delta", nf.frequency_pairs(20000, 0)).violations
    rows = [(f"roundtrip max_err={err:.3e}", err <= 1e-12),
            (f"plancherel rel_err={plan:.3e}", plan <= 1e-10),
            ("admissible(4,4,3)", mult.is_wave_admissible(4, 4, 3)
             and abs(mult.strichartz_s(4, 4, 3) - 0.5) < 1e-15),
            (f"delta-inequality violations={violations}", violations == 0)]
    for text, ok in rows:
        print(f"selftest {text} {'ok' if ok else 'FAIL'}")
    return EXIT_OK if all(ok for _, ok in rows) else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# option tables


GRID = (Opt("grid.n", int, 2), Opt("grid.N_t", int, 16, flag="--nt"),
        Opt("grid.N_x", int, 16, flag="--nx"),
        Opt("grid.T_per", float, 2 * math.pi, flag="--t-per"),
        Opt("grid.L_per", float, 2 * math.pi, flag="--l-per"))

COMMANDS = {
    "admissible": (cmd_admissible, "Strichartz exponent bookkeeping", (
        Opt("adm.q", float, 4.0), Opt("adm.r", float, 4.0), Opt("adm.n", _count(1), 3),
        Opt("adm.sigma", float), Opt("adm.s1", float), Opt("adm.s2", float))),
    "symbol-check": (cmd_symbol_check, "fuzz a registered pointwise inequality", (
        Opt("symbol.name", str, "delta",
            f"one of: {', '.join(sorted(nf.INEQUALITY_REGISTRY))}; or 'all'"),
        Opt("symbol.samples", _count(1), 100000), Opt("symbol.seed", int, 0),
        Opt("symbol.out", str))),
    "norms": (cmd_norms, "norm panel for a stored or seeded field", GRID + (
        Opt("norms.s", _index, 0.5), Opt("norms.theta", _index, 0.6),
        Opt("norms.q", float, 2.0), Opt("norms.r", float, 2.0), Opt("norms.seed", int, 0),
        Opt("norms.field", str, help="path to an NFLB1 container"), Opt("norms.out", str))),
    "iterate": (cmd_iterate, "Picard run for a model system", GRID + (
        Opt("iterate.system", str, "scalarQ0"), Opt("iterate.J", int, 8),
        Opt("iterate.components", _count(1), 1), Opt("iterate.s", _index, 1.2),
        Opt("iterate.theta", _index, 0.6), Opt("iterate.cutoff_width", float),
        Opt("iterate.data_scale", _finite("data scale", 0.0), 0.05),
        Opt("iterate.max_freq", _count(0), 2), Opt("iterate.seed", int, 0),
        Opt("iterate.out", str))),
    "probe-embedding": (cmd_probe_embedding, "worst-case ratio study", GRID + (
        Opt("probe.ensemble", str, "random-gaussian"), Opt("probe.trials", int, 20),
        Opt("probe.seed", int, 0), Opt("probe.form", str, "product"),
        Opt("probe.left_s", _index, 1.2), Opt("probe.left_theta", _index, 0.6),
        Opt("probe.right_s", _index, 1.2), Opt("probe.right_theta", _index, 0.6),
        Opt("probe.target_s", _index, 1.2), Opt("probe.target_theta", _index, 0.6),
        Opt("probe.target_q", float,
            help="with --target-r: mixed-norm target via the upper surrogate"),
        Opt("probe.target_r", float),
        Opt("probe.unary", _bool, False, "probe a linear embedding: target(u) / source(u)"),
        Opt("probe.scales", str), Opt("probe.out", str))),
    "probe-kernel": (cmd_probe_kernel, "Schur certificate refinement ladder", (
        Opt("kernel.a", _finite("exponent a", 0.0), 1.2),
        Opt("kernel.b", _finite("exponent b", 0.0), 0.2),
        Opt("kernel.c", _finite("exponent c", 0.0), 0.3),
        Opt("kernel.sign", str, "plus"), Opt("kernel.variant", str, "homogeneous"),
        Opt("kernel.n", _count(1), 3), Opt("kernel.R", float, 16.0), Opt("kernel.h", float, 0.1),
        # the finest rung is h / 2**halvings, and 2**1024 is no longer a float
        Opt("kernel.halvings", _count(0, 1023), 2), Opt("kernel.out", str))),
    "counterexample": (cmd_counterexample, "slab/shell family scaling study", (
        Opt("ce.n", int, 3), Opt("ce.s", _index, 0.4), Opt("ce.theta", _index, 0.6),
        Opt("ce.L", str, "8,16,32,64"), Opt("ce.membership_samples", _count(0), 0),
        Opt("ce.seed", int, 0), Opt("ce.out", str))),
    "selftest": (cmd_selftest, "fast built-in checks", ()),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Flags from the option tables; each stores its text under the option's key."""
    ap = argparse.ArgumentParser(prog="nflab")
    ap.add_argument("--config", help="flat key = value config file")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_, opts) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for o in opts:
            switch = {"action": "store_const", "const": "true"} if o.type is _bool else {}
            p.add_argument(_flag(o), dest=o.key, help=o.help, **switch)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    func, _, opts = COMMANDS[args.command]
    try:
        file_cfg = read_config(args.config) if args.config else {}
        return func(_resolve(opts, file_cfg, vars(args)))
    except (ConfigError, ValueError, OSError) as exc:
        return _fail(EXIT_CONFIG, str(exc))


if __name__ == "__main__":
    sys.exit(main())
