"""Picard iteration for the model quadratic wave systems.

The iteration is u_{j+1} = u_0 + inverse_wave(N(M_phi u_j)): the temporal
cutoff is applied before the nonlinearity, so every field fed to spectral
derivatives is smooth and periodic, and on the inner window |t| <= width/2
the iterates agree with the uncut iteration (the Duhamel integral is causal).

Iterates are carried in the mixed representation (time slice x spatial mode);
space-time spectra are formed only for the cutoffed fields.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import (SPACETIME, SPATIAL, FineLattice, Grid, SpectralField,
                      cutoff_profile, from_time_spatial_rep, inverse_transform,
                      time_spatial_rep, transform)
# bound here as well: perfbench/tracer.py wraps fine_samples in every module that binds it
from .lattice import fine_samples  # noqa: F401
from .multiplier import MultiplierSpec, SpaceIndex, apply, ws_norm
from .nullform import BilinearFormSpec, apply_form, combine_forms, form_samples
from .propagate import (CauchyData, duhamel_mixed, homogeneous,
                        homogeneous_spacetime, signed_times)

KINDS = ("WM", "YMmodel", "MKGmodel", "WMM", "scalarQ0")

_DIVERGENCE_CAP = 1e8


@dataclass
class SystemSpec:
    """One of the model nonlinearities with its coefficient tables.

    WM:       N(u)^I = -sum_{J,K} Gamma^I_JK(u) Q0(u^J, u^K), Gamma polynomial
    YMmodel:  N(u) = D^-1 Q(u,u) + Q(D^-1 u, u)
    MKGmodel: N(u,v) = (D^-1 Q(v,v), Q(D^-1 u, v)), components split N1 + N2
    WMM:      N(u)^I = sum_{J,K} a^I_JK Qtilde(u^J, u^K)
    scalarQ0: N(u) = Q0(u, u)

    Q(u,v)^I is the all-pairs combination sum_{i<j,J,K} q_coeff[I,p,J,K]
    Q_ij(u^J, v^K); q_coeff defaults to all ones.
    """

    kind: str
    N: int = 1
    N1: int = 0
    N2: int = 0
    gamma_const: np.ndarray | None = None
    gamma_poly: list = field(default_factory=list)  # [(table (N,N,N), powers (N,))]
    a_table: np.ndarray | None = None
    q_coeff: np.ndarray | None = None
    q_coeff_second: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown system kind {self.kind!r}")
        if self.kind == "scalarQ0":
            self.N = 1
        if self.kind == "MKGmodel":
            if self.N1 <= 0 or self.N2 <= 0:
                raise ValueError("MKGmodel needs positive component counts N1, N2")
            self.N = self.N1 + self.N2
        if self.kind == "WM":
            if self.gamma_const is None:
                self.gamma_const = np.ones((self.N, self.N, self.N))
            self.gamma_const = np.asarray(self.gamma_const, dtype=float)
            if self.gamma_const.shape != (self.N, self.N, self.N):
                raise ValueError("Gamma table must have shape (N, N, N)")
            for table, powers in self.gamma_poly:
                if np.asarray(table).shape != (self.N, self.N, self.N):
                    raise ValueError("Gamma monomial tables must have shape (N, N, N)")
                if len(powers) != self.N or sum(powers) > 4:
                    raise ValueError("Gamma monomials limited to total degree 4")
        if self.kind == "WMM":
            if self.a_table is None:
                self.a_table = np.ones((self.N, self.N, self.N))
            self.a_table = np.asarray(self.a_table, dtype=float)
            if self.a_table.shape != (self.N, self.N, self.N):
                raise ValueError("a table must have shape (N, N, N)")

    def gamma_degree(self) -> int:
        return max([0] + [int(sum(p)) for _, p in self.gamma_poly])


def _pairs(n: int):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _or_ones(coeff, shape: tuple) -> np.ndarray:
    return np.ones(shape) if coeff is None else coeff


def _d_inverse(u: SpectralField) -> SpectralField:
    return apply(MultiplierSpec("d", -1.0), u)


def _q_combination(eng: FineLattice, coeff: np.ndarray, left: list, right: list) -> list:
    """Components sum_{p,J,K} coeff[I,p,J,K] Q_{ij_p}(left^J, right^K)."""
    terms = [(BilinearFormSpec("qij", i=i, j=j), left[J], right[K], coeff[:, p, J, K])
             for p, (i, j) in enumerate(_pairs(eng.grid.n))
             for J in range(coeff.shape[2]) for K in range(coeff.shape[3])
             if np.any(coeff[:, p, J, K])]
    return combine_forms(eng, terms, coeff.shape[0],
                         real=all(f.real_flag for f in left + right),
                         projected=any(f.zero_mode_projected for f in left + right))


def _wm_nonlinearity(sys_spec: SystemSpec, comps: list) -> list:
    """-sum Gamma^I_JK(u) Q0(u^J,u^K) on a lattice padded for the degree."""
    eng = FineLattice(comps[0].grid, SPACETIME, factor=(3 + sys_spec.gamma_degree()) / 2.0)
    N = sys_spec.N
    q0 = {}
    for J in range(N):
        for K in range(J, N):
            [(_, q0[(J, K)])] = form_samples(eng, BilinearFormSpec("q0"), comps[J], comps[K])
            q0[(K, J)] = q0[(J, K)]

    monomials = []
    for table, powers in sys_spec.gamma_poly:
        mono = np.ones(eng.fine_shape)
        for c_idx, power in enumerate(powers):
            for _ in range(int(power)):
                mono = mono * eng.samples(comps[c_idx])
        monomials.append((table, mono))

    out = []
    for I in range(N):
        acc = np.zeros(eng.fine_shape)
        for J in range(N):
            for K in range(N):
                total = sys_spec.gamma_const[I, J, K] + sum(
                    table[I, J, K] * mono for table, mono in monomials if table[I, J, K] != 0.0)
                if np.isscalar(total) and total == 0.0:
                    continue
                acc = acc + total * q0[(J, K)]
        out.append(eng.crop(-acc, all(c.real_flag for c in comps)))
    return out


def apply_nonlinearity(sys_spec: SystemSpec, comps: list) -> list:
    """Evaluate the model nonlinearity on a list of spacetime component fields.

    All products of one evaluation share one fine lattice, so each component
    and each of its derivatives is padded once.
    """
    if len(comps) != sys_spec.N:
        raise ValueError(f"expected {sys_spec.N} components, got {len(comps)}")
    grid = comps[0].grid
    if sys_spec.kind == "scalarQ0":
        return [apply_form(BilinearFormSpec("q0"), comps[0], comps[0])]
    if sys_spec.kind == "WM":
        return _wm_nonlinearity(sys_spec, comps)
    eng = FineLattice(grid, SPACETIME)
    if sys_spec.kind == "WMM":
        N = sys_spec.N
        terms = [(BilinearFormSpec("qtilde"), comps[J], comps[K], sys_spec.a_table[:, J, K])
                 for J in range(N) for K in range(N) if np.any(sys_spec.a_table[:, J, K])]
        return combine_forms(eng, terms, N, real=all(c.real_flag for c in comps),
                             projected=bool(terms))
    n_pairs = len(_pairs(grid.n))
    if sys_spec.kind == "YMmodel":
        N = sys_spec.N
        coeff = _or_ones(sys_spec.q_coeff, (N, n_pairs, N, N))
        coeff2 = coeff if sys_spec.q_coeff_second is None else sys_spec.q_coeff_second
        first = [_d_inverse(f) for f in _q_combination(eng, coeff, comps, comps)]
        second = _q_combination(eng, coeff2, [_d_inverse(c) for c in comps], comps)
        return [a.copy_with(a.coeffs + b.coeffs, real_flag=a.real_flag and b.real_flag,
                            zero_mode_projected=a.zero_mode_projected or b.zero_mode_projected)
                for a, b in zip(first, second)]
    if sys_spec.kind == "MKGmodel":
        N1, N2 = sys_spec.N1, sys_spec.N2
        u_comps, v_comps = comps[:N1], comps[N1:]
        coeff_u = _or_ones(sys_spec.q_coeff, (N1, n_pairs, N2, N2))
        coeff_v = _or_ones(sys_spec.q_coeff_second, (N2, n_pairs, N1, N2))
        top = [_d_inverse(f) for f in _q_combination(eng, coeff_u, v_comps, v_comps)]
        return top + _q_combination(eng, coeff_v, [_d_inverse(c) for c in u_comps], v_comps)
    raise AssertionError(sys_spec.kind)


@dataclass
class IterationTrace:
    """Per-iterate diagnostics of a Picard run.

    d[j-1] is the window-sup H^s norm of u_j - u_{j-1} (root sum of squares
    over components); ws values are of the time-cutoffed iterates.
    """

    s: float
    theta: float
    cutoff_width: float
    sup_hs: list
    ws: list
    d: list
    ratios: list
    flag: str
    diverged_at: int | None = None

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("j,sup_Hs,d_j,ratio_j,flag\n")
        for j, sup in enumerate(self.sup_hs):
            dj = repr(self.d[j - 1]) if 1 <= j <= len(self.d) else ""
            rj = repr(self.ratios[j - 2]) if 2 <= j <= len(self.ratios) + 1 else ""
            flag = self.flag if j == len(self.sup_hs) - 1 else ""
            buf.write(f"{j},{sup!r},{dj},{rj},{flag}\n")
        return buf.getvalue()


def _slice_hs_sq(grid: Grid, a: np.ndarray, s: float) -> np.ndarray:
    """Squared H^s norms of every time slice of a mixed-representation array."""
    lam2 = (1.0 + grid.abs_xi(SPATIAL) ** 2) ** s
    V = grid.spatial_volume
    return np.sum(lam2 * np.abs(a) ** 2, axis=tuple(range(1, grid.n + 1))) * V


def _picard_map(sys_spec: SystemSpec, data: list, cutoff_width: float):
    """u_0 and the maps cut: u_j -> M_phi u_j (mixed representation to spacetime
    fields) and step: M_phi u_j -> u_{j+1} = u_0 + inverse_wave(N(M_phi u_j))."""
    grid = data[0].f.grid
    real = all(d.f.real_flag for d in data)
    phi = cutoff_profile(grid, cutoff_width).reshape((grid.N_t,) + (1,) * grid.n)
    u0 = [homogeneous_spacetime(d) for d in data]

    def cut(current):
        return [from_time_spatial_rep(grid, phi * a, real_flag=real) for a in current]

    def step(cut_fields):
        F = apply_nonlinearity(sys_spec, cut_fields)
        return [c + duhamel_mixed(grid, time_spatial_rep(Fc)) for c, Fc in zip(u0, F)]

    return u0, cut, step


def picard_run(sys_spec: SystemSpec, data: list, iterations: int, idx: SpaceIndex,
               cutoff_width: float) -> IterationTrace:
    """Run u_{j+1} = u_0 + inverse_wave(N(M_phi u_j)) and record norms."""
    if iterations < 1:
        raise ValueError("need at least one iteration")
    if len(data) != sys_spec.N:
        raise ValueError(f"expected {sys_spec.N} Cauchy pairs, got {len(data)}")
    grid = data[0].f.grid
    if not (0.0 < cutoff_width < grid.T_per):
        raise ValueError("grid period does not accommodate the cutoff width")
    u0, cut_of, step = _picard_map(sys_spec, data, cutoff_width)
    window = np.abs(signed_times(grid)) <= cutoff_width / 2.0 + 1e-12

    def window_sup_hs(arrs):
        tot = np.zeros(grid.N_t)
        for a in arrs:
            tot += _slice_hs_sq(grid, a, idx.s)
        return float(np.sqrt(np.max(tot[window])))

    def ws(cut):
        return float(np.sqrt(sum(ws_norm(f, idx) ** 2 for f in cut)))

    current = u0
    cut = cut_of(current)
    sup_hs = [window_sup_hs(current)]
    ws_list = [ws(cut)]
    d_list = []
    ratios = []
    flag = "stalled"
    diverged_at = None

    for j in range(1, iterations + 1):
        nxt = step(cut)
        top = max(float(np.max(np.abs(a))) for a in nxt)
        if not math.isfinite(top) or top > _DIVERGENCE_CAP:
            flag = "diverged"
            diverged_at = j
            break
        d_list.append(window_sup_hs([a - b for a, b in zip(nxt, current)]))
        current = nxt
        cut = cut_of(current)
        sup_hs.append(window_sup_hs(current))
        ws_list.append(ws(cut))

    for k in range(1, len(d_list)):
        denom = d_list[k - 1]
        ratios.append(d_list[k] / denom if denom > 0 else 0.0)

    if flag != "diverged":
        scale = max(sup_hs[0], 1e-300)
        if d_list and d_list[-1] <= 1e-12 * scale:
            flag = "converged"
        elif ratios and all(r < 1.0 for r in ratios[-2:]):
            flag = "converged"
        else:
            flag = "stalled"

    return IterationTrace(s=idx.s, theta=idx.theta, cutoff_width=cutoff_width,
                          sup_hs=sup_hs, ws=ws_list, d=d_list, ratios=ratios,
                          flag=flag, diverged_at=diverged_at)


def iterate_samples(sys_spec: SystemSpec, data: list, iterations: int,
                    cutoff_width: float) -> list:
    """Mixed representation of the final iterate (helper for oracle comparisons)."""
    current, cut, step = _picard_map(sys_spec, data, cutoff_width)
    for _ in range(iterations):
        current = step(cut(current))
    return current


def q0_closed_form(data: CauchyData, t: float) -> SpectralField:
    """Exact solution sample of (wave op) u = Q0(u,u) via u = -log w, wave w = 0.

    w carries data (exp(-f), -g exp(-f)); refuses when w drops to 1/2 anywhere
    on the evaluation slice.
    """
    grid = data.f.grid
    f_samp = inverse_transform(data.f)
    g_samp = inverse_transform(data.g)
    if not data.f.real_flag:
        raise ValueError("closed form needs real data")
    w0 = np.exp(-f_samp.real)
    w1 = -g_samp.real * w0
    wdata = CauchyData(transform(grid, w0, SPATIAL), transform(grid, w1, SPATIAL))
    wt = homogeneous(wdata, t)
    w_samp = inverse_transform(wt).real
    if np.min(w_samp) <= 0.5:
        raise ValueError("closed form refused: w reaches 1/2 (log branch safety)")
    return transform(grid, -np.log(w_samp), SPATIAL)
