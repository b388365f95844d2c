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
from dataclasses import dataclass

import numpy as np

from .lattice import (SPATIAL, Grid, SpectralField, cutoff_profile, from_time_spatial_rep,
                      inverse_transform, time_spatial_rep, transform)
# bound here as well: perfbench/tracer.py wraps fine_samples in every module that binds it
from .lattice import fine_samples  # noqa: F401
from .multiplier import MultiplierSpec, SpaceIndex, apply, weight, ws_norm
from .nullform import BilinearFormSpec, apply_form, combine_forms
from .propagate import (CauchyData, duhamel_mixed, homogeneous,
                        homogeneous_spacetime, signed_times)

KINDS = ("WM", "YMmodel", "MKGmodel", "WMM", "scalarQ0")

_DIVERGENCE_CAP = 1e8
# d_j at or below this fraction of sup_Hs[0] is rounding noise: the run has converged
_ROUNDING_FLOOR = 1e-12


@dataclass
class SystemSpec:
    """One of the model nonlinearities with its coefficient tables.

    WM:       N(u)^I = -sum_{J,K} Gamma^I_JK Q0(u^J, u^K)
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
        if self.kind in ("WM", "WMM"):
            label, name = {"WM": ("Gamma", "gamma_const"), "WMM": ("a", "a_table")}[self.kind]
            table = getattr(self, name)
            table = np.ones((self.N,) * 3) if table is None else np.asarray(table, dtype=float)
            if table.shape != (self.N,) * 3:
                raise ValueError(f"{label} table must have shape (N, N, N)")
            setattr(self, name, table)


def _pairs(n: int):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _or_ones(coeff, shape: tuple) -> np.ndarray:
    return np.ones(shape) if coeff is None else coeff


def _d_inverse(u: SpectralField) -> SpectralField:
    return apply(MultiplierSpec("d", -1.0), u)


def _q_combinations(grid: Grid, *combos) -> list:
    """For each (coeff, left, right) in combos, the components sum_{p,J,K} coeff[I,p,J,K]
    Q_{ij_p}(left^J, right^K), all from one combine_forms call."""
    return combine_forms(grid, *[([
        (BilinearFormSpec("qij", i=i, j=j), left[J], right[K], coeff[:, p, J, K])
        for p, (i, j) in enumerate(_pairs(grid.n))
        for J in range(coeff.shape[2]) for K in range(coeff.shape[3])
        if np.any(coeff[:, p, J, K])], coeff.shape[0]) for coeff, left, right in combos])


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
    if sys_spec.kind in ("WM", "WMM"):
        N, wm = sys_spec.N, sys_spec.kind == "WM"
        form = BilinearFormSpec("q0" if wm else "qtilde")
        table = -sys_spec.gamma_const if wm else sys_spec.a_table
        # Q0 is symmetric, so WM puts the lower index first: (J, K) and (K, J) then multiply the
        # same images in one order, as a complex product is not commutative bit for bit
        terms = [(form, comps[min(J, K) if wm else J], comps[max(J, K) if wm else K],
                  table[:, J, K]) for J in range(N) for K in range(N) if np.any(table[:, J, K])]
        return combine_forms(grid, (terms, N))[0]
    n_pairs = len(_pairs(grid.n))
    if sys_spec.kind == "YMmodel":
        N = sys_spec.N
        coeff = _or_ones(sys_spec.q_coeff, (N, n_pairs, N, N))
        coeff2 = coeff if sys_spec.q_coeff_second is None else sys_spec.q_coeff_second
        first, second = _q_combinations(grid, (coeff, comps, comps),
                                        (coeff2, [_d_inverse(c) for c in comps], comps))
        first = [_d_inverse(f) for f in first]
        return [a.copy_with(a.coeffs + b.coeffs, real_flag=a.real_flag and b.real_flag,
                            zero_mode_projected=a.zero_mode_projected or b.zero_mode_projected)
                for a, b in zip(first, second)]
    if sys_spec.kind == "MKGmodel":
        N1, N2 = sys_spec.N1, sys_spec.N2
        u_comps, v_comps = comps[:N1], comps[N1:]
        coeff_u = _or_ones(sys_spec.q_coeff, (N1, n_pairs, N2, N2))
        coeff_v = _or_ones(sys_spec.q_coeff_second, (N2, n_pairs, N1, N2))
        top, bottom = _q_combinations(grid, (coeff_u, v_comps, v_comps),
                                      (coeff_v, [_d_inverse(c) for c in u_comps], v_comps))
        return [_d_inverse(f) for f in top] + bottom
    raise AssertionError(sys_spec.kind)


@dataclass
class IterationTrace:
    """Per-iterate diagnostics of a Picard run.

    d[j-1] is the window-sup H^s norm of u_j - u_{j-1} (root sum of squares
    over components); ws values are of the time-cutoffed iterates.
    """

    sup_hs: list
    ws: list
    d: list
    ratios: list
    flag: str
    diverged_at: int | None = None

    def to_csv(self) -> str:
        """One row per iterate; ratio_j is blank where d_{j-1} is at the rounding floor."""
        buf = io.StringIO()
        buf.write("j,sup_Hs,d_j,ratio_j,flag\n")
        floor = _ROUNDING_FLOOR * max(self.sup_hs[0], 1e-300)
        for j, sup in enumerate(self.sup_hs):
            dj = repr(self.d[j - 1]) if 1 <= j <= len(self.d) else ""
            rj = (repr(self.ratios[j - 2])
                  if 2 <= j <= len(self.ratios) + 1 and self.d[j - 2] > floor else "")
            flag = self.flag if j == len(self.sup_hs) - 1 else ""
            buf.write(f"{j},{sup!r},{dj},{rj},{flag}\n")
        return buf.getvalue()


def _slice_hs_sq(grid: Grid, a: np.ndarray, s: float) -> np.ndarray:
    """Squared H^s norms of every time slice of a mixed-representation array."""
    lam2 = weight("lambda", 2.0 * s, None, grid.abs_xi(SPATIAL))
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
        if d_list and d_list[-1] <= _ROUNDING_FLOOR * scale:
            flag = "converged"
        elif ratios and all(r < 1.0 for r in ratios[-2:]):
            flag = "converged"

    return IterationTrace(sup_hs=sup_hs, ws=ws_list, d=d_list, ratios=ratios, flag=flag,
                          diverged_at=diverged_at)


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
