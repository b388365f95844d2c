"""Picard iteration for the model quadratic wave systems.

The iteration is u_{j+1} = u_0 + inverse_wave(N(M_phi u_j)): the temporal
cutoff is applied before the nonlinearity, so every field fed to spectral
derivatives is smooth and periodic, and on the inner window |t| <= width/2
the iterates agree with the uncut iteration (the Duhamel integral is causal).

Iterates are carried in the mixed representation (time slice x spatial mode);
space-time spectra are formed only for the cutoffed fields.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from .lattice import (SPATIAL, Grid, SpectralField, cutoff_profile, from_time_spatial_rep,
                      inverse_transform, time_spatial_rep, transform)
from .multiplier import MultiplierSpec, SpaceIndex, apply, weight, ws_norm
from .nullform import BilinearFormSpec, combine_forms
# bound here as well: perfbench/tracer.py wraps and restores both in every module that binds them
from .lattice import fine_samples  # noqa: F401
from .nullform import apply_form  # noqa: F401
from .propagate import (CauchyData, duhamel_mixed, homogeneous,
                        homogeneous_spacetime, signed_times)

KINDS = ("WM", "YMmodel", "MKGmodel", "WMM", "scalarQ0")

_DIVERGENCE_CAP = 1e8
# d_j at or below this fraction of sup_Hs[0] is rounding noise: the run has converged
_ROUNDING_FLOOR = 1e-12


@dataclass
class SystemSpec:
    """One of the model nonlinearities: a list of parts, a null form F with a table each, and
        N(u)^I = sum_parts [D^-1] sum_{J,K} table[I,J,K] F([D^-1] u^J, u^K),
    where a part may take D^-1 on its output (an outer part) and on its left operand.

    WM:       F = Q0, table -Gamma (N, N, N)
    WMM:      F = Qtilde, table a (N, N, N)
    scalarQ0: F = Q0, table 1 (1, 1, 1), N = 1: N(u) = Q0(u, u)
    YMmodel:  N(u) = D^-1 Q(u,u) + Q(D^-1 u, u): per axis pair p = (i < j), F = Q_ij with
              q_coeff[:, p] outer and q_coeff_second[:, p] (default q_coeff) on D^-1 u^J,
              both (N, P, N, N) with P = n(n-1)/2
    MKGmodel: N(u,v) = (D^-1 Q(v,v), Q(D^-1 u, v)), components split N1 + N2: those parts,
              q_coeff (N1, P, N2, N2) in the u rows, q_coeff_second (N2, P, N1, N2) in the v rows

    Tables default to all ones; the Q tables and n >= 2 are checked at evaluation, before any pad.
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
        if self.kind == "scalarQ0" and self.N != 1:
            raise ValueError(f"scalarQ0 is one scalar equation: it has 1 component, got {self.N}")
        if self.kind == "MKGmodel":
            if self.N1 <= 0 or self.N2 <= 0:
                raise ValueError("MKGmodel needs positive component counts N1, N2")
            self.N = self.N1 + self.N2
        if self.kind in ("WM", "WMM"):
            name = "gamma_const" if self.kind == "WM" else "a_table"
            setattr(self, name, _table(getattr(self, name), name, (self.N,) * 3))


def _table(coeff, name: str, shape: tuple) -> np.ndarray:
    table = np.ones(shape) if coeff is None else np.asarray(coeff, dtype=float)
    if table.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {table.shape}")
    return table


def _parts(sys_spec: SystemSpec, n: int) -> list:
    """(form, table[I, J, K], left operand is D^-1 u, output takes D^-1) per part."""
    kind, N = sys_spec.kind, sys_spec.N
    if kind not in ("YMmodel", "MKGmodel"):
        table = (-sys_spec.gamma_const if kind == "WM" else
                 sys_spec.a_table if kind == "WMM" else np.ones((1, 1, 1)))
        return [(BilinearFormSpec("qtilde" if kind == "WMM" else "q0"), table, False, False)]
    if n < 2:
        raise ValueError(f"{kind} needs n >= 2: Q_ij pairs two spatial axes, at n = 1 it is 0")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    u, v = (slice(sys_spec.N1), slice(sys_spec.N1, N)) if kind == "MKGmodel" else (slice(N),) * 2
    outer, plain = np.zeros((2, N, len(pairs), N, N))
    outer[u, :, v, v] = first = _table(sys_spec.q_coeff, "q_coeff", outer[u, :, v, v].shape)
    plain[v, :, u, v] = (first if kind == "YMmodel" and sys_spec.q_coeff_second is None else
                         _table(sys_spec.q_coeff_second, "q_coeff_second", plain[v, :, u, v].shape))
    return [part for p, (i, j) in enumerate(pairs) for form in [BilinearFormSpec("qij", i=i, j=j)]
            for part in ((form, outer[:, p], False, True), (form, plain[:, p], True, False))]


_d_inverse = functools.partial(apply, MultiplierSpec("d", -1.0))


def apply_nonlinearity(sys_spec: SystemSpec, comps: list) -> list:
    """Evaluate the model nonlinearity on a list of spacetime component fields: one
    combine_forms call sums the terms of the outer parts and of the plain ones on one fine
    lattice, so each component and each of its derivatives is padded once."""
    if len(comps) != sys_spec.N:
        raise ValueError(f"expected {sys_spec.N} components, got {len(comps)}")
    grid, N = comps[0].grid, sys_spec.N
    dinv = functools.cache(lambda J: _d_inverse(comps[J]))
    outer_terms, plain_terms, parts = [], [], _parts(sys_spec, grid.n)
    for form, table, left_dinv, outer in parts:
        for J, K in zip(*np.nonzero(np.any(table, axis=0))):
            # Q0 is symmetric, so its lower index goes first: (J, K) and (K, J) then multiply the
            # same images in one order, as a complex product is not commutative bit for bit
            a, b = sorted((J, K)) if form.form == "q0" else (J, K)
            (outer_terms if outer else plain_terms).append(
                (form, dinv(a) if left_dinv else comps[a], comps[b], table[:, J, K]))
    first, second = combine_forms(grid, (outer_terms, N), (plain_terms, N))
    return second if not any(outer for *_, outer in parts) else [
        a.copy_with(a.coeffs + b.coeffs, real_flag=a.real_flag and b.real_flag)
        for a, b in zip(map(_d_inverse, first), second)]


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
