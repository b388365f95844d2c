"""Linear wave evolution on the lattice.

Sign convention: the wave operator is -d^2/dt^2 + Laplacian, so each spatial
mode obeys v'' + |xi|^2 v = -F_hat and the zero-data solution is

    v(t) = -int_0^t sin(|xi| (t - t')) / |xi| * F_hat(t') dt'

with kernel (t - t') at xi = 0.  The time integral uses trapezoidal
quadrature through the running-sum factorization of the sine kernel, which
keeps the cost at O(N_t) per mode.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .lattice import (SPACETIME, SPATIAL, Grid, SpectralField,
                      from_time_spatial_rep, plane_wave_coeffs, time_cutoff,
                      time_spatial_rep)
from .multiplier import weight


@dataclass
class CauchyData:
    """Position/velocity pair (f, g) of spatial fields on one grid."""

    f: SpectralField
    g: SpectralField

    def __post_init__(self):
        if self.f.grid != self.g.grid:
            raise ValueError("Cauchy data must live on one grid")
        if self.f.kind != SPATIAL or self.g.kind != SPATIAL:
            raise ValueError("Cauchy data must be spatial fields")
        if self.f.real_flag != self.g.real_flag:
            raise ValueError("real_flag must be consistent across the pair")


def half_wave(sign: int, t: float, f: SpectralField) -> SpectralField:
    """exp(sign * i * t * D): mode xi multiplied by exp(sign * i * t * |xi|)."""
    if f.kind != SPATIAL:
        raise ValueError("half_wave acts on spatial fields")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    phase = np.exp(sign * 1j * t * f.grid.abs_xi(SPATIAL))
    return f.copy_with(f.coeffs * phase, real_flag=f.real_flag and t == 0.0)


def _mode_factors(grid: Grid, t: float):
    ax = grid.abs_xi(SPATIAL)
    zero = ax == 0.0
    safe = np.where(zero, 1.0, ax)
    cos_t = np.cos(t * ax)
    sin_t = np.where(zero, t, np.sin(t * safe) / safe)
    return ax, cos_t, sin_t


def homogeneous(data: CauchyData, t: float) -> SpectralField:
    """Solution of the homogeneous wave equation at time t.

    Per mode: cos(t|xi|) f_hat + sin(t|xi|)/|xi| g_hat, with the xi = 0 mode
    evolving as f_hat + t g_hat.
    """
    _, cos_t, sin_t = _mode_factors(data.f.grid, t)
    return data.f.copy_with(cos_t * data.f.coeffs + sin_t * data.g.coeffs)


def homogeneous_velocity(data: CauchyData, t: float) -> SpectralField:
    """Time derivative of the homogeneous solution (analytic per mode)."""
    ax, cos_t, _ = _mode_factors(data.f.grid, t)
    return data.f.copy_with(-ax * np.sin(t * ax) * data.f.coeffs + cos_t * data.g.coeffs)


def signed_times(grid: Grid) -> np.ndarray:
    """Lattice times folded to (-T/2, T/2]: the second half of the axis is negative.

    Evolution data are not periodic in time, so the lattice window is centered
    at t = 0 (where the Cauchy data live and the temporal cutoff plateaus);
    the wrap seam then sits at |t| = T/2 where the cutoff vanishes.
    """
    t = grid.times()
    return np.where(t < grid.T_per / 2.0, t, t - grid.T_per)


def homogeneous_spacetime(data: CauchyData) -> np.ndarray:
    """Mixed representation a[j, xi] of the homogeneous solution on the signed window."""
    g = data.f.grid
    _, cos_t, sin_t = _mode_factors(g, signed_times(g).reshape((g.N_t,) + (1,) * g.n))
    return cos_t * plane_wave_coeffs(data.f) + sin_t * plane_wave_coeffs(data.g)


@functools.lru_cache(maxsize=8)
def _duhamel_tables(grid: Grid):
    """Read-only tables of duhamel_mixed per grid: safe |xi| (1 at xi = 0) and, for each
    signed-time order, (order, t, cos(|xi| t), sin(|xi| t))."""
    ax = grid.abs_xi(SPATIAL)
    safe = np.where(ax == 0.0, 1.0, ax)
    tb = signed_times(grid).reshape((grid.N_t,) + (1,) * grid.n)
    half = grid.N_t // 2
    # indices 0 .. half-1 (times 0, dt, ...), then 0, N-1, ..., half (times 0, -dt, ...)
    legs = tuple((o, tb[o], np.cos(safe * tb[o]), np.sin(safe * tb[o]))
                 for o in (np.arange(half), np.r_[0, grid.N_t - 1:half - 1:-1]))
    for arr in (safe,) + sum(legs, ()):
        arr.setflags(write=False)
    return safe, legs


def duhamel_mixed(grid: Grid, a_F: np.ndarray) -> np.ndarray:
    """Zero-data solution in mixed representation, trapezoid running sums.

    Works on the signed time window: forward accumulation from t = 0 on the
    first half of the axis, backward accumulation on the negative half.  The
    cos/sin tables are built once per grid (`_duhamel_tables`, cached).
    """
    safe, legs = _duhamel_tables(grid)
    zero = (slice(None),) + (0,) * grid.n

    def running(z, sign):
        # cumulative trapezoid from t = 0 along an ordering; a backward step's sign is a
        # negation (not a factor -dt), which keeps the signs of zeros
        csum = np.zeros_like(z)
        csum[1:] = sign(np.cumsum(0.5 * grid.dt * (z[1:] + z[:-1]), axis=0))
        return csum

    out = np.empty_like(a_F)
    for (order, t, cos_t, sin_t), sign in zip(legs, (np.positive, np.negative)):
        y = a_F[order]
        osc = -(sin_t * running(cos_t * y, sign) - cos_t * running(sin_t * y, sign)) / safe
        # the xi = 0 mode has kernel (t - t'): computed on its own column only
        osc[zero] = -(t[zero] * running(y[zero], sign) - running(t[zero] * y[zero], sign))
        out[order] = osc
    return out


def duhamel(F: SpectralField) -> SpectralField:
    """Solution of (wave operator) v = F with vanishing data at t = 0."""
    if F.kind != SPACETIME:
        raise ValueError("duhamel needs a spacetime field")
    a_u = duhamel_mixed(F.grid, time_spatial_rep(F))
    return from_time_spatial_rep(F.grid, a_u, real_flag=F.real_flag)


def pm_decompose(u: SpectralField):
    """Split by the sign of the temporal frequency; the tau = 0 plane goes to u_plus."""
    if u.kind != SPACETIME:
        raise ValueError("pm_decompose needs a spacetime field")
    tau = u.grid.tau_broadcast()
    plus_mask = tau >= 0.0
    c_plus = np.where(plus_mask, u.coeffs, 0.0)
    c_minus = np.where(plus_mask, 0.0, u.coeffs)
    up = u.copy_with(c_plus, real_flag=False)
    um = u.copy_with(c_minus, real_flag=False)
    return up, um


@dataclass
class Step1Report:
    """Per-mode inequality audit for the zero-data solution at one time."""

    time: float
    fitted_C: float          # max over modes of lhs * |xi| / integral (first bound)
    bound2_max_ratio: float
    bound2_violations: int


def step1_bound_check(F: SpectralField, t: float) -> Step1Report:
    """Evaluate both pointwise bounds on |u_hat(t)(xi)| for u = duhamel(F cut in time).

    F is first multiplied by the temporal cutoff of width T_per/2 (`time_cutoff`).
    First bound: C_t/|xi| times the tau-integral of |F_hat| / (1 + ||tau|-|xi||);
    the constant is fitted (reported), not asserted.  Second bound: t^2 times
    the tau-integral of |F_hat|, which is constant-free on the lattice.
    """
    if F.kind != SPACETIME:
        raise ValueError("step1_bound_check needs a spacetime field")
    g = F.grid
    Fw = time_cutoff(F, g.T_per / 2.0)
    a_u = duhamel_mixed(g, time_spatial_rep(Fw))
    j = int(round(t / g.dt))
    j = min(max(j, 0), g.N_t - 1)
    t_j = g.times()[j]
    lhs = np.abs(a_u[j])

    # tau-resolved amplitudes of each mode's time signal: the cut field's coefficients
    A = plane_wave_coeffs(Fw)
    ax = g.abs_xi(SPATIAL)
    hyp = weight("d_minus", 1.0, g.tau_broadcast(), ax)
    int_weighted = np.sum(np.abs(A) / (1.0 + hyp), axis=0)
    int_plain = np.sum(np.abs(A), axis=0)

    zero = ax == 0.0
    safe_int = np.where(int_weighted > 0, int_weighted, 1.0)
    ratio1 = np.where(zero | (int_weighted == 0.0), 0.0,
                      lhs * np.where(zero, 1.0, ax) / safe_int)
    fitted_C = float(np.max(ratio1))

    rhs2 = t_j**2 * int_plain
    ratio2 = np.where(rhs2 > 0, lhs / np.where(rhs2 > 0, rhs2, 1.0), 0.0)
    viol = int(np.sum(lhs > rhs2 * (1.0 + 1e-9) + 1e-300))
    return Step1Report(time=float(t_j), fitted_C=fitted_C,
                       bound2_max_ratio=float(np.max(ratio2)),
                       bound2_violations=viol)
