"""Unary Fourier multipliers, wave-Sobolev norms, and admissibility checkers.

Weights.  `weight(family, a, tau, abs_xi)` evaluates each weight family to
the power a on broadcastable arrays (or scalars) of the temporal frequency
tau and the spatial magnitude |xi|; Xi = (tau, xi) is the space-time
frequency and Q = |xi|^2 - tau^2 its Lorentzian form.  Every norm, probe and
symbol inequality of the package takes its weights from it:

    lambda        (1 + |xi|^2)^(a/2)          elliptic, spatial only (tau unused)
    lambda_plus   (1 + |Xi|^2)^(a/2)          full space-time weight
    lambda_minus  (1 + Q^2/(1+|Xi|^2))^(a/2)  hyperbolic
    d             |xi|^a                      (tau unused)
    d_plus        (|tau| + |xi|)^a
    d_minus       ||tau| - |xi||^a            distance to the light cone

A negative power of a homogeneous family (d, d_plus, d_minus) is 0 where its
base vanishes: |xi| = 0, the origin, and the light cone respectively.

Lattice symbols.  `symbol_values` evaluates a `MultiplierSpec` on the
frequency lattice: the six weight families through `weight`, and

    identity      1
    riesz         i * Xi_mu / |xi|            0 <= mu <= n; mu = 0 is the temporal component

Negative homogeneous powers and the Riesz family project out the xi = 0 mode
(the origin is always a lattice point) and set the diagnostic flag on the
output field.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .lattice import SPACETIME, SPATIAL, Grid, SpectralField

HOMOGENEOUS = ("d", "d_plus", "d_minus")
FAMILIES = ("identity", "lambda", "lambda_plus", "lambda_minus") + HOMOGENEOUS + ("riesz",)

_EQ_TOL = 1e-12


@dataclass(frozen=True)
class MultiplierSpec:
    family: str
    alpha: float = 0.0
    axis: int = 0  # Riesz component mu; 0 is the time direction

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown multiplier family {self.family!r}")


@dataclass(frozen=True)
class SpaceIndex:
    """Pair of regularity exponents (s, theta) for H^{s,theta}."""

    s: float
    theta: float


def weight(family: str, a: float, tau, abs_xi):
    """Weight `family` to the power a at (tau, |xi|); see the module docstring.

    tau and abs_xi broadcast against each other; tau may be None for the
    spatial families lambda and d.
    """
    if family == "lambda":
        return (1.0 + abs_xi**2) ** (a / 2.0)
    if family == "lambda_plus":
        return (1.0 + tau**2 + abs_xi**2) ** (a / 2.0)
    if family == "lambda_minus":
        qform = abs_xi**2 - tau**2
        e2 = tau**2 + abs_xi**2
        return (1.0 + qform**2 / (1.0 + e2)) ** (a / 2.0)
    if family == "d":
        base = abs_xi
    elif family == "d_plus":
        base = np.abs(tau) + abs_xi
    elif family == "d_minus":
        base = np.abs(np.abs(tau) - abs_xi)
    else:
        raise ValueError(f"{family!r} is not a weight family")
    if a < 0:
        zero = base == 0.0
        return np.where(zero, 0.0, np.where(zero, 1.0, base) ** a)
    return base**a


def symbol_values(spec: MultiplierSpec, grid: Grid, kind: str):
    """Symbol evaluated on the frequency lattice; returns (array, projected_flag)."""
    if spec.family in ("lambda_plus", "lambda_minus", "d_plus", "d_minus") and kind != SPACETIME:
        raise ValueError(f"{spec.family} acts on spacetime fields only")
    shape = grid.shape_for(kind)
    if spec.family == "identity":
        return np.ones(shape), False
    ax = grid.abs_xi(kind)
    tau = grid.tau_broadcast() if kind == SPACETIME else None
    if spec.family != "riesz":
        projected = spec.family in HOMOGENEOUS and bool(spec.alpha < 0)
        return np.broadcast_to(weight(spec.family, spec.alpha, tau, ax), shape).copy(), projected
    if not 0 <= spec.axis <= grid.n:
        raise ValueError(f"Riesz axis must be in 0..{grid.n}, got {spec.axis}")
    if spec.axis == 0:
        if kind != SPACETIME:
            raise ValueError("temporal Riesz component needs a spacetime field")
        comp = tau
    else:
        comp = grid.xi_component(spec.axis - 1, kind)
    zero = ax == 0.0
    vals = np.where(zero, 0.0, 1j * comp / np.where(zero, 1.0, ax))
    return np.broadcast_to(vals, shape).copy(), True


def apply(spec: MultiplierSpec, u: SpectralField) -> SpectralField:
    """Coefficientwise product with the symbol."""
    sym, projected = symbol_values(spec, u.grid, u.kind)
    out = u.copy_with(u.coeffs * sym)
    if np.iscomplexobj(sym) and np.max(np.abs(sym.imag)) > 0:
        out.real_flag = False
    out.zero_mode_projected = u.zero_mode_projected or projected
    return out


@functools.lru_cache(maxsize=16)
def _ws_weight_sq(grid: Grid, idx: SpaceIndex) -> np.ndarray:
    """Read-only (Lambda^s Lambda_-^theta)^2 on the spacetime lattice of grid."""
    tau, ax = grid.tau_broadcast(), grid.abs_xi(SPACETIME)
    w2 = (weight("lambda", idx.s, tau, ax) * weight("lambda_minus", idx.theta, tau, ax)) ** 2
    w2.setflags(write=False)
    return w2


def ws_norm(u: SpectralField, idx: SpaceIndex) -> float:
    """H^{s,theta} norm: L^2 of Lambda^s Lambda_-^theta applied to u."""
    if u.kind != SPACETIME:
        raise ValueError("ws_norm needs a spacetime field")
    return float(np.sqrt(np.sum(_ws_weight_sq(u.grid, idx) * np.abs(u.coeffs) ** 2)))


def cal_norm(u: SpectralField, idx: SpaceIndex) -> float:
    """Norm of the second-order space adapted to the wave operator: the L^2 norm of
    Lambda^{s-1} Lambda_+ Lambda_-^theta u (the single-multiplier form)."""
    if u.kind != SPACETIME:
        raise ValueError("cal_norm needs a spacetime field")
    tau, ax = u.grid.tau_broadcast(), u.grid.abs_xi(SPACETIME)
    w = (weight("lambda", idx.s - 1.0, tau, ax) * weight("lambda_plus", 1.0, tau, ax)
         * weight("lambda_minus", idx.theta, tau, ax))
    return float(np.sqrt(np.sum(w**2 * np.abs(u.coeffs) ** 2)))


def spatial_hs_norm(coeffs: np.ndarray, grid: Grid, s: float) -> float:
    """H^s norm of a spatial coefficient array."""
    lam = weight("lambda", s, None, grid.abs_xi(SPATIAL))
    return float(np.sqrt(np.sum((lam * np.abs(coeffs)) ** 2)))


# ---------------------------------------------------------------------------
# admissibility and theorem-condition checkers
#
# Comparisons: when every input is rational (int or Fraction) the conditions
# are decided exactly in Fractions; otherwise in floats, with slack 1e-12 on
# equalities and non-strict inequalities and plain comparison for strict
# ones, so boundary equalities resolve per the strict/non-strict form of each
# condition.


def _arithmetic(*xs):
    """xs as Fractions with slack 0 when every x is rational, else as floats with slack 1e-12."""
    if all(isinstance(x, Rational) for x in xs):
        return [Fraction(x) for x in xs], 0
    return [float(x) for x in xs], _EQ_TOL


def _eq(a, b, tol) -> bool:
    return abs(a - b) <= tol


def is_wave_admissible(q, r, n) -> bool:
    """2 <= q <= inf, 2 <= r < inf, and 2/q <= (n-1)(1/2 - 1/r)."""
    q, r = float(q), float(r)
    if not (2.0 <= q):
        return False
    if not (2.0 <= r < math.inf):
        return False
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    return 2.0 * inv_q <= (n - 1) * (0.5 - 1.0 / r) + _EQ_TOL


def strichartz_s(q, r, n) -> float:
    """Scaling exponent s = n/2 - n/r - 1/q."""
    q, r = float(q), float(r)
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    inv_r = 0.0 if math.isinf(r) else 1.0 / r
    return n / 2.0 - n * inv_r - inv_q

def check_thmB(q, r, n, sigma, s1, s2) -> bool:
    """Bilinear Strichartz region for D^{-sigma}(uv) in L^{q/2} L^{r/2}."""
    if not is_wave_admissible(q, r, n):
        return False
    (q, r, n, sigma, s1, s2), tol = _arithmetic(q, r, n, sigma, s1, s2)
    inv_q, inv_r = 0 if math.isinf(q) else 1 / q, 1 / r
    cap = n / 2 - n * inv_r - inv_q
    return (0 < sigma < n - 2 * n * inv_r - 4 * inv_q and s1 < cap and s2 < cap
            and _eq(s1 + s2 + sigma, n - 2 * n * inv_r - 2 * inv_q, tol))


def check_thmC(n, gamma, gamma_plus, gamma_minus, s1, s2) -> bool:
    """Full condition list for the L^2 bilinear estimate with D, D_+, D_- weights."""
    (n, half, gamma, gamma_plus, gamma_minus, s1, s2), tol = _arithmetic(
        n, Fraction(1, 2), gamma, gamma_plus, gamma_minus, s1, s2)
    nm1_2, nm3_4, np1_4 = (n - 1) / 2, (n - 3) / 4, (n + 1) / 4
    if not (_eq(gamma + gamma_plus + gamma_minus, s1 + s2 - nm1_2, tol)
            and gamma_minus >= -nm3_4 - tol and gamma > -nm1_2
            and s1 <= gamma_minus + nm1_2 + tol and s2 <= gamma_minus + nm1_2 + tol
            and s1 + s2 >= half - tol):
        return False
    # the endpoint gamma_- = -(n-3)/4 excludes s_i = (n+1)/4 and s1 + s2 = 1/2
    return not (_eq(gamma_minus, -nm3_4, tol)
                and (_eq(s1, np1_4, tol) or _eq(s2, np1_4, tol) or _eq(s1 + s2, half, tol)))
