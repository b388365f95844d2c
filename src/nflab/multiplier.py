"""Unary Fourier multipliers, wave-Sobolev norms, and admissibility checkers.

Symbol table (tau, xi denote the space-time frequency, Xi the full vector):

    lambda        (1 + |xi|^2)^(a/2)          elliptic, spatial only
    lambda_plus   (1 + |Xi|^2)^(a/2)          full space-time weight
    lambda_minus  (1 + Q^2/(1+|Xi|^2))^(a/2)  Q = |xi|^2 - tau^2, hyperbolic
    d             |xi|^a
    d_plus        (|tau| + |xi|)^a
    d_minus       ||tau| - |xi||^a
    riesz         i * Xi_mu / |xi|            mu = 0 is the temporal component

Negative homogeneous powers and the Riesz family project out the xi = 0 mode
and set the diagnostic flag on the output field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .lattice import SPACETIME, SPATIAL, Grid, SpectralField, symbol_image

FAMILIES = ("identity", "lambda", "lambda_plus", "lambda_minus",
            "d", "d_plus", "d_minus", "riesz")

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


@dataclass(frozen=True)
class StrichartzTriple:
    q: float
    r: float
    n: int

    @property
    def s(self) -> float:
        """Scaling exponent n/2 - n/r - 1/q, recomputed on every access."""
        return strichartz_s(self.q, self.r, self.n)

    @property
    def admissible(self) -> bool:
        return is_wave_admissible(self.q, self.r, self.n)


def _needs_spacetime(family: str) -> bool:
    return family in ("lambda_plus", "lambda_minus", "d_plus", "d_minus")


def symbol_values(spec: MultiplierSpec, grid: Grid, kind: str):
    """Symbol evaluated on the frequency lattice; returns (array, projected_flag)."""
    if _needs_spacetime(spec.family) and kind != SPACETIME:
        raise ValueError(f"{spec.family} acts on spacetime fields only")
    a = spec.alpha
    projected = False
    if spec.family == "identity":
        return np.ones(grid.shape_for(kind)), False
    if spec.family == "lambda":
        return (1.0 + grid.abs_xi(kind) ** 2) ** (a / 2.0) + np.zeros(grid.shape_for(kind)), False
    if spec.family == "lambda_plus":
        tau = grid.tau_broadcast()
        return (1.0 + tau**2 + grid.abs_xi(kind) ** 2) ** (a / 2.0) + np.zeros(grid.shape_for(kind)), False
    if spec.family == "lambda_minus":
        tau = grid.tau_broadcast()
        ax = grid.abs_xi(kind)
        qform = ax**2 - tau**2
        e2 = tau**2 + ax**2
        return (1.0 + qform**2 / (1.0 + e2)) ** (a / 2.0) + np.zeros(grid.shape_for(kind)), False

    ax = grid.abs_xi(kind) + np.zeros(grid.shape_for(kind))
    zero = ax == 0.0
    if spec.family == "d":
        if a < 0:
            vals = np.where(zero, 0.0, np.where(zero, 1.0, ax) ** a)
            return vals, True
        return ax**a, False
    if spec.family == "d_plus":
        tau = np.abs(grid.tau_broadcast()) + np.zeros(grid.shape_for(kind))
        base = tau + ax
        zero_b = base == 0.0
        if a < 0:
            return np.where(zero_b, 0.0, np.where(zero_b, 1.0, base) ** a), bool(zero_b.any())
        return base**a, False
    if spec.family == "d_minus":
        tau = np.abs(grid.tau_broadcast()) + np.zeros(grid.shape_for(kind))
        base = np.abs(tau - ax)
        zero_b = base == 0.0
        if a < 0:
            return np.where(zero_b, 0.0, np.where(zero_b, 1.0, base) ** a), bool(zero_b.any())
        return base**a, False
    if spec.family == "riesz":
        if spec.axis == 0:
            if kind != SPACETIME:
                raise ValueError("temporal Riesz component needs a spacetime field")
            comp = grid.tau_broadcast() + np.zeros(grid.shape_for(kind))
        else:
            comp = grid.xi_component(spec.axis - 1, kind) + np.zeros(grid.shape_for(kind))
        vals = np.where(zero, 0.0, 1j * comp / np.where(zero, 1.0, ax))
        return vals, True
    raise AssertionError(spec.family)


def apply(spec: MultiplierSpec, u: SpectralField) -> SpectralField:
    """Coefficientwise product with the symbol."""
    sym, projected = symbol_values(spec, u.grid, u.kind)
    out = u.copy_with(u.coeffs * sym)
    if np.iscomplexobj(sym) and np.max(np.abs(sym.imag)) > 0:
        out.real_flag = False
    out.zero_mode_projected = u.zero_mode_projected or projected
    return out


def ws_norm(u: SpectralField, idx: SpaceIndex) -> float:
    """H^{s,theta} norm: L^2 of Lambda^s Lambda_-^theta applied to u."""
    if u.kind != SPACETIME:
        raise ValueError("ws_norm needs a spacetime field")
    g = u.grid
    lam, _ = symbol_values(MultiplierSpec("lambda", idx.s), g, SPACETIME)
    lam_m, _ = symbol_values(MultiplierSpec("lambda_minus", idx.theta), g, SPACETIME)
    return float(np.sqrt(np.sum((lam * lam_m) ** 2 * np.abs(u.coeffs) ** 2)))


def cal_norm(u: SpectralField, idx: SpaceIndex, du_dt: SpectralField | None = None):
    """Norm of the second-order space adapted to the wave operator.

    Single-multiplier form: L^2 norm of Lambda^{s-1} Lambda_+ Lambda_-^theta u.
    With du_dt supplied, also returns the two-term form
    ws_norm(u, (s, theta)) + ws_norm(du_dt, (s-1, theta)).
    """
    if u.kind != SPACETIME:
        raise ValueError("cal_norm needs a spacetime field")
    g = u.grid
    lam, _ = symbol_values(MultiplierSpec("lambda", idx.s - 1.0), g, SPACETIME)
    lam_p, _ = symbol_values(MultiplierSpec("lambda_plus", 1.0), g, SPACETIME)
    lam_m, _ = symbol_values(MultiplierSpec("lambda_minus", idx.theta), g, SPACETIME)
    single = float(np.sqrt(np.sum((lam * lam_p * lam_m) ** 2 * np.abs(u.coeffs) ** 2)))
    if du_dt is None:
        return single
    two_term = ws_norm(u, idx) + ws_norm(du_dt, SpaceIndex(idx.s - 1.0, idx.theta))
    return single, two_term


def time_derivative(u: SpectralField) -> SpectralField:
    """Spectral d/dt (multiplication by i*tau)."""
    if u.kind != SPACETIME:
        raise ValueError("time derivative needs a spacetime field")
    return symbol_image(u, ("d", 0))


def spatial_hs_norm(coeffs: np.ndarray, grid: Grid, s: float) -> float:
    """H^s norm of a spatial coefficient array."""
    lam = (1.0 + grid.abs_xi(SPATIAL) ** 2) ** (s / 2.0)
    return float(np.sqrt(np.sum((lam * np.abs(coeffs)) ** 2)))


# ---------------------------------------------------------------------------
# admissibility and theorem-condition checkers
#
# Comparisons: when every input is rational (int or Fraction) the conditions
# are decided exactly; float inputs use tolerance 1e-12 for equalities and
# plain comparison for strict inequalities, so boundary equalities resolve
# per the strict/non-strict form of each condition.


def _exactable(*xs) -> bool:
    return all(isinstance(x, Rational) and not isinstance(x, float) for x in xs)


def _eq(a, b, exact: bool) -> bool:
    if exact:
        return a == b
    return abs(float(a) - float(b)) <= _EQ_TOL


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
    exact = _exactable(q, r, sigma, s1, s2)
    if exact:
        q, r, sigma, s1, s2 = map(Fraction, (q, r, sigma, s1, s2))
        half, upper_gap = Fraction(1, 2), n - 2 * n / r - 4 / q
        cap = Fraction(n, 2) - Fraction(n, 1) / r - 1 / q
        total = n - 2 * n / r - 2 / q
    else:
        q, r, sigma, s1, s2 = map(float, (q, r, sigma, s1, s2))
        inv_q = 0.0 if math.isinf(q) else 1.0 / q
        inv_r = 1.0 / r
        upper_gap = n - 2 * n * inv_r - 4 * inv_q
        cap = n / 2.0 - n * inv_r - inv_q
        total = n - 2 * n * inv_r - 2 * inv_q
    if not (0 < sigma < upper_gap):
        return False
    if not (s1 < cap and s2 < cap):
        return False
    return _eq(s1 + s2 + sigma, total, exact)


def check_thmC(n, gamma, gamma_plus, gamma_minus, s1, s2) -> bool:
    """Full condition list for the L^2 bilinear estimate with D, D_+, D_- weights."""
    exact = _exactable(gamma, gamma_plus, gamma_minus, s1, s2)
    if exact:
        gamma, gamma_plus, gamma_minus, s1, s2 = map(
            Fraction, (gamma, gamma_plus, gamma_minus, s1, s2))
        nm1_2 = Fraction(n - 1, 2)
        nm3_4 = Fraction(n - 3, 4)
        np1_4 = Fraction(n + 1, 4)
        half = Fraction(1, 2)
    else:
        gamma, gamma_plus, gamma_minus, s1, s2 = map(
            float, (gamma, gamma_plus, gamma_minus, s1, s2))
        nm1_2 = (n - 1) / 2.0
        nm3_4 = (n - 3) / 4.0
        np1_4 = (n + 1) / 4.0
        half = 0.5
    if not _eq(gamma + gamma_plus + gamma_minus, s1 + s2 - nm1_2, exact):
        return False
    if not gamma_minus >= -nm3_4 - (0 if exact else _EQ_TOL):
        return False
    if not gamma > -nm1_2:
        return False
    if not (s1 <= gamma_minus + nm1_2 + (0 if exact else _EQ_TOL)
            and s2 <= gamma_minus + nm1_2 + (0 if exact else _EQ_TOL)):
        return False
    if not s1 + s2 >= half - (0 if exact else _EQ_TOL):
        return False
    for si in (s1, s2):
        if _eq(si, np1_4, exact) and _eq(gamma_minus, -nm3_4, exact):
            return False
    if _eq(s1 + s2, half, exact) and _eq(gamma_minus, -nm3_4, exact):
        return False
    return True
