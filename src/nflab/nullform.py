"""Bilinear null forms, frequency-kernel operators, and symbol inequalities.

Two computation routes exist side by side:

* derivative-product route (q0, qij, qtilde, plain product): unary multipliers
  followed by physical-space multiplication with 3/2 dealiasing;
* kernel-convolution route (ralpha, splus, sminus): a direct double sum over
  occupied frequency pairs with the exact kernel, scaled like the product
  route so both can be compared mode by mode.

Kernels on spatial frequency pairs (a, b):

    splus   (|a| + |b| - |a+b|)^alpha          = Delta_+(a,b)^alpha
    sminus  (|a+b| - ||a| - |b||)^alpha        = Delta_-(a,b)^alpha

and on space-time pairs ((tau,a), (lam,b)):

    ralpha  Delta_+(a,b)^alpha  if tau*lam >= 0,   Delta_-(a,b)^alpha  else
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (SPACETIME, SPATIAL, FineLattice, FrequencyPoint, Grid, SpectralField,
                      dealiased_product, from_time_spatial_rep, symbol_image,
                      time_spatial_rep)
# bound here as well: perfbench/tracer.py wraps fine_samples in every module that binds it
from .lattice import fine_samples  # noqa: F401

FORMS = ("q0", "qij", "qtilde", "ralpha", "splus", "sminus", "product")

_OCCUPIED_REL_TOL = 1e-14


@dataclass(frozen=True)
class BilinearFormSpec:
    form: str
    alpha: float = 1.0
    i: int = 1
    j: int = 2

    def __post_init__(self):
        if self.form not in FORMS:
            raise ValueError(f"unknown bilinear form {self.form!r}")
        if self.form in ("ralpha", "splus", "sminus") and not self.alpha > 0:
            raise ValueError("kernel exponent alpha must be positive")
        if self.form == "qij" and not (1 <= self.i < self.j):
            raise ValueError("qij needs spatial axes 1 <= i < j <= n")


# ---------------------------------------------------------------------------
# stable Delta_{+/-} evaluation
#
# Delta_+ = |a| + |b| - |a+b| cancels catastrophically for nearly parallel
# pairs, so it is rewritten through the wedge product:
#   |a||b| - a.b = |a ^ b|^2 / (|a||b| + a.b),
#   Delta_+ = 2 (|a||b| - a.b) / (|a| + |b| + |a+b|),
# and symmetrically for Delta_-.


def _wedge_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[-1] == 1:
        return np.zeros(a.shape[:-1])
    if a.shape[-1] == 2:
        return (a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]) ** 2
    cx = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    cy = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    cz = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return cx**2 + cy**2 + cz**2


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(a * a, axis=-1))


def delta_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a| + |b| - |a+b|, evaluated stably; inputs (..., n)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    na, nb, ns = _norm(a), _norm(b), _norm(a + b)
    dot = np.sum(a * b, axis=-1)
    prod_minus = np.where(dot > 0,
                          _wedge_sq(a, b) / np.maximum(na * nb + dot, 1e-300),
                          na * nb - dot)
    denom = np.maximum(na + nb + ns, 1e-300)
    out = 2.0 * prod_minus / denom
    return np.where(na + nb == 0.0, 0.0, out)


def delta_minus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a+b| - ||a| - |b||, evaluated stably; inputs (..., n)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    na, nb, ns = _norm(a), _norm(b), _norm(a + b)
    dot = np.sum(a * b, axis=-1)
    prod_plus = np.where(dot < 0,
                         _wedge_sq(a, b) / np.maximum(na * nb - dot, 1e-300),
                         na * nb + dot)
    denom = np.maximum(ns + np.abs(na - nb), 1e-300)
    out = 2.0 * prod_plus / denom
    return np.where(na + nb == 0.0, 0.0, out)


def r_kernel(tau, a, lam, b) -> np.ndarray:
    """Two-branch kernel: Delta_+ where tau*lam >= 0, Delta_- where tau*lam < 0."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    return np.where(tau * lam >= 0.0, delta_plus(a, b), delta_minus(a, b))


def kernel_value(spec: BilinearFormSpec, p: FrequencyPoint, q: FrequencyPoint) -> complex:
    """Exact symbol or kernel value at an input frequency pair (p, q)."""
    xi, eta = p.xi, q.xi
    if spec.form == "q0":
        return complex(-p.tau * q.tau + float(np.dot(xi, eta)))
    if spec.form == "qij":
        i, j = spec.i - 1, spec.j - 1
        return complex(xi[i] * eta[j] - xi[j] * eta[i])
    if spec.form == "ralpha":
        return complex(float(r_kernel(p.tau, xi[None, :], q.tau, eta[None, :])[0]) ** spec.alpha)
    if spec.form == "splus":
        return complex(float(delta_plus(xi[None, :], eta[None, :])[0]) ** spec.alpha)
    if spec.form == "sminus":
        return complex(float(delta_minus(xi[None, :], eta[None, :])[0]) ** spec.alpha)
    if spec.form == "product":
        return 1.0 + 0.0j
    raise ValueError(f"{spec.form} has no pointwise kernel")


# ---------------------------------------------------------------------------
# derivative-product route
#
# Each form is a list of groups (outer, [(sign, op_u, op_v), ...]): the
# products of the symbol images (see lattice.symbol_image) are summed on the
# fine lattice, cropped, and mapped by the outer symbol.


def _groups(spec: BilinearFormSpec, n: int) -> list:
    if spec.form == "q0":
        return [(None, [(-1, ("d", 0), ("d", 0))] + [(1, ("d", j), ("d", j)) for j in range(1, n + 1)])]
    if spec.form == "qij":
        return [(None, [(1, ("d", spec.i), ("d", spec.j)), (-1, ("d", spec.j), ("d", spec.i))])]
    return [(("d", j), [(1, ("rr", j), None), (-1, None, ("rr", j))]) for j in range(1, n + 1)]


def form_samples(eng: FineLattice, spec: BilinearFormSpec, u: SpectralField, v: SpectralField):
    """Yield (outer symbol, fine samples) for each group of a q0, qij or qtilde form."""
    for outer, prods in _groups(spec, eng.grid.n):
        acc = 0
        for sign, op_u, op_v in prods:
            t = eng.samples(u, op_u) * eng.samples(v, op_v)
            acc = acc + t if sign > 0 else acc - t
        yield outer, acc


def combine_forms(eng: FineLattice, terms: list, n_out: int, real: bool,
                  projected: bool) -> list:
    """Components sum_t w_t[I] F_t(u_t, v_t) for I < n_out, from terms (F_t, u_t, v_t, w_t).

    The weighted products are summed on the fine lattice, so each group of
    each output component is cropped once.
    """
    acc = {}
    for spec, u, v, w in terms:
        for outer, P in form_samples(eng, spec, u, v):
            for I in np.flatnonzero(w):
                key = (int(I), outer)
                acc[key] = w[I] * P if key not in acc else acc[key] + w[I] * P
    out = [np.zeros(eng.grid.spacetime_shape, dtype=complex) for _ in range(n_out)]
    for (I, outer), P in acc.items():
        out[I] += symbol_image(eng.crop(P, real), outer).coeffs
    return [SpectralField(grid=eng.grid, kind=SPACETIME, coeffs=c, real_flag=real,
                          zero_mode_projected=projected) for c in out]


def _derivative_form(spec: BilinearFormSpec, u: SpectralField, v: SpectralField) -> SpectralField:
    return combine_forms(FineLattice(u.grid), [(spec, u, v, np.ones(1))], 1,
                         u.real_flag and v.real_flag, projected=spec.form == "qtilde")[0]


def _qtilde(u: SpectralField, v: SpectralField) -> SpectralField:
    return _derivative_form(BilinearFormSpec("qtilde"), u, v)


# ---------------------------------------------------------------------------
# kernel-convolution route (sparse double sum over occupied modes)


def occupied_modes(u: SpectralField):
    """Signed integer indices and coefficients of the occupied lattice modes."""
    c = u.coeffs
    top = float(np.max(np.abs(c)))
    if top == 0.0:
        d = c.ndim
        return np.zeros((0, d), dtype=int), np.zeros((0,), dtype=complex)
    sel = np.abs(c) > _OCCUPIED_REL_TOL * top
    idx = np.argwhere(sel)
    shape = np.array(c.shape)
    signed = np.where(idx >= shape // 2, idx - shape, idx)
    return signed, c[sel]


def _index_frequencies(grid: Grid, signed: np.ndarray, kind: str):
    """(tau, xi) frequency values for signed index rows."""
    if kind == SPACETIME:
        tau = signed[:, 0] * (2 * math.pi / grid.T_per)
        xi = signed[:, 1:] * (2 * math.pi / grid.L_per)
    else:
        tau = np.zeros(len(signed))
        xi = signed * (2 * math.pi / grid.L_per)
    return tau, xi


def _convolve_kernel(spec: BilinearFormSpec, u: SpectralField, v: SpectralField) -> SpectralField:
    g = u.grid
    kind = u.kind
    iu, cu = occupied_modes(u)
    iv, cv = occupied_modes(v)
    out = np.zeros(g.shape_for(kind), dtype=complex)
    if len(iu) == 0 or len(iv) == 0:
        return SpectralField(grid=g, kind=kind, coeffs=out,
                             real_flag=u.real_flag and v.real_flag)
    tau_u, xi_u = _index_frequencies(g, iu, kind)
    tau_v, xi_v = _index_frequencies(g, iv, kind)
    shape = np.array(g.shape_for(kind))
    scale = 1.0 / math.sqrt(g.volume if kind == SPACETIME else g.spatial_volume)

    chunk = max(1, int(2e6) // max(1, len(iv)))
    for lo in range(0, len(iu), chunk):
        hi = min(lo + chunk, len(iu))
        a = xi_u[lo:hi, None, :]
        b = xi_v[None, :, :]
        if spec.form == "splus":
            ker = delta_plus(a, b) ** spec.alpha
        elif spec.form == "sminus":
            ker = delta_minus(a, b) ** spec.alpha
        elif spec.form == "ralpha":
            ker = r_kernel(tau_u[lo:hi, None], a, tau_v[None, :], b) ** spec.alpha
        else:
            raise AssertionError(spec.form)
        vals = ker * cu[lo:hi, None] * cv[None, :] * scale
        isum = iu[lo:hi, None, :] + iv[None, :, :]
        inband = np.all((isum >= -(shape // 2)) & (isum <= shape // 2 - 1), axis=-1)
        pos = np.mod(isum, shape)
        flat = np.ravel_multi_index(tuple(np.moveaxis(pos, -1, 0)), tuple(shape))
        np.add.at(out.ravel(), flat[inband], vals[inband])
    return SpectralField(grid=g, kind=kind, coeffs=out,
                         real_flag=u.real_flag and v.real_flag)


def _slicewise_kernel(spec: BilinearFormSpec, u: SpectralField, v: SpectralField) -> SpectralField:
    """S_{+/-} on spacetime fields, applied time slice by time slice."""
    g = u.grid
    au = time_spatial_rep(u)
    av = time_spatial_rep(v)
    spatial_shape = np.array(g.spatial_shape)
    sel_u = np.argwhere(np.max(np.abs(au), axis=0) > _OCCUPIED_REL_TOL * max(np.max(np.abs(au)), 1e-300))
    sel_v = np.argwhere(np.max(np.abs(av), axis=0) > _OCCUPIED_REL_TOL * max(np.max(np.abs(av)), 1e-300))
    out = np.zeros_like(au)
    if len(sel_u) == 0 or len(sel_v) == 0:
        return from_time_spatial_rep(g, out, real_flag=u.real_flag and v.real_flag)
    signed_u = np.where(sel_u >= spatial_shape // 2, sel_u - spatial_shape, sel_u)
    signed_v = np.where(sel_v >= spatial_shape // 2, sel_v - spatial_shape, sel_v)
    xi_u = signed_u * (2 * math.pi / g.L_per)
    xi_v = signed_v * (2 * math.pi / g.L_per)
    if spec.form == "splus":
        ker = delta_plus(xi_u[:, None, :], xi_v[None, :, :]) ** spec.alpha
    else:
        ker = delta_minus(xi_u[:, None, :], xi_v[None, :, :]) ** spec.alpha
    isum = signed_u[:, None, :] + signed_v[None, :, :]
    inband = np.all((isum >= -(spatial_shape // 2)) & (isum <= spatial_shape // 2 - 1), axis=-1)
    pos = np.mod(isum, spatial_shape)
    flat = np.ravel_multi_index(tuple(np.moveaxis(pos, -1, 0)), tuple(spatial_shape))
    cu = au[(slice(None),) + tuple(sel_u.T)]
    cv = av[(slice(None),) + tuple(sel_v.T)]
    pairs = np.einsum("tp,tq->tpq", cu, cv) * ker[None, :, :]
    flat_out = out.reshape(g.N_t, -1)
    for t in range(g.N_t):
        np.add.at(flat_out[t], flat[inband], pairs[t][inband])
    return from_time_spatial_rep(g, flat_out.reshape(out.shape),
                                 real_flag=u.real_flag and v.real_flag)


def apply_form(spec: BilinearFormSpec, u: SpectralField, v: SpectralField) -> SpectralField:
    """Evaluate a bilinear form; output modes outside the lattice band are dropped."""
    if u.grid != v.grid or u.kind != v.kind:
        raise ValueError("fields must share grid and kind")
    if spec.form in ("q0", "qij", "qtilde"):
        if u.kind != SPACETIME:
            raise ValueError(f"{spec.form} needs spacetime fields")
        if spec.form == "qij" and spec.j > u.grid.n:
            raise ValueError(f"axis pair ({spec.i},{spec.j}) exceeds dimension {u.grid.n}")
        if spec.form == "qtilde":
            return _qtilde(u, v)
        return _derivative_form(spec, u, v)
    if spec.form == "product":
        return dealiased_product(u, v)
    if spec.form == "ralpha":
        if u.kind != SPACETIME:
            raise ValueError("ralpha needs spacetime fields")
        return _convolve_kernel(spec, u, v)
    if spec.form in ("splus", "sminus"):
        if u.kind == SPATIAL:
            return _convolve_kernel(spec, u, v)
        return _slicewise_kernel(spec, u, v)
    raise AssertionError(spec.form)


# ---------------------------------------------------------------------------
# pointwise symbol-inequality suite
#
# Every entry states a proven inequality with the explicit constant produced
# by its proof, so a correct implementation sees zero violations; the fuzz
# margin is measured against the inequality's natural magnitude to keep
# cancellation noise from registering as a failure.


@dataclass
class ViolationReport:
    name: str
    samples: int
    violations: int
    worst_margin: float
    constant: float


def _hyp(tau, xi):
    return np.abs(np.abs(tau) - _norm(xi))


def _euclid(tau, xi):
    return np.sqrt(tau**2 + np.sum(xi * xi, axis=-1))


def _ineq_delta(tau, lam, xi, eta):
    na, nb = _norm(xi), _norm(eta)
    mn = np.minimum(na, nb)
    prod = np.maximum(na * nb, 1e-300)
    dot = np.sum(xi * eta, axis=-1)
    m_minus = np.where(dot > 0, _wedge_sq(xi, eta) / np.maximum(prod + dot, 1e-300), prod - dot)
    m_plus = np.where(dot < 0, _wedge_sq(xi, eta) / np.maximum(prod - dot, 1e-300), prod + dot)
    lhs = np.concatenate([mn * m_plus / prod, mn * m_minus / prod])
    rhs = np.concatenate([2.0 * delta_minus(xi, eta), 2.0 * delta_plus(xi, eta)])
    unit = np.concatenate([mn, mn])
    return lhs, rhs, unit


def _ineq_hyperbolic_triangle(tau, lam, xi, eta):
    lhs = _hyp(tau + lam, xi + eta)
    rhs = _hyp(tau, xi) + _hyp(lam, eta) + r_kernel(tau, xi, lam, eta)
    unit = np.abs(tau) + np.abs(lam) + _norm(xi) + _norm(eta)
    return lhs, rhs, unit


def _ineq_q0(tau, lam, xi, eta, alpha=0.5):
    inner = -tau * lam + np.sum(xi * eta, axis=-1)
    lhs = np.abs(inner)
    A = np.abs(_norm(xi + eta) ** 2 - (tau + lam) ** 2)
    B = np.abs(_norm(xi) ** 2 - tau**2)
    C = np.abs(_norm(eta) ** 2 - lam**2)
    rhs = (0.5 * (A + B + C)) ** (1.0 - alpha) * (_euclid(tau, xi) * _euclid(lam, eta)) ** alpha
    unit = _euclid(tau, xi) * _euclid(lam, eta)
    return lhs, rhs, unit


def _ineq_qij(tau, lam, xi, eta):
    lhs = np.sqrt(_wedge_sq(xi, eta))
    A = _hyp(tau + lam, xi + eta)
    B = _hyp(tau, xi)
    C = _hyp(lam, eta)
    na, nb, ns = _norm(xi), _norm(eta), _norm(xi + eta)
    rhs = 2.0 * np.sqrt(na * nb * ns) * (np.sqrt(A) + np.sqrt(B) + np.sqrt(C))
    unit = na * nb
    return lhs, rhs, unit


def _ineq_elliptic(tau, lam, xi, eta):
    lhs = np.sqrt(1.0 + _norm(xi + eta) ** 2)
    rhs = np.sqrt(1.0 + _norm(xi) ** 2) + np.sqrt(1.0 + _norm(eta) ** 2)
    unit = 1.0 + _norm(xi) + _norm(eta)
    return lhs, rhs, unit


def _ineq_wedge(tau, lam, xi, eta):
    w = np.sqrt(_wedge_sq(xi, eta))
    na, nb, ns = _norm(xi), _norm(eta), _norm(xi + eta)
    lhs = np.concatenate([w, w, w])
    rhs = np.concatenate([na * nb, na * ns, ns * nb])
    unit = np.concatenate([na * nb, na * nb, na * nb])
    return lhs, rhs, unit


def _lam_plus(tau, xi):
    return np.sqrt(1.0 + tau**2 + np.sum(xi * xi, axis=-1))


def _lam_minus(tau, xi):
    e2 = tau**2 + np.sum(xi * xi, axis=-1)
    q = np.sum(xi * xi, axis=-1) - tau**2
    return np.sqrt(1.0 + q * q / (1.0 + e2))


def _ineq_lambda_minus_trivial(tau, lam, xi, eta):
    lhs = _lam_minus(tau + lam, xi + eta)
    rhs = 2.0 * _lam_plus(tau, xi) * _lam_plus(lam, eta)
    unit = rhs
    return lhs, rhs, unit


def _ineq_lambda_minus_interpolation(tau, lam, xi, eta):
    W = 1.0 + _hyp(tau + lam, xi + eta)
    rhs = 4.0 * (1.0 + _euclid(tau, xi)) + (1.0 + _hyp(lam, eta)) ** 2 / (1.0 + _norm(xi))
    unit = rhs
    return W, rhs, unit


def _ineq_lambda_minus_negative_power(tau, lam, xi, eta):
    W = 1.0 + _hyp(tau + lam, xi + eta)
    ne = 1.0 + _norm(eta)
    lhs = 1.0 / W
    rhs = ne / W**2 + 1.0 / ne
    return lhs, rhs, np.ones_like(W)


def _ineq_cfwm_r(tau, lam, xi, eta):
    lhs = r_kernel(tau, xi, lam, eta)
    rhs = _hyp(tau + lam, xi + eta) + _hyp(tau, xi) + _hyp(lam, eta)
    unit = np.abs(tau) + np.abs(lam) + _norm(xi) + _norm(eta)
    return lhs, rhs, unit


INEQUALITY_REGISTRY = {
    "delta": (_ineq_delta, 2.0),
    "hyperbolic-triangle": (_ineq_hyperbolic_triangle, 1.0),
    "q0": (_ineq_q0, 1.0),
    "qij": (_ineq_qij, 2.0),
    "elliptic-leibniz": (_ineq_elliptic, 1.0),
    "wedge": (_ineq_wedge, 1.0),
    "lambda-minus-trivial": (_ineq_lambda_minus_trivial, 2.0),
    "lambda-minus-interpolation": (_ineq_lambda_minus_interpolation, 4.0),
    "lambda-minus-negative-power": (_ineq_lambda_minus_negative_power, 1.0),
    "cfwm-r": (_ineq_cfwm_r, 1.0),
}


def _draw_frequency_pairs(rng, m: int, n: int):
    """Heavy-tailed random pairs plus structured near-cone/near-parallel families."""
    def radii(k):
        return 10.0 ** rng.uniform(-3.0, 4.0, size=k)

    def directions(k):
        d = rng.standard_normal((k, n))
        norm = np.linalg.norm(d, axis=1, keepdims=True)
        norm[norm == 0] = 1.0
        return d / norm

    xi = radii(m)[:, None] * directions(m)
    eta = radii(m)[:, None] * directions(m)
    tau = rng.choice([-1.0, 1.0], m) * radii(m)
    lam = rng.choice([-1.0, 1.0], m) * radii(m)

    blocks = np.array_split(np.arange(m), 10)
    # near-parallel pairs, both orientations
    for rows, sign in ((blocks[0], 1.0), (blocks[1], -1.0)):
        eps = 10.0 ** rng.uniform(-14.0, -2.0, size=(len(rows), 1))
        eta[rows] = sign * xi[rows] * (1.0 + eps) + eps * rng.standard_normal((len(rows), n))
    # near-cone temporal frequencies
    for rows, sign in ((blocks[2], 1.0), (blocks[3], -1.0)):
        eps = 10.0 ** rng.uniform(-14.0, -2.0, size=len(rows))
        tau[rows] = sign * np.linalg.norm(xi[rows], axis=1) * (1.0 + eps)
        lam[rows] = -sign * np.linalg.norm(eta[rows], axis=1) * (1.0 + eps)
    # exact degeneracies
    rows = blocks[4]
    eta[rows] = xi[rows]
    lam[rows] = tau[rows]
    rows = blocks[5]
    eta[rows] = -xi[rows]
    lam[rows] = -tau[rows]
    rows = blocks[6]
    xi[rows] = 0.0
    rows = blocks[7]
    tau[rows] = 0.0
    lam[rows[: len(rows) // 2]] = 0.0
    # exact cone points
    rows = blocks[8]
    tau[rows] = np.linalg.norm(xi[rows], axis=1)
    lam[rows] = np.linalg.norm(eta[rows], axis=1)
    # scale mismatch
    rows = blocks[9]
    xi[rows] *= 1e-6
    eta[rows] *= 1e6
    return tau, lam, xi, eta


def check_symbol_inequality(name: str, samples: int, seed: int,
                            dims=(2, 3)) -> ViolationReport:
    """Fuzz a registered pointwise inequality; slack is 1e-9 of its natural scale."""
    if name not in INEQUALITY_REGISTRY:
        raise KeyError(f"unknown inequality {name!r}; known: {sorted(INEQUALITY_REGISTRY)}")
    func, const = INEQUALITY_REGISTRY[name]
    rng = np.random.default_rng(seed)
    total = 0
    violations = 0
    worst = -math.inf
    per_dim = max(1, samples // len(dims))
    for n in dims:
        tau, lam, xi, eta = _draw_frequency_pairs(rng, per_dim, n)
        lhs, rhs, unit = func(tau, lam, xi, eta)
        scale = np.maximum(np.maximum(np.abs(rhs), 1e-3 * np.abs(unit)), 1e-300)
        margin = (lhs - rhs) / scale
        worst = max(worst, float(np.max(margin)))
        violations += int(np.sum(margin > 1e-9))
        total += len(lhs)
    return ViolationReport(name=name, samples=total, violations=violations,
                           worst_margin=worst, constant=const)
