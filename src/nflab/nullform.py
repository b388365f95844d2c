"""Bilinear null forms, frequency-kernel operators, and symbol inequalities.

Two computation routes exist side by side:

* derivative-product route (q0, qij, qtilde, plain product): unary multipliers
  followed by physical-space multiplication with 3/2 dealiasing;
* kernel route (ralpha, splus, sminus): one sum over pairs of occupied spatial
  columns, the kernel evaluated once per pair; each pair names its output column
  once, and a column's terms are added in (a, b) order.  Sums outside the band are
  dropped; the scaling matches the product route, so both compare mode by mode.

Kernels on spatial frequency pairs (a, b):

    splus   (|a| + |b| - |a+b|)^alpha          = Delta_+(a,b)^alpha
    sminus  (|a+b| - ||a| - |b||)^alpha        = Delta_-(a,b)^alpha

and on space-time pairs ((tau,a), (lam,b)):

    ralpha  Delta_+(a,b)^alpha  if (tau >= 0) == (lam >= 0),   Delta_-(a,b)^alpha  else

so tau = 0 sides with tau > 0, as in propagate.pm_decompose.  All three convolve time on
the 3/2 lattice, so their tau-sums on spacetime fields do not wrap around the band.
Delta_+- read one pair geometry (_geometry), and the gap |a||b| -+ a.b that would cancel
is rewritten through |a ^ b|^2 in one helper (_gap); the probe's kernels read both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (SPACETIME, FrequencyPoint, Grid, SpectralField, _cropped, _fine_shape,
                      _measure, dealiased_product, field_from_fine_samples, planned_pads, pmap,
                      symbol_image)
# bound here as well: perfbench/tracer.py wraps fine_samples in every module that binds it
from .lattice import fine_samples  # noqa: F401
from .multiplier import weight

FORMS = ("q0", "qij", "qtilde", "ralpha", "splus", "sminus", "product")

_OCCUPIED_REL_TOL = 1e-14
_DRAW_ROWS = 1 << 15  # rows of a seeded draw per block: each temporary stays under 1 MB
_FUZZ_DIMS = (2, 3)  # the spatial dimensions n of the fuzz draw, each an equal share


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
# one frequency-pair geometry and stable Delta_{+/-} evaluation
#
# Delta_+ = |a| + |b| - |a+b| cancels catastrophically for nearly parallel
# pairs, so it is rewritten through the wedge product:
#   |a||b| - a.b = |a ^ b|^2 / (|a||b| + a.b),
#   Delta_+ = 2 (|a||b| - a.b) / (|a| + |b| + |a+b|),
# and symmetrically for Delta_- (a.b negated).


def _wedge_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[-1] == 1:
        return np.zeros(a.shape[:-1])
    if a.shape[-1] != 3:
        return sum((a[..., i] * b[..., j] - a[..., j] * b[..., i]) ** 2
                   for i in range(a.shape[-1]) for j in range(i + 1, a.shape[-1]))
    cx = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    cy = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    cz = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return cx**2 + cy**2 + cz**2


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k a[..., k] b[..., k] added left to right: for n <= 3 the bits of np.sum(a * b, -1)
    without the reduction's overhead, except that a sum of -0.0 terms stays -0.0."""
    out = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        out += a[..., k] * b[..., k]
    return out


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(a, a))


def _geometry(a, b) -> tuple:
    """(|a|, |b|, |a+b|, a.b, |a ^ b|^2) of pairs a, b of shape (..., n), at least 2-D."""
    a, b = (np.atleast_2d(np.asarray(x, dtype=float)) for x in (a, b))
    return _norm(a), _norm(b), _norm(a + b), _dot(a, b), _wedge_sq(a, b)


def _gap(prod, dot, wedge_sq) -> np.ndarray:
    """prod - dot for prod = |a||b| and dot = a.b (or -a.b for |a||b| + a.b), evaluated
    stably: |a ^ b|^2 / (prod + dot) where dot > 0."""
    return np.where(dot > 0, wedge_sq / np.maximum(prod + dot, 1e-300), prod - dot)


def _delta_parts(na, nb, ns, dot, wedge_sq, plus: bool) -> np.ndarray:
    """Delta_+ (plus) or Delta_- from the geometry |a|, |b|, |a+b|, a.b and |a ^ b|^2."""
    prod = _gap(na * nb, dot if plus else -dot, wedge_sq)
    denom = np.maximum(na + nb + ns if plus else ns + np.abs(na - nb), 1e-300)
    return np.where(na + nb == 0.0, 0.0, 2.0 * prod / denom)


def delta_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a| + |b| - |a+b|, evaluated stably; inputs (..., n)."""
    return _delta_parts(*_geometry(a, b), True)


def delta_minus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a+b| - ||a| - |b||, evaluated stably; inputs (..., n)."""
    return _delta_parts(*_geometry(a, b), False)


def r_kernel(tau, a, lam, b) -> np.ndarray:
    """Two-branch kernel: Delta_+ where tau >= 0 and lam >= 0 agree, Delta_- where not."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    geo = _geometry(a, b)
    return np.where((tau >= 0) == (lam >= 0), _delta_parts(*geo, True), _delta_parts(*geo, False))


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


def combine_forms(grid: Grid, *combos) -> list:
    """Per combo (terms, n_out): the components sum_t w_t[I] F_t(u_t, v_t), I < n_out, of its
    terms (F_t, u_t, v_t, w_t), F_t a q0, qij or qtilde form.  One walk of `planned_pads` over
    every combo's images pads each image once; each group of each output is cropped once,
    when its last term is summed, and the crops are added in the order the groups first
    appear.  The outputs are real when all the combo's inputs are, and zero-mode-projected
    when one is or a term is qtilde."""
    pads = planned_pads([image for terms, _ in combos for spec, u, v, _ in terms
                         for _, prods in _groups(spec, grid.n)
                         for _, op_u, op_v in prods for image in ((u, op_u), (v, op_v))])
    outs = []
    for terms, n_out in combos:
        real = all(u.real_flag and v.real_flag for _, u, v, _ in terms)
        projected = any(spec.form == "qtilde" or u.zero_mode_projected or v.zero_mode_projected
                        for spec, u, v, _ in terms)
        last = {(int(I), outer): t for t, (spec, _, _, w) in enumerate(terms)
                for outer, _ in _groups(spec, grid.n) for I in np.flatnonzero(w)}
        acc = {}
        for t, (spec, u, v, w) in enumerate(terms):
            for outer, prods in _groups(spec, grid.n):
                P = 0
                for sign, op_u, op_v in prods:
                    # not `*`, which may reuse an image at its last use (a temporary) as the
                    # output with the operands swapped: complex products do not commute bitwise
                    Q = np.multiply(next(pads), next(pads))
                    P = np.add(P, Q, out=Q) if sign > 0 else np.subtract(P, Q, out=Q)
                for I in np.flatnonzero(w):
                    key = (int(I), outer)
                    acc[key] = w[I] * P if key not in acc else acc[key] + w[I] * P
                    if last[key] == t:
                        crop = field_from_fine_samples(grid, SPACETIME, acc[key], real)
                        acc[key] = symbol_image(crop, outer).coeffs
                del P, Q  # a finished group sum is let go before the next group pads
        out = [np.zeros(grid.spacetime_shape, dtype=complex) for _ in range(n_out)]
        for (I, _), c in acc.items():
            out[I] += c
        outs.append([SpectralField(grid=grid, kind=SPACETIME, coeffs=c, real_flag=real,
                                   zero_mode_projected=projected) for c in out])
    return outs


def _derivative_form(spec: BilinearFormSpec, u: SpectralField, v: SpectralField) -> SpectralField:
    [[out]] = combine_forms(u.grid, ([(spec, u, v, np.ones(1))], 1))
    return out


def _qtilde(u: SpectralField, v: SpectralField) -> SpectralField:
    return _derivative_form(BilinearFormSpec("qtilde"), u, v)


# ---------------------------------------------------------------------------
# kernel route: Delta_{+/-} depend on the spatial frequencies only and R^alpha
# on the sides of tau and lam, so each form is one sum over spatial column pairs


def occupied_modes(u: SpectralField):
    """Signed integer indices and coefficients of the occupied lattice modes."""
    idx, vals = _columns(u.coeffs[None])
    return idx, vals[0]


def _columns(X: np.ndarray):
    """Signed index rows (M, n) and samples (T, M) of the spatial columns of X (T, *spatial)
    with an entry above _OCCUPIED_REL_TOL times the largest; entries at or below it are zeroed."""
    flat = X.reshape(len(X), -1)
    mag = np.abs(flat)
    keep = mag > _OCCUPIED_REL_TOL * np.max(mag)
    cols = np.flatnonzero(keep.any(axis=0))
    vals = np.where(keep[:, cols], flat[:, cols], 0.0)
    shape = np.array(X.shape[1:])
    idx = np.array(np.unravel_index(cols, X.shape[1:])).T
    return np.where(idx >= shape // 2, idx - shape, idx), vals


def _pair_sum(spec: BilinearFormSpec, g: Grid, su, sv, U, V, opp=None):
    """Sorted flat output columns s and W[:, s] = sum_{a+b=s in band} K(a,b) U[:, a] V[:, b] over
    the time rows of U, V, a column's terms added in (a, b) order.  For R^alpha K = Delta_+^alpha,
    and opp = (U+, U-, V+, V-) adds (Delta_-^alpha - Delta_+^alpha)(a,b) (U+[:, a] V-[:, b] +
    U-[:, a] V+[:, b])."""
    N = g.N_x
    a, b = su[:, None] * (2 * math.pi / g.L_per), sv[None] * (2 * math.pi / g.L_per)
    ker = (delta_minus if spec.form == "sminus" else delta_plus)(a, b) ** spec.alpha
    if opp is not None:
        up, um, vp, vm = opp
        dker = delta_minus(a, b) ** spec.alpha - ker
    s = su[:, None] + sv[None]
    inband = np.flatnonzero(np.all((s >= -(N // 2)) & (s < N // 2), axis=-1))
    target = np.ravel_multi_index(tuple(s.reshape(-1, g.n).T), g.spatial_shape, mode="wrap")
    # numpy's stable sort of integers of 16 bits or fewer is a radix sort
    order = inband[np.argsort(target[inband].astype(np.min_scalar_type(N ** g.n)), kind="stable")]
    starts = np.flatnonzero(np.diff(target[order], prepend=-1))
    cols = target[order[starts]]
    W = np.empty((len(U), len(cols)), dtype=complex)
    # products and sums in blocks of time rows, so the temporaries stay in cache
    rows = max(1, 2**13 // max(1, ker.size))

    def block(lo):  # each block writes its own rows of W, on the pool
        blk = slice(lo, lo + rows)
        G = U[blk, :, None] * V[blk, None, :]
        G *= ker
        if opp is not None:
            O = up[blk, :, None] * vm[blk, None, :]
            O += um[blk, :, None] * vp[blk, None, :]
            O *= dker
            G += O
        W[blk] = np.add.reduceat(G.reshape(len(G), -1)[:, order], starts, axis=1)
    pmap(block, range(0, len(U), rows))
    return cols, W


def _time_sign_parts(u: SpectralField, M: int):
    """Occupied columns of u and their samples U, U+, U- (tau>=0, tau<0 parts) on M time points."""
    su, A = _columns(u.coeffs)
    h = len(A) // 2
    P = np.zeros((2, M, A.shape[1]), dtype=complex)
    P[0, :h], P[1, M - h:] = A[:h], A[h:]
    plus, minus = np.fft.ifft(P, axis=1, norm="forward")
    return su, plus + minus, plus, minus


def _kernel_form(spec: BilinearFormSpec, u: SpectralField, v: SpectralField) -> SpectralField:
    g = u.grid
    if u.kind == SPACETIME:
        M = _fine_shape((g.N_t,), 1.5)[0]
        (su, U, up, um), (sv, V, vp, vm) = _time_sign_parts(u, M), _time_sign_parts(v, M)
        opp = (up, um, vp, vm) if spec.form == "ralpha" else None
        cols, W = _pair_sum(spec, g, su, sv, U, V, opp)
        W = _cropped(np.fft.fft(W, axis=0, norm="forward"), 0, g.N_t)
    else:
        (su, U), (sv, V) = _columns(u.coeffs[None]), _columns(v.coeffs[None])
        cols, W = _pair_sum(spec, g, su, sv, U, V)
    out = np.zeros((len(W), math.prod(g.spatial_shape)), dtype=complex)
    out[:, cols] = W / math.sqrt(_measure(g, u.kind))
    return u.copy_with(out.reshape(g.shape_for(u.kind)), real_flag=u.real_flag and v.real_flag,
                       zero_mode_projected=u.zero_mode_projected or v.zero_mode_projected)


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
    if spec.form == "ralpha" and u.kind != SPACETIME:
        raise ValueError("ralpha needs spacetime fields")
    return _kernel_form(spec, u, v)


# ---------------------------------------------------------------------------
# pointwise symbol-inequality suite
#
# Every entry states a proven inequality with the explicit constant produced
# by its proof, so a correct implementation sees zero violations; the fuzz
# margin is measured against the inequality's natural magnitude to keep
# cancellation noise from registering as a failure.  One draw per seed,
# frequency_pairs, is read-only and shared by every inequality checked on it.


@dataclass
class ViolationReport:
    name: str
    samples: int
    violations: int
    worst_margin: float
    constant: float


def _hyp(tau, xi):
    return weight("d_minus", 1.0, tau, _norm(xi))


def _euclid(tau, xi):
    return np.sqrt(tau**2 + _dot(xi, xi))


def _ineq_delta(tau, lam, xi, eta):
    na, nb, ns, dot, w = _geometry(xi, eta)
    mn = np.minimum(na, nb)
    prod = np.maximum(na * nb, 1e-300)
    m_minus, m_plus = _gap(prod, dot, w), _gap(prod, -dot, w)
    lhs = np.concatenate([mn * m_plus / prod, mn * m_minus / prod])
    rhs = np.concatenate([2.0 * _delta_parts(na, nb, ns, dot, w, False),
                          2.0 * _delta_parts(na, nb, ns, dot, w, True)])
    unit = np.concatenate([mn, mn])
    return lhs, rhs, unit


def _ineq_hyperbolic_triangle(tau, lam, xi, eta):
    lhs = _hyp(tau + lam, xi + eta)
    rhs = _hyp(tau, xi) + _hyp(lam, eta) + r_kernel(tau, xi, lam, eta)
    unit = np.abs(tau) + np.abs(lam) + _norm(xi) + _norm(eta)
    return lhs, rhs, unit


def _ineq_q0(tau, lam, xi, eta):
    inner = -tau * lam + _dot(xi, eta)
    lhs = np.abs(inner)
    A = np.abs(_norm(xi + eta) ** 2 - (tau + lam) ** 2)
    B = np.abs(_norm(xi) ** 2 - tau**2)
    C = np.abs(_norm(eta) ** 2 - lam**2)
    rhs = (0.5 * (A + B + C)) ** 0.5 * (_euclid(tau, xi) * _euclid(lam, eta)) ** 0.5
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
    lhs = weight("lambda", 1.0, None, _norm(xi + eta))
    rhs = weight("lambda", 1.0, None, _norm(xi)) + weight("lambda", 1.0, None, _norm(eta))
    unit = 1.0 + _norm(xi) + _norm(eta)
    return lhs, rhs, unit


def _ineq_wedge(tau, lam, xi, eta):
    w = np.sqrt(_wedge_sq(xi, eta))
    na, nb, ns = _norm(xi), _norm(eta), _norm(xi + eta)
    lhs = np.concatenate([w, w, w])
    rhs = np.concatenate([na * nb, na * ns, ns * nb])
    unit = np.concatenate([na * nb, na * nb, na * nb])
    return lhs, rhs, unit


def _ineq_lambda_minus_trivial(tau, lam, xi, eta):
    lhs = weight("lambda_minus", 1.0, tau + lam, _norm(xi + eta))
    rhs = (2.0 * weight("lambda_plus", 1.0, tau, _norm(xi))
           * weight("lambda_plus", 1.0, lam, _norm(eta)))
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


def frequency_pairs(samples: int, seed: int) -> list:
    """The fuzz draw: per n in _FUZZ_DIMS, samples // len(_FUZZ_DIMS) (at least 1) read-only
    pairs (tau, lam, xi, eta) with xi, eta of shape (m, n), all from one default_rng(seed)."""
    if not samples >= 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    rng = np.random.default_rng(seed)
    draws = [_draw_frequency_pairs(rng, max(1, samples // len(_FUZZ_DIMS)), n) for n in _FUZZ_DIMS]
    for x in (x for d in draws for x in d):
        x.setflags(write=False)
    return draws


def check_symbol_inequality(name: str, pairs) -> ViolationReport:
    """Fuzz a registered pointwise inequality on a draw of frequency_pairs; slack is 1e-9 of
    its natural scale."""
    if name not in INEQUALITY_REGISTRY:
        raise KeyError(f"unknown inequality {name!r}; known: {sorted(INEQUALITY_REGISTRY)}")
    func, const = INEQUALITY_REGISTRY[name]
    total = 0
    violations = 0
    worst = -math.inf
    for tau, lam, xi, eta in pairs:  # in row blocks: every inequality is elementwise per row
        for r in range(0, len(tau), _DRAW_ROWS):
            lhs, rhs, unit = func(*(x[r:r + _DRAW_ROWS] for x in (tau, lam, xi, eta)))
            scale = np.maximum(np.maximum(np.abs(rhs), 1e-3 * np.abs(unit)), 1e-300)
            margin = (lhs - rhs) / scale
            worst = max(worst, float(np.max(margin)))
            violations += int(np.sum(margin > 1e-9))
            total += len(lhs)
    return ViolationReport(name=name, samples=total, violations=violations,
                           worst_margin=worst, constant=const)
