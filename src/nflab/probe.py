"""Sharpness laboratory: worst-case ratios, Schur certificates, counterexamples.

Three kinds of evidence are produced, none of which claims a proof:

* probe_embedding measures sup ratios of a bilinear (or unary) estimate over
  seeded ensembles and reports a fixed-rule verdict;
* schur_bound evaluates the boundedness certificate sup_xi int K^2 d(eta) in
  polar coordinates with a graded angular mesh, monotone in the truncation
  and in the angular refinement by construction;
* counterexample_norms integrates the slab/shell indicator family over its
  explicit sets by product quadrature, for scaling-law regression in the
  family scale L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .lattice import (SPACETIME, Grid, SpectralField, modified_mixed_norm,
                      random_field)
from .multiplier import SpaceIndex, ws_norm
from .nullform import BilinearFormSpec, apply_form, delta_minus, delta_plus

TWO_PI = 2.0 * math.pi

GROWTH_SLOPE = 0.1
GROWTH_RESIDUAL = 0.05
DRIFT_LIMIT = 0.20


# ---------------------------------------------------------------------------
# scaling fits


@dataclass
class FitResult:
    slope: float
    intercept: float
    residual: float


def scaling_fit(points) -> FitResult:
    """Ordinary least squares on (log scale, log value)."""
    pts = [(float(a), float(b)) for a, b in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points for a scaling fit")
    if any(b <= 0 or a <= 0 for a, b in pts):
        raise ValueError("scales and values must be positive")
    x = np.log([a for a, _ in pts])
    y = np.log([b for _, b in pts])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    return FitResult(slope=float(coef[0]), intercept=float(coef[1]),
                     residual=float(np.sqrt(np.mean(resid**2))))


# ---------------------------------------------------------------------------
# embedding probes


@dataclass
class EmbeddingSpec:
    """Estimate target(B(u,v)) <= C source_l(u) source_r(v); form None = product.

    With unary=True the right factor is dropped and the probe measures
    target(u) / source_l(u) (linear embeddings).
    """

    left: SpaceIndex
    right: SpaceIndex
    target: SpaceIndex
    n: int
    form: BilinearFormSpec | None = None
    target_mixed: tuple | None = None  # (q, r): use the modified-norm upper surrogate
    unary: bool = False


@dataclass
class ProbeReport:
    sup_ratio: float
    witness: int
    ensemble: str
    refinement_drift: float | None
    verdict: str
    slope: float | None = None
    residual: float | None = None
    scales: list = field(default_factory=list)
    values: list = field(default_factory=list)
    excluded: int = 0


def embedding_ratio(spec: EmbeddingSpec, u: SpectralField, v: SpectralField | None) -> float | None:
    """Single-sample ratio; None when a source norm vanishes (0/0 guard)."""
    denom = ws_norm(u, spec.left)
    if not spec.unary:
        denom *= ws_norm(v, spec.right)
    if denom == 0.0:
        return None
    if spec.unary:
        B = u
    elif spec.form is None:
        B = apply_form(BilinearFormSpec("product"), u, v)
    else:
        B = apply_form(spec.form, u, v)
    if spec.target_mixed is not None:
        q, r = spec.target_mixed
        num = modified_mixed_norm(B, q, r, "upper")
    else:
        num = ws_norm(B, spec.target)
    return num / denom


def _cone_concentrated(grid: Grid, seed: int, modes: int = 40) -> SpectralField:
    """Spectrum within O(1) of the light cone, heavy-tailed radial law."""
    rng = np.random.default_rng(seed)
    c = np.zeros(grid.spacetime_shape, dtype=complex)
    kt_max = grid.N_t // 2 - 1
    kx_max = grid.N_x // 2 - 1
    dtau = TWO_PI / grid.T_per
    for _ in range(modes):
        u = rng.uniform()
        radius = min(kx_max, max(1.0, (1.0 - u) ** (-0.75)))
        direction = rng.standard_normal(grid.n)
        direction /= max(np.linalg.norm(direction), 1e-12)
        k_xi = np.rint(radius * direction).astype(int)
        k_xi = np.clip(k_xi, -kx_max, kx_max)
        xi = k_xi * (TWO_PI / grid.L_per)
        sgn = rng.choice([-1.0, 1.0])
        tau_target = sgn * np.linalg.norm(xi) + rng.uniform(-1.0, 1.0)
        k_t = int(np.clip(np.rint(tau_target / dtau), -kt_max, kt_max))
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        pos = (k_t % grid.N_t,) + tuple(k % grid.N_x for k in k_xi)
        c[pos] += amp
    return SpectralField(grid=grid, kind=SPACETIME, coeffs=c)


def _draw_pair(grid: Grid, ensemble: str, seed: int):
    if ensemble == "random-gaussian":
        u = random_field(grid, SPACETIME, seed, max_freq=grid.N_x // 4, real=False)
        v = random_field(grid, SPACETIME, seed + 7_000_003, max_freq=grid.N_x // 4, real=False)
        return u, v
    if ensemble == "cone-concentrated":
        return _cone_concentrated(grid, seed), _cone_concentrated(grid, seed + 7_000_003)
    raise ValueError(f"unknown ensemble {ensemble!r}")


def _sup_ratio(spec: EmbeddingSpec, grid: Grid, ensemble: str, trials: int, seed: int):
    best, witness, excluded = 0.0, -1, 0
    for k in range(trials):
        u, v = _draw_pair(grid, ensemble, seed + 1000 * k)
        r = embedding_ratio(spec, u, v)
        if r is None:
            excluded += 1
            continue
        if r > best:
            best, witness = r, k
    return best, witness, excluded


def probe_embedding(spec: EmbeddingSpec, ensemble: str, trials: int, grid: Grid | None,
                    seed: int = 0, scales=None, refine: bool = True) -> ProbeReport:
    """Worst-case ratio study; verdict per the fixed slope/drift rules."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if ensemble == "counterexample-family":
        if scales is None:
            scales = [4, 6, 8, 12]
        vals = [counterexample_lattice_ratio(spec, L) for L in scales]
        fit = scaling_fit(list(zip(scales, vals)))
        growth = fit.slope > GROWTH_SLOPE and fit.residual < GROWTH_RESIDUAL
        k = int(np.argmax(vals))
        return ProbeReport(sup_ratio=float(max(vals)), witness=k, ensemble=ensemble,
                           refinement_drift=None,
                           verdict="growth-detected" if growth else "inconclusive",
                           slope=fit.slope, residual=fit.residual,
                           scales=list(scales), values=[float(v) for v in vals])
    if grid is None:
        raise ValueError("lattice ensembles need a grid")
    sup1, witness, excluded = _sup_ratio(spec, grid, ensemble, trials, seed)
    drift = None
    if refine:
        sup2, _, _ = _sup_ratio(spec, grid.refined(), ensemble, trials, seed)
        drift = abs(sup2 - sup1) / max(sup1, 1e-300)
    if sup1 == 0.0:
        verdict = "inconclusive"
    elif drift is not None and drift <= DRIFT_LIMIT:
        verdict = "bounded-consistent"
    else:
        verdict = "inconclusive"
    return ProbeReport(sup_ratio=sup1, witness=witness, ensemble=ensemble,
                       refinement_drift=drift, verdict=verdict, excluded=excluded)


# ---------------------------------------------------------------------------
# lattice counterexample family (indicator spectra of the slab/shell sets)


def _lattice_set_A(L: float, n: int):
    """Integer points of |lam - eta_1| <= 1, L/2 <= eta_1 <= L, L/2 <= |eta'| <= L."""
    eta1 = np.arange(math.ceil(L / 2.0), math.floor(L) + 1)
    prim_rng = np.arange(-math.floor(L), math.floor(L) + 1)
    grids = np.meshgrid(*([prim_rng] * (n - 1)), indexing="ij")
    prim = np.stack([g.ravel() for g in grids], axis=-1)
    pn = np.linalg.norm(prim, axis=-1)
    prim = prim[(pn >= L / 2.0) & (pn <= L)]
    rows = []
    for e1 in eta1:
        for lam in (e1 - 1, e1, e1 + 1):
            block = np.concatenate([np.full((len(prim), 1), lam),
                                    np.full((len(prim), 1), e1), prim], axis=1)
            rows.append(block)
    return np.concatenate(rows, axis=0).astype(int)


def _lattice_set_B(L: float, n: int):
    """Integer points of |tau - |xi|| <= 8, L^2/2 <= xi_1 <= 4 L^2, |xi'| <= 2L."""
    xi1 = np.arange(math.ceil(L * L / 2.0), math.floor(4 * L * L) + 1)
    prim_rng = np.arange(-math.floor(2 * L), math.floor(2 * L) + 1)
    grids = np.meshgrid(*([prim_rng] * (n - 1)), indexing="ij")
    prim = np.stack([g.ravel() for g in grids], axis=-1)
    pn = np.linalg.norm(prim, axis=-1)
    prim = prim[pn <= 2 * L]
    rows = []
    for x1 in xi1:
        r = np.sqrt(x1**2 + np.sum(prim**2, axis=-1))
        for off in range(-8, 9):
            tau = np.rint(r).astype(int) + off
            keep = np.abs(tau - r) <= 8
            if not np.any(keep):
                continue
            block = np.concatenate([tau[keep, None],
                                    np.full((int(keep.sum()), 1), x1),
                                    prim[keep]], axis=1)
            rows.append(block)
    return np.concatenate(rows, axis=0).astype(int)


def _sparse_ws_norm(points: np.ndarray, idx: SpaceIndex) -> float:
    """H^{s,theta} weight sum over unit-coefficient integer modes."""
    tau = points[:, 0].astype(float)
    xi = points[:, 1:].astype(float)
    ax = np.linalg.norm(xi, axis=-1)
    lam = (1.0 + ax**2) ** (idx.s / 2.0)
    e2 = tau**2 + ax**2
    q = ax**2 - tau**2
    lam_m = (1.0 + q * q / (1.0 + e2)) ** (idx.theta / 2.0)
    return float(np.sqrt(np.sum((lam * lam_m) ** 2)))


def counterexample_lattice_ratio(spec: EmbeddingSpec, L: float) -> float:
    """Plain-product estimate ratio for indicator spectra of A and B at scale L.

    The convolution is computed exactly via FFT on the index bounding box;
    the ratio is 0-homogeneous so the unit-coefficient normalization is
    immaterial.
    """
    n = spec.n
    if n < 2:
        raise ValueError("counterexample family needs n >= 2")
    A = _lattice_set_A(L, n)
    B = _lattice_set_B(L, n)
    lo = A.min(axis=0) + B.min(axis=0)
    hi = A.max(axis=0) + B.max(axis=0)
    shape_A = A.max(axis=0) - A.min(axis=0) + 1
    shape_B = B.max(axis=0) - B.min(axis=0) + 1
    full = tuple(int(a + b - 1) for a, b in zip(shape_A, shape_B))
    boxA = np.zeros(tuple(shape_A), dtype=float)
    boxA[tuple((A - A.min(axis=0)).T)] = 1.0
    boxB = np.zeros(tuple(shape_B), dtype=float)
    boxB[tuple((B - B.min(axis=0)).T)] = 1.0
    axes = tuple(range(len(full)))
    fa = np.fft.rfftn(boxA, full, axes=axes)
    fb = np.fft.rfftn(boxB, full, axes=axes)
    conv = np.fft.irfftn(fa * fb, full, axes=axes)
    conv[conv < 1e-9] = 0.0
    occ = np.argwhere(conv > 0)
    pts = occ + lo
    vals = conv[tuple(occ.T)]
    tau = pts[:, 0].astype(float)
    xi = pts[:, 1:].astype(float)
    ax = np.linalg.norm(xi, axis=-1)
    lam = (1.0 + ax**2) ** (spec.target.s / 2.0)
    e2 = tau**2 + ax**2
    q = ax**2 - tau**2
    lam_m = (1.0 + q * q / (1.0 + e2)) ** (spec.target.theta / 2.0)
    num = float(np.sqrt(np.sum((lam * lam_m * vals) ** 2)))
    return num / (_sparse_ws_norm(A, spec.left) * _sparse_ws_norm(B, spec.right))


# ---------------------------------------------------------------------------
# Schur certificate


@dataclass(frozen=True)
class KernelSpec:
    """Weights 1/(w_a(xi) w_b(eta) w_c(Delta)) with Delta_+ or Delta_-.

    variant "homogeneous": |xi|^-a |eta|^-b Delta^-c  (scale-invariant form)
    variant "inhomogeneous": (1+|xi|)^-a (1+|eta|)^-b (1 + Delta)^-c
    """

    a: float
    b: float
    c: float
    sign: str = "plus"
    variant: str = "inhomogeneous"
    n: int = 3

    def __post_init__(self):
        if self.a < 0 or self.b < 0 or self.c < 0:
            raise ValueError("kernel exponents must be nonnegative")
        if self.sign not in ("plus", "minus"):
            raise ValueError("sign must be 'plus' or 'minus'")
        if self.variant not in ("homogeneous", "inhomogeneous"):
            raise ValueError("variant must be 'homogeneous' or 'inhomogeneous'")


def kernel_eval(k: KernelSpec, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """K(xi, eta) on arrays of shape (..., n)."""
    nx = np.sqrt(np.sum(np.atleast_2d(xi) ** 2, axis=-1))
    ne = np.sqrt(np.sum(np.atleast_2d(eta) ** 2, axis=-1))
    delta = delta_plus(xi, eta) if k.sign == "plus" else delta_minus(xi, eta)
    if k.variant == "homogeneous":
        num = np.where(nx > 0, np.where(nx > 0, nx, 1.0) ** (-k.a), np.inf if k.a > 0 else 1.0)
        num = num * np.where(ne > 0, np.where(ne > 0, ne, 1.0) ** (-k.b), np.inf if k.b > 0 else 1.0)
        dz = delta <= 0
        dfac = np.where(dz, np.inf if k.c > 0 else 1.0, np.where(dz, 1.0, delta) ** (-k.c))
        return num * dfac
    return (1.0 + nx) ** (-k.a) * (1.0 + ne) ** (-k.b) * (1.0 + delta) ** (-k.c)


_GAUSS_N = 8
_ANGLE_GRADE = 4
_RADIAL_LEVELS = 44


def _sphere_area(d: int) -> float:
    """Surface measure of S^d."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def _theta_bricks(theta_min: float):
    bricks = []
    edge = math.pi / 2.0
    while edge / 2.0 >= theta_min:
        bricks.append((edge / 2.0, edge))
        bricks.append((math.pi - edge, math.pi - edge / 2.0))
        edge /= 2.0
    return bricks


def _schur_single(k: KernelSpec, xi_mag: float, theta_min: float) -> float:
    """int over |eta| <= |xi|, theta in (theta_min, pi - theta_min) of K^2 d(eta)."""
    n = k.n
    sigma = _sphere_area(n - 2) if n >= 2 else 1.0
    gx, gw = leggauss(_GAUSS_N)
    bricks = _theta_bricks(theta_min)
    t_lo = np.array([b[0] for b in bricks])
    t_hi = np.array([b[1] for b in bricks])
    r_hi = xi_mag * 2.0 ** (-np.arange(_RADIAL_LEVELS, dtype=float))
    r_lo = r_hi / 2.0

    # Gauss nodes per radial brick (nr, G) and per angular brick (nt, G)
    rg = 0.5 * (r_hi + r_lo)[:, None] + 0.5 * (r_hi - r_lo)[:, None] * gx[None, :]
    rw = 0.5 * (r_hi - r_lo)[:, None] * gw[None, :]
    tg = 0.5 * (t_hi + t_lo)[:, None] + 0.5 * (t_hi - t_lo)[:, None] * gx[None, :]
    tw = 0.5 * (t_hi - t_lo)[:, None] * gw[None, :]

    R = rg.reshape(-1)[:, None]
    WR = rw.reshape(-1)[:, None]
    T = tg.reshape(-1)[None, :]
    WT = tw.reshape(-1)[None, :]
    xi = np.zeros((R.shape[0], T.shape[1], n))
    xi[..., 0] = xi_mag
    eta = np.zeros_like(xi)
    eta[..., 0] = R * np.cos(T)
    if n >= 2:
        eta[..., 1] = R * np.sin(T)
    K = kernel_eval(k, xi, eta)
    jac = R ** (n - 1) * (np.sin(T) ** (n - 2) if n >= 2 else 1.0) * sigma
    return float(np.sum(K**2 * jac * WR * WT))


def schur_bound(k: KernelSpec, R: float, h: float) -> float:
    """sup over dyadic |xi| in [1, R] of the truncated polar integral of K^2.

    The eta integral runs over |eta| <= |xi| (the proof's region split; the
    complementary region is the same bound with the roles of a and b swapped).
    The angular mesh excludes a window theta < pi (h/pi)^4 around the singular
    directions; both the xi samples and the angular bricks are nested under
    R-doubling and h-halving, so the value is exactly monotone in R and 1/h.
    """
    if R < 1.0 or h <= 0:
        raise ValueError("need truncation R >= 1 and angular step h > 0")
    theta_min = math.pi * (min(h, math.pi) / math.pi) ** _ANGLE_GRADE
    best = 0.0
    mag = 1.0
    while mag <= R * (1.0 + 1e-12):
        best = max(best, _schur_single(k, mag, theta_min))
        mag *= 2.0
    return best


def trilinear_form(k: KernelSpec, f: dict, g: dict, h: dict, spacing: float = 1.0) -> float:
    """Lattice double sum of K(xi,eta) f(xi) g(eta) h(xi+eta).

    Spectra are mappings from integer index tuples to nonnegative weights;
    `spacing` scales indices to frequencies and supplies the measure factor
    spacing^(2n).
    """
    for name, spec in (("f", f), ("g", g), ("h", h)):
        if any(v < 0 for v in spec.values()):
            raise ValueError(f"{name} must be nonnegative")
    if not f or not g or not h:
        return 0.0
    fi = np.array(list(f.keys()), dtype=float)
    fv = np.array(list(f.values()))
    gi = np.array(list(g.keys()), dtype=float)
    gv = np.array(list(g.values()))
    n = fi.shape[1]
    total = 0.0
    for row, fval in zip(fi, fv):
        xi = np.broadcast_to(row, gi.shape) * spacing
        K = kernel_eval(k, xi, gi * spacing)
        sums = row + gi
        hv = np.array([h.get(tuple(int(round(x)) for x in s), 0.0) for s in sums])
        total += float(np.sum(K * fval * gv * hv))
    return total * spacing ** (2 * n)


def discrete_schur_constant(k: KernelSpec, f: dict, g: dict, h: dict,
                            spacing: float = 1.0) -> float:
    """max over supp f of sum over interacting eta of K^2 (Cauchy-Schwarz certificate)."""
    gi = np.array(list(g.keys()), dtype=float)
    best = 0.0
    for row in f.keys():
        xi = np.broadcast_to(np.array(row, dtype=float), gi.shape) * spacing
        K = kernel_eval(k, xi, gi * spacing)
        mask = np.array([tuple(int(a + b) for a, b in zip(row, e)) in h for e in gi])
        best = max(best, float(np.sum((K[mask]) ** 2)) * spacing ** k.n)
    return best


# ---------------------------------------------------------------------------
# continuum counterexample family (slab/shell indicator spectra)


@dataclass(frozen=True)
class CounterexampleParams:
    L: float
    s: float
    theta: float
    n: int = 3
    j: int = 2

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("counterexample needs n >= 2")
        if self.L < 4:
            raise ValueError("scale L must be at least 4")
        if not (2 <= self.j <= self.n):
            raise ValueError("second null-form axis must satisfy 2 <= j <= n")


@dataclass
class CounterexampleRecord:
    L: float
    norm_u: float
    norm_v: float
    lhs_lower: float
    ratio: float
    measure_A: float
    measure_C: float


_CE_GAUSS = 32


def _gauss_nodes(lo, hi, m=_CE_GAUSS):
    x, w = leggauss(m)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def _cal_weight(tau, abs_xi, euclid, s, theta):
    """Scale-homogeneous representative |xi|^(s-1) |Xi| (||tau|-|xi||)^theta
    of the second-order wave-Sobolev weight.

    The family sets live at |xi| >= L/2 >= 2, where this representative is
    equivalent to the inhomogeneous weight within fixed constants; using it
    keeps desk-scale log-log fits on the asymptotic exponent.
    """
    hyp = np.abs(np.abs(tau) - abs_xi)
    return abs_xi ** (s - 1.0) * euclid * hyp**theta


def counterexample_norms(p: CounterexampleParams) -> CounterexampleRecord:
    """Direct quadrature of the family norms over the explicit sets.

    norm_u, norm_v: weighted L^2 masses of the indicator spectra over the
    slab set A and the shell set B.  lhs_lower: the lower bound for the
    null-form output carried on the core set C, i.e. the C-integral of
    [(1+|xi|)^(s-1) (1+||tau|-|xi||)^(theta-1) * qsym * |A|]^2, where qsym is
    the null-symbol magnitude at the representative center of A (the ~L^2
    factor).  ratio = lhs_lower / (norm_u norm_v).
    """
    L, s, th, n = p.L, p.s, p.theta, p.n
    sigma = _sphere_area(n - 2) if n >= 2 else 2.0

    # --- A: eta_1 in [L/2, L], rho = |eta'| in [L/2, L], lam in [eta1-1, eta1+1]
    e1, we1 = _gauss_nodes(L / 2.0, L)
    rho, wrho = _gauss_nodes(L / 2.0, L)
    lam_off, wlam = _gauss_nodes(-1.0, 1.0)
    E1, RHO, OFF = np.meshgrid(e1, rho, lam_off, indexing="ij")
    WA = we1[:, None, None] * wrho[None, :, None] * wlam[None, None, :]
    LAM = E1 + OFF
    abs_eta = np.sqrt(E1**2 + RHO**2)
    euclid = np.sqrt(LAM**2 + abs_eta**2)
    surf = sigma * RHO ** (n - 2)
    w_u = _cal_weight(LAM, abs_eta, euclid, s, th)
    norm_u = math.sqrt(float(np.sum(w_u**2 * surf * WA)))
    measure_A = float(np.sum(surf * WA))

    # --- B: xi_1 in [L^2/2, 4 L^2], rho' = |xi'| <= 2L, tau in [|xi|-8, |xi|+8]
    def shell_norm_sq(x_lo, x_hi, rho_hi, tau_half, weight_fn):
        x1, wx1 = _gauss_nodes(x_lo, x_hi)
        rp, wrp = _gauss_nodes(0.0, rho_hi)
        val = 0.0
        meas = 0.0
        X1, RP = np.meshgrid(x1, rp, indexing="ij")
        WXR = np.outer(wx1, wrp)
        abs_xi = np.sqrt(X1**2 + RP**2)
        surf_x = sigma * RP ** (n - 2)
        # split the tau panel at tau = |xi| so the |tau - |xi|| kink is resolved
        off_lo, w_lo = _gauss_nodes(-tau_half, 0.0)
        off_hi, w_hi = _gauss_nodes(0.0, tau_half)
        for offs, wts in ((off_lo, w_lo), (off_hi, w_hi)):
            for o, w in zip(offs, wts):
                tau = abs_xi + o
                euc = np.sqrt(tau**2 + abs_xi**2)
                f = weight_fn(tau, abs_xi, euc)
                val += float(np.sum(f**2 * surf_x * WXR)) * w
                meas += float(np.sum(surf_x * WXR)) * w
        return val, meas

    val_v, _ = shell_norm_sq(L * L / 2.0, 4.0 * L * L, 2.0 * L, 8.0,
                             lambda tau, ax, euc: _cal_weight(tau, ax, euc, s, th))
    norm_v = math.sqrt(val_v)

    # --- C with the product-lower-bound integrand; the null symbol
    # (eta_j xi_1 - eta_1 xi_j)/|eta| is evaluated at the center of A with
    # |xi_j| replaced by its maximum rho' (a genuine lower bound, ~ L^2)
    eta_center = np.zeros(n)
    eta_center[0] = 0.75 * L
    eta_center[p.j - 1] = 0.75 * L
    ec_norm = float(np.linalg.norm(eta_center))
    x1, wx1 = _gauss_nodes(L * L, 2.0 * L * L)
    rp, wrp = _gauss_nodes(0.0, L)
    X1, RP = np.meshgrid(x1, rp, indexing="ij")
    WXR = np.outer(wx1, wrp)
    abs_xi = np.sqrt(X1**2 + RP**2)
    surf_x = sigma * RP ** (n - 2)
    qsym = (0.75 * L * X1 - 0.75 * L * RP) / ec_norm
    qsym = np.maximum(qsym, 0.0)
    val_c = 0.0
    measure_C = 0.0
    off_lo, w_lo = _gauss_nodes(-1.0, 0.0)
    off_hi, w_hi = _gauss_nodes(0.0, 1.0)
    for offs, wts in ((off_lo, w_lo), (off_hi, w_hi)):
        for o, w in zip(offs, wts):
            tau = abs_xi + o
            hyp = abs(o)
            f = abs_xi ** (s - 1.0) * hyp ** (th - 1.0) * qsym * measure_A
            val_c += float(np.sum(f**2 * surf_x * WXR)) * w
            measure_C += float(np.sum(surf_x * WXR)) * w
    lhs_lower = math.sqrt(val_c)
    return CounterexampleRecord(L=L, norm_u=norm_u, norm_v=norm_v,
                                lhs_lower=lhs_lower,
                                ratio=lhs_lower / (norm_u * norm_v),
                                measure_A=measure_A, measure_C=float(measure_C))


def membership_check(p: CounterexampleParams, samples: int, seed: int = 0) -> int:
    """Count failures of (Theta in A, Xi in C) => Xi - Theta in B."""
    rng = np.random.default_rng(seed)
    n, L = p.n, p.L
    m = samples
    # Theta = (lam, eta) uniform in A
    eta1 = rng.uniform(L / 2.0, L, m)
    lam = eta1 + rng.uniform(-1.0, 1.0, m)
    rho = rng.uniform(L / 2.0, L, m)
    dirs = rng.standard_normal((m, n - 1))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
    eta_prim = rho[:, None] * dirs
    # Xi = (tau, xi) uniform in C
    xi1 = rng.uniform(L * L, 2.0 * L * L, m)
    rhop = rng.uniform(0.0, L, m)
    dirs2 = rng.standard_normal((m, n - 1))
    dirs2 /= np.maximum(np.linalg.norm(dirs2, axis=1, keepdims=True), 1e-12)
    xi_prim = rhop[:, None] * dirs2
    abs_xi = np.sqrt(xi1**2 + rhop**2)
    tau = abs_xi + rng.uniform(-1.0, 1.0, m)

    d1 = xi1 - eta1
    dprim = xi_prim - eta_prim
    dtau = tau - lam
    abs_d = np.sqrt(d1**2 + np.sum(dprim**2, axis=1))
    ok = (np.abs(dtau - abs_d) <= 8.0 + 1e-9)
    ok &= (d1 >= L * L / 2.0 - 1e-9) & (d1 <= 4.0 * L * L + 1e-9)
    ok &= np.sqrt(np.sum(dprim**2, axis=1)) <= 2.0 * L + 1e-9
    return int(np.sum(~ok))


# ---------------------------------------------------------------------------
# first-iterate kernels


_PRESETS = ("example1", "example2", "example3")


def _elwt(x):
    return 1.0 + np.abs(x)


def first_iterate_kernel(preset: str, s: float, sign: str, xi, eta,
                         general: bool = False) -> float:
    """Reduced (displayed) or general first-iterate kernel at one frequency pair.

    general=True evaluates <xi+eta>^s |k_pm| / (<xi>^s <eta>^s) *
    min(1, 1/(|xi+eta| (1 + Delta_pm))) with the bilinear symbol k_pm of the
    preset; general=False returns the simplified kernels obtained after the
    null cancellations.
    """
    if preset not in _PRESETS:
        raise ValueError(f"unknown preset {preset!r}")
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    nx, ne = float(np.linalg.norm(xi)), float(np.linalg.norm(eta))
    ns = float(np.linalg.norm(xi + eta))
    delta = float((delta_plus if sign == "plus" else delta_minus)(xi[None, :], eta[None, :])[0])
    sgn = 1.0 if sign == "plus" else -1.0
    if general:
        dot = float(np.dot(xi, eta))
        if preset == "example1":
            k_pm = nx * ne
        elif preset == "example2":
            k_pm = abs(sgn * nx * ne - dot)
        else:
            w2 = nx**2 * ne**2 - dot**2
            k_pm = math.sqrt(max(w2, 0.0))
        shrink = min(1.0, 1.0 / (ns * (1.0 + delta))) if ns > 0 else 1.0
        return _elwt(ns) ** s * k_pm / (_elwt(nx) ** s * _elwt(ne) ** s) * shrink
    if preset == "example1":
        return _elwt(ns) ** (s - 1.0) / (_elwt(nx) ** (s - 1.0) * _elwt(ne) ** (s - 1.0)
                                         * (1.0 + delta))
    if preset == "example2":
        return _elwt(nx) ** (-s) + _elwt(ne) ** (-s)
    return (_elwt(nx) ** (-s + 0.5) + _elwt(ne) ** (-s + 0.5)) / math.sqrt(1.0 + delta)
