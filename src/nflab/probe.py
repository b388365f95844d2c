"""Sharpness laboratory: worst-case ratios, Schur certificates, counterexamples.

Three kinds of evidence are produced, none of which claims a proof:

* probe_embedding measures sup ratios of a bilinear (or unary) estimate over
  seeded ensembles and reports a fixed-rule verdict; each trial's cone draw is
  made once, free of any grid, and placed on the lattice and on its refinement;
* schur_bound evaluates the boundedness certificate sup_xi int K^2 d(eta) in
  polar coordinates with a graded angular mesh, monotone in the truncation
  and in the angular refinement by construction, for n >= 2 (the mesh is
  in the polar angle of eta, which S^0 lacks); schur_ladder evaluates a
  ladder of (R, h) rungs from one integrand per dyadic |xi| (|xi| = 1 alone
  for a homogeneous kernel, by scaling), at the finest angular cut among the
  rungs, whose column prefixes give the coarser rungs bit for bit;
* trilinear_form and discrete_schur_constant share one pair table: the
  kernel on every (xi, eta) pair of a block of f-rows at once, and h(xi+eta)
  looked up by raveling the sums over h's bounding box and a searchsorted
  into h's sorted keys;
* counterexample_norms integrates the slab/shell indicator family over its
  explicit sets by product quadrature (one shell integrator serves the sets B
  and C, with one integrand call per offset panel), for scaling-law regression
  in the family scale L; both quadratures take every node and weight from one
  Gauss-Legendre rule, _gauss_nodes; membership_check maps the caller's unit
  draw (membership_draw) at one scale; counterexample_lattice_ratio convolves the
  family's lattice indicators in light-cone coordinates (tau - xi_1, xi_1,
  xi'), where the slab A is the product {-1, 0, 1} x [ceil(L/2), floor(L)] x
  Ann_L: two running sums along the first two axes and one FFT over the n - 1
  transverse axes per sheared slab, on 5-smooth lengths.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .lattice import (SPACETIME, Grid, SpectralField, _malloc_policy, modified_mixed_norm, pmap,
                      random_field)
from .multiplier import SpaceIndex, weight, ws_norm
from .nullform import BilinearFormSpec, _DRAW_ROWS, _delta_parts, _dot, _gap, _geometry, apply_form

TWO_PI = 2.0 * math.pi

GROWTH_SLOPE = 0.1
GROWTH_RESIDUAL = 0.05
DRIFT_LIMIT = 0.20


# ---------------------------------------------------------------------------
# scaling fits


@dataclass
class FitResult:
    slope: float
    residual: float


def check_fit_scales(scales) -> None:
    """A scaling fit needs at least 3 distinct scales; studies check theirs before any work."""
    if len({float(L) for L in scales}) < 3:
        raise ValueError("need at least 3 distinct scales for a scaling fit")


def scaling_fit(points) -> FitResult:
    """Ordinary least squares on (log scale, log value)."""
    pts = [(float(a), float(b)) for a, b in points]
    check_fit_scales([a for a, _ in pts])
    if any(b <= 0 or a <= 0 for a, b in pts):
        raise ValueError("scales and values must be positive")
    x = np.log([a for a, _ in pts])
    y = np.log([b for _, b in pts])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    return FitResult(slope=float(coef[0]), residual=float(np.sqrt(np.mean(resid**2))))


# ---------------------------------------------------------------------------
# embedding probes


@dataclass
class EmbeddingSpec:
    """Estimate target(B(u,v)) <= C source_l(u) source_r(v); B is the plain product by default.

    With unary=True the right factor is dropped and the probe measures
    target(u) / source_l(u) (linear embeddings).
    """

    left: SpaceIndex
    right: SpaceIndex
    target: SpaceIndex
    n: int
    form: BilinearFormSpec = BilinearFormSpec("product")
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
    B = u if spec.unary else apply_form(spec.form, u, v)
    if spec.target_mixed is not None:
        q, r = spec.target_mixed
        num = modified_mixed_norm(B, q, r)
    else:
        num = ws_norm(B, spec.target)
    return num / denom


def _cone_modes(n: int, seed: int):
    """One cone draw, free of any grid: for each of 40 modes the unclipped radius
    (1 - u)^(-3/4), a unit direction, the cone sheet, the time offset and the
    amplitude, drawn in the stream order of a per-mode loop."""
    rng = np.random.default_rng(seed)
    rows = [((1.0 - rng.random()) ** -0.75, rng.standard_normal(n),
             (-1.0, 1.0)[rng.integers(0, 2)], -1.0 + 2.0 * rng.random(),
             rng.standard_normal() + 1j * rng.standard_normal()) for _ in range(40)]
    radius, direction, sgn, offset, amp = (np.array(col) for col in zip(*rows))
    # vecdot is the dot product of each row, with its bits
    direction /= np.maximum(np.sqrt(np.vecdot(direction, direction)), 1e-12)[:, None]
    return radius, direction, sgn, offset, amp


def _cone_field(grid: Grid, draw) -> SpectralField:
    """Place a cone draw on `grid`: spectrum within O(1) of the light cone."""
    radius, direction, sgn, offset, amp = draw
    kt_max = grid.N_t // 2 - 1
    kx_max = grid.N_x // 2 - 1
    k_xi = np.clip(np.rint(np.minimum(radius, kx_max)[:, None] * direction), -kx_max, kx_max)
    xi = k_xi * (TWO_PI / grid.L_per)
    tau_target = sgn * np.sqrt(np.vecdot(xi, xi)) + offset
    k_t = np.clip(np.rint(tau_target / (TWO_PI / grid.T_per)), -kt_max, kt_max)
    c = np.zeros(grid.spacetime_shape, dtype=complex)
    np.add.at(c, (k_t.astype(int) % grid.N_t,) + tuple(k_xi.astype(int).T % grid.N_x), amp)
    return SpectralField(grid=grid, kind=SPACETIME, coeffs=c)


def _draw(n: int, ensemble: str, seed: int):
    """A grid -> field map: a cone draw serves every grid, a Gaussian one is per grid."""
    if ensemble == "random-gaussian":
        return lambda grid: random_field(grid, SPACETIME, seed, max_freq=grid.N_x // 4, real=False)
    if ensemble == "cone-concentrated":
        draw = _cone_modes(n, seed)
        return lambda grid: _cone_field(grid, draw)
    raise ValueError(f"unknown ensemble {ensemble!r}")


def probe_embedding(spec: EmbeddingSpec, ensemble: str, trials: int, grid: Grid | None,
                    seed: int = 0, scales=None) -> ProbeReport:
    """Worst-case ratio study; verdict per the fixed slope/drift rules.  A lattice ensemble
    evaluates each trial on `grid` (sup, witness, 0/0 exclusions) and on `grid.refined()`, whose
    sup sets the refinement drift; the counterexample family reports no drift."""
    if ensemble == "counterexample-family":
        ignored = [name for name, used in (
            ("form", spec.form.form != "product"),
            ("unary", spec.unary), ("target_q/target_r", spec.target_mixed is not None)) if used]
        if ignored:
            raise ValueError(f"the counterexample-family ensemble probes the plain product into "
                             f"a Sobolev target; it takes no {' or '.join(ignored)}")
        if scales is None:
            scales = [4, 6, 8, 12]
        _check_scales(scales)
        check_fit_scales(scales)
        vals = pmap(lambda L: counterexample_lattice_ratio(spec, L), scales)
        fit = scaling_fit(list(zip(scales, vals)))
        growth = fit.slope > GROWTH_SLOPE and fit.residual < GROWTH_RESIDUAL
        k = int(np.argmax(vals))
        return ProbeReport(sup_ratio=float(max(vals)), witness=k, ensemble=ensemble,
                           refinement_drift=None,
                           verdict="growth-detected" if growth else "inconclusive",
                           slope=fit.slope, residual=fit.residual,
                           scales=list(scales), values=[float(v) for v in vals])
    if scales is not None:
        raise ValueError(f"scales apply only to the counterexample-family ensemble, "
                         f"not to {ensemble!r}")
    if grid is None:
        raise ValueError("lattice ensembles need a grid")
    if trials < 1:
        raise ValueError("need at least one trial")
    if spec.unary and spec.form.form != "product":
        raise ValueError("a unary probe measures target(u) / source(u); it takes no form")
    grids = (grid, grid.refined())

    def trial(k):
        # v from its own seed; a unary probe draws none.  One draw serves every grid.
        u = _draw(grid.n, ensemble, seed + 1000 * k)
        v = None if spec.unary else _draw(grid.n, ensemble, seed + 1000 * k + 7_000_003)
        return [embedding_ratio(spec, u(g), None if v is None else v(g)) for g in grids]

    best, excluded = [(0.0, -1) for _ in grids], 0  # (sup, witness) per grid
    for k, ratios in enumerate(pmap(trial, range(trials))):
        for i, r in enumerate(ratios):
            excluded += r is None and i == 0
            if r is not None and r > best[i][0]:
                best[i] = (r, k)
    (sup1, witness), sup2 = best[0], best[1][0]
    drift = abs(sup2 - sup1) / max(sup1, 1e-300)
    verdict = "bounded-consistent" if sup1 != 0.0 and drift <= DRIFT_LIMIT else "inconclusive"
    return ProbeReport(sup_ratio=sup1, witness=witness, ensemble=ensemble,
                       refinement_drift=drift, verdict=verdict, excluded=excluded)


# ---------------------------------------------------------------------------
# lattice counterexample family (indicator spectra of the slab/shell sets)


def _transverse_points(lo: float, hi: float, d: int) -> np.ndarray:
    """Integer points eta' of Z^d with lo <= |eta'| <= hi, in row-major order."""
    rng = np.arange(-math.floor(hi), math.floor(hi) + 1)
    grids = np.meshgrid(*([rng] * d), indexing="ij")
    prim = np.stack([g.ravel() for g in grids], axis=-1)
    pn = np.linalg.norm(prim, axis=-1)
    return prim[(pn >= lo) & (pn <= hi)]


def _lattice_set_A(L: float, n: int):
    """Integer points of |lam - eta_1| <= 1, L/2 <= eta_1 <= L, L/2 <= |eta'| <= L."""
    eta1 = np.arange(math.ceil(L / 2.0), math.floor(L) + 1)
    prim = _transverse_points(L / 2.0, L, n - 1)
    e, d, p = np.indices((len(eta1), 3, len(prim))).reshape(3, -1)
    return np.column_stack([eta1[e] + d - 1, eta1[e], prim[p]])


def _lattice_set_B(L: float, n: int):
    """Integer points of |tau - |xi|| <= 8, L^2/2 <= xi_1 <= 4 L^2, |xi'| <= 2L."""
    xi1 = np.arange(math.ceil(L * L / 2.0), math.floor(4 * L * L) + 1)
    prim = _transverse_points(0.0, 2 * L, n - 1)
    r = np.sqrt(xi1[:, None] ** 2 + np.sum(prim**2, axis=-1))
    tau = np.rint(r).astype(int)[:, None, :] + np.arange(-8, 9)[None, :, None]
    keep = np.abs(tau - r[:, None, :]) <= 8  # rows ordered by (xi_1, tau offset, xi')
    rows = np.empty((int(keep.sum()), n + 1), dtype=int)
    rows[:, 0] = tau[keep]
    rows[:, 1] = np.broadcast_to(xi1[:, None, None], keep.shape)[keep]
    rows[:, 2:] = np.broadcast_to(prim, keep.shape + prim.shape[1:])[keep]
    return rows


def _sparse_ws_norm(points: np.ndarray, idx: SpaceIndex, values=1.0) -> float:
    """H^{s,theta} norm of the spectrum with coefficients `values` (default 1)
    at the integer modes `points` (rows tau, xi_1, ..., xi_n)."""
    tau = points[:, 0].astype(float)
    ax = np.linalg.norm(points[:, 1:].astype(float), axis=-1)
    w = weight("lambda", idx.s, tau, ax) * weight("lambda_minus", idx.theta, tau, ax)
    return float(np.sqrt(np.sum((w * values) ** 2)))


def _smooth_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n (n >= 1): a length the FFT factors into small primes."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _check_scales(scales) -> None:
    """Family scales must be finite and >= 1: below 1 the set A is empty."""
    for L in scales:
        if not (math.isfinite(L) and L >= 1.0):
            raise ValueError(f"family scale L must be finite and >= 1, got {L!r}")


def _box_sum(a: np.ndarray, width: int, axis: int) -> np.ndarray:
    """Full convolution of `a` with `width` ones along `axis`: a running sum."""
    out = np.zeros(a.shape[:axis] + (a.shape[axis] + width - 1,) + a.shape[axis + 1:])
    view, src = np.moveaxis(out, axis, 0), np.moveaxis(a, axis, 0)
    for k in range(width):
        view[k:k + len(src)] += src
    return out


def counterexample_lattice_ratio(spec: EmbeddingSpec, L: float) -> float:
    """Plain-product estimate ratio for indicator spectra of A and B at scale L.

    1_A * 1_B is computed exactly in light-cone coordinates: the unimodular
    shear S(tau, xi_1, xi') = (tau - xi_1, xi_1, xi') maps A onto the product
    {-1, 0, 1} x [ceil(L/2), floor(L)] x Ann_L.  So 1_SB takes running sums of
    width 3 and floor(L) - ceil(L/2) + 1 along its first two axes (exact, on
    integers), and each slab along the sheared axis is convolved with 1_{Ann_L}
    by an FFT over the n - 1 transverse axes only, on 5-smooth lengths.  Each
    slab's occupied cells are mapped back through S^-1 for the weights.
    """
    n = spec.n
    if n < 2:
        raise ValueError("counterexample family needs n >= 2")
    _check_scales([L])
    B = _lattice_set_B(L, n)
    den = _sparse_ws_norm(_lattice_set_A(L, n), spec.left) * _sparse_ws_norm(B, spec.right)
    B[:, 0] -= B[:, 1]  # B becomes SB: S(tau, xi_1, xi') = (tau - xi_1, xi_1, xi')
    lo = B.min(axis=0)
    B -= lo
    box = np.zeros(tuple(B.max(axis=0) + 1))
    box[tuple(B.T)] = 1.0
    eta1_lo, eta1_hi = math.ceil(L / 2.0), math.floor(L)
    ann = _transverse_points(L / 2.0, L, n - 1)
    runs = _box_sum(_box_sum(box, 3, 0), eta1_hi - eta1_lo + 1, 1)
    ann_lo = ann.min(axis=0)
    ann_box = np.zeros(tuple(ann.max(axis=0) - ann_lo + 1))
    ann_box[tuple((ann - ann_lo).T)] = 1.0
    full = tuple(int(a + b - 1) for a, b in zip(box.shape[2:], ann_box.shape))
    fft_shape = tuple(_smooth_length(m) for m in full)
    axes = tuple(range(1, n))
    ann_spectrum = np.fft.rfftn(ann_box, fft_shape, axes=tuple(range(n - 1)))
    crop = (slice(None),) + tuple(slice(0, m) for m in full)
    origin = np.concatenate([[lo[0] - 1, lo[1] + eta1_lo], lo[2:] + ann_lo])
    num_sq = 0.0
    for k, slab in enumerate(runs):
        spectrum = np.fft.rfftn(slab, fft_shape, axes=axes) * ann_spectrum
        conv = np.fft.irfftn(spectrum, fft_shape, axes=axes)[crop]
        conv[conv < 1e-9] = 0.0  # FFT rounding of empty cells
        occ = np.argwhere(conv > 0)
        pts = np.column_stack([np.full(len(occ), k), occ]) + origin
        pts[:, 0] += pts[:, 1]  # S^-1: tau = (tau - xi_1) + xi_1
        num_sq += _sparse_ws_norm(pts, spec.target, conv[tuple(occ.T)]) ** 2
    return math.sqrt(num_sq) / den


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
        for name, v in (("a", self.a), ("b", self.b), ("c", self.c)):
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"kernel exponent {name} must be finite and >= 0, got {v!r}")
        if self.sign not in ("plus", "minus"):
            raise ValueError("sign must be 'plus' or 'minus'")
        if self.variant not in ("homogeneous", "inhomogeneous"):
            raise ValueError("variant must be 'homogeneous' or 'inhomogeneous'")
        if self.n < 1:
            raise ValueError(f"kernel dimension n must be >= 1, got {self.n!r}")


def kernel_eval(k: KernelSpec, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """K(xi, eta) on arrays of shape (..., n)."""
    nx, ne, ns, dot, w = _geometry(xi, eta)
    return _kernel(k, nx, ne, _delta_parts(nx, ne, ns, dot, w, k.sign == "plus"))


def _kernel(k: KernelSpec, nx, ne, delta) -> np.ndarray:
    """K from |xi|, |eta| and Delta."""
    if k.variant == "homogeneous":
        with np.errstate(divide="ignore"):  # 0^-p = inf for p > 0, and 0^0 = 1
            return nx ** -k.a * ne ** -k.b * delta ** -k.c
    return (1.0 + nx) ** (-k.a) * (1.0 + ne) ** (-k.b) * (1.0 + delta) ** (-k.c)


_GAUSS_N = 8
_ANGLE_GRADE = 4
_RADIAL_LEVELS = 44
_CE_GAUSS = 32


@functools.lru_cache(maxsize=None)
def _legendre(m: int) -> tuple:
    """Read-only Gauss-Legendre nodes and weights of order m on [-1, 1]."""
    x, w = leggauss(m)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss_nodes(lo, hi, m=_CE_GAUSS):
    """Gauss-Legendre nodes and weights of order m on [lo, hi], broadcast over lo and hi:
    the one quadrature rule of the Schur certificate and the counterexample norms."""
    x, w = _legendre(m)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


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


def _schur_integrand(k: KernelSpec, xi_mag: float, bricks) -> np.ndarray:
    """K^2 jac W_R W_T on the Gauss nodes of |eta| <= |xi| times the angular bricks.

    Rows are the radial nodes; brick j owns columns 8j .. 8j+7, so the
    integrand of a prefix of `bricks` is a prefix of the columns.
    """
    n = k.n
    r_hi = xi_mag * 2.0 ** (-np.arange(_RADIAL_LEVELS, dtype=float))[:, None]
    rg, rw = _gauss_nodes(r_hi / 2.0, r_hi, _GAUSS_N)  # (radial bricks, G)
    t = np.array(bricks)
    tg, tw = _gauss_nodes(t[:, :1], t[:, 1:], _GAUSS_N)  # (angular bricks, G)
    R, WR = rg.reshape(-1)[:, None], rw.reshape(-1)[:, None]
    T, WT = tg.reshape(-1)[None, :], tw.reshape(-1)[None, :]
    # xi = (|xi|, 0, ...) and eta = (R cos T, R sin T, 0, ...) as scalars, with the bits of
    # (rows, cols, n) vectors; |xi| is an array, as numpy's scalar power rounds differently
    na, sin_t = np.full((1, 1), xi_mag), np.sin(T)
    e0, e1 = R * np.cos(T), R * sin_t
    nb, ns = np.sqrt(e0 * e0 + e1 * e1), np.sqrt((na + e0) ** 2 + e1 * e1)
    K = _kernel(k, na, nb, _delta_parts(na, nb, ns, na * e0, (na * e1) ** 2, k.sign == "plus"))
    return K**2 * (R ** (n - 1) * sin_t ** (n - 2) * _sphere_area(n - 2)) * WR * WT


def schur_ladder(k: KernelSpec, rungs) -> list[float]:
    """schur_bound(k, R, h) for every (R, h) in `rungs`, each |xi| integrated once.

    The bricks of a cut are a prefix of those of any finer cut, so one integrand
    per dyadic |xi|, at the finest cut among the rungs with R >= |xi|, serves
    them all: a rung's value there sums its first 8 * bricks(h) columns, in its
    own integrand's order.  A homogeneous kernel needs |xi| = 1 alone:
    K(m xi, m eta) = m^-(a+b+c) K(xi, eta) and the polar nodes scale exactly, so
    the integrand at |xi| = m is m^e times the one at 1, e = n - 2(a+b+c), and a
    rung's value is S_1 max(1, M^e), S_1 its sum at 1, M the top dyadic |xi| <= R.
    """
    if k.n < 2:
        raise ValueError(f"the Schur certificate needs n >= 2, got n={k.n!r}: it integrates "
                         "over the polar angle of eta, and S^0 has none")
    _malloc_policy()  # the ladders never enter pmap, which sets it elsewhere
    tops, cuts = [], []
    for R, h in rungs:
        if not (math.isfinite(R) and math.isfinite(h)) or R < 1.0 or h <= 0:
            raise ValueError("need a finite truncation R >= 1 and a finite angular step h > 0, "
                             f"got R={R!r}, h={h!r}")
        theta_min = math.pi * (min(h, math.pi) / math.pi) ** _ANGLE_GRADE
        if not theta_min > 0.0:
            raise ValueError(f"angular step h={h!r} is too small: its cut "
                             f"pi (h/pi)^{_ANGLE_GRADE} underflows to 0")
        tops.append(R * (1.0 + 1e-12))
        cuts.append(_theta_bricks(theta_min))
        if not cuts[-1]:
            raise ValueError(f"angular step h={h!r} leaves no angular brick: its cut "
                             f"pi (h/pi)^{_ANGLE_GRADE} exceeds pi/4; need h < pi/sqrt(2) "
                             f"(about {math.pi / math.sqrt(2.0):.6f})")
    best = [0.0] * len(cuts)
    mag = 1.0
    while True:
        active = [i for i, top in enumerate(tops) if mag <= top]
        if not active:
            return best
        integrand = _schur_integrand(k, mag, max((cuts[i] for i in active), key=len))
        for i in active:
            cols = integrand[:, :_GAUSS_N * len(cuts[i])]
            best[i] = max(best[i], float(np.sum(np.ascontiguousarray(cols))))
        if k.variant == "homogeneous":
            with np.errstate(over="ignore"):  # M^e = 2^(j e), inf once it overflows
                growth = np.exp2((np.frexp(tops)[1] - 1) * (k.n - 2.0 * (k.a + k.b + k.c)))
            return [s * max(1.0, float(g)) for s, g in zip(best, growth)]
        mag *= 2.0


def schur_bound(k: KernelSpec, R: float, h: float) -> float:
    """sup over dyadic |xi| in [1, R] of the truncated polar integral of K^2.

    The eta integral runs over |eta| <= |xi| (the proof's region split; the
    complementary region is the same bound with the roles of a and b swapped).
    The angular mesh excludes a window theta < pi (h/pi)^4 around the singular
    directions; both the xi samples and the angular bricks are nested under
    R-doubling and h-halving, so the value is exactly monotone in R and 1/h, also
    as S_1 max(1, M^e) (inf on overflow) for a homogeneous kernel (schur_ladder).
    Each radial and angular brick takes the 8 Gauss-Legendre nodes of _gauss_nodes.
    The kernel needs n >= 2: the angle is the polar angle of eta, and S^0 has none.
    R and h must be finite, R >= 1, and the window pi (h/pi)^4 must be > 0 and at most
    pi/4 (h < pi/sqrt(2)), so that at least one angular brick is left.
    """
    return schur_ladder(k, [(R, h)])[0]


_PAIR_BLOCK = 1 << 16


def _index_arrays(k: KernelSpec, name: str, spec: dict):
    """Integer index array (m, n) and weights (m,) of a lattice spectrum."""
    if any(len(key) != k.n for key in spec):
        raise ValueError(f"{name}: every index must have length n = {k.n}")
    keys = np.array(list(spec.keys()), dtype=np.int64).reshape(len(spec), k.n)
    return keys, np.array(list(spec.values()), dtype=float)


def _pair_table(k: KernelSpec, f: dict, g: dict, h: dict, spacing: float):
    """Yield (K, fw, gw, hv, hit) per block of about 2^16 (xi, eta) pairs.

    A block pairs some f-rows with every point of g: K[r, j] = K(xi_r, eta_j),
    fw (rows, 1) and gw (1, points) are the weights, hv[r, j] = h(xi_r + eta_j)
    and hit marks the sums in supp h (hv is 0 elsewhere).  h is looked up by
    raveling the sums over h's bounding box and one searchsorted into h's
    sorted raveled keys.  Yields nothing when a spectrum is empty.
    """
    fi, fw = _index_arrays(k, "f", f)
    gi, gw = _index_arrays(k, "g", g)
    hi, hw = _index_arrays(k, "h", h)
    if not (len(fi) and len(gi) and len(hi)):
        return
    lo, top = hi.min(axis=0), hi.max(axis=0)
    dims = tuple(int(d) for d in top - lo + 1)
    codes = np.ravel_multi_index(tuple((hi - lo).T), dims)
    order = np.argsort(codes)
    codes, hw = codes[order], hw[order]
    xi, eta = fi.astype(float) * spacing, gi.astype(float) * spacing
    step = max(1, _PAIR_BLOCK // len(gi))
    for start in range(0, len(fi), step):
        rows = fi[start:start + step]
        K = kernel_eval(k, xi[start:start + step, None, :], eta[None, :, :])
        sums = rows[:, None, :] + gi[None, :, :]
        inside = np.all((sums >= lo) & (sums <= top), axis=-1)
        key = np.ravel_multi_index(tuple(np.moveaxis(sums - lo, -1, 0)), dims, mode="clip")
        pos = np.minimum(np.searchsorted(codes, key), len(codes) - 1)
        hit = inside & (codes[pos] == key)
        yield K, fw[start:start + step, None], gw[None, :], np.where(hit, hw[pos], 0.0), hit


def trilinear_form(k: KernelSpec, f: dict, g: dict, h: dict, spacing: float = 1.0) -> float:
    """Lattice double sum of K(xi,eta) f(xi) g(eta) h(xi+eta).

    Spectra are mappings from integer index tuples of length k.n to
    nonnegative weights; `spacing` scales indices to frequencies and
    supplies the measure factor spacing^(2n).
    """
    for name, spec in (("f", f), ("g", g), ("h", h)):
        if any(v < 0 for v in spec.values()):
            raise ValueError(f"{name} must be nonnegative")
    total = 0.0
    for K, fw, gw, hv, _ in _pair_table(k, f, g, h, spacing):
        # each row is summed on its own and the row totals are added in
        # order, so the value does not depend on the block size
        for row_total in np.sum(K * fw * gw * hv, axis=1).tolist():
            total += row_total
    return total * spacing ** (2 * k.n)


def discrete_schur_constant(k: KernelSpec, f: dict, g: dict, h: dict,
                            spacing: float = 1.0) -> float:
    """max over supp f of sum over interacting eta of K^2 (Cauchy-Schwarz certificate)."""
    best, measure = 0.0, spacing ** k.n
    for K, _, _, _, hit in _pair_table(k, f, g, h, spacing):
        for K_row, hit_row in zip(K, hit):
            best = max(best, float(np.sum(K_row[hit_row] ** 2)) * measure)
    return best


# ---------------------------------------------------------------------------
# continuum counterexample family (slab/shell indicator spectra)


@dataclass(frozen=True)
class CounterexampleParams:
    L: float
    s: float
    theta: float
    n: int = 3

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("counterexample needs n >= 2")
        if not (math.isfinite(self.L) and self.L >= 4):
            raise ValueError(f"scale L must be finite and at least 4, got {self.L!r}")


@dataclass
class CounterexampleRecord:
    L: float
    norm_u: float
    norm_v: float
    lhs_lower: float
    ratio: float
    measure_A: float
    measure_C: float


def _cal_weight(tau, abs_xi, euclid, s, theta):
    """Scale-homogeneous representative |xi|^(s-1) |Xi| (||tau|-|xi||)^theta
    of the second-order wave-Sobolev weight.

    The family sets live at |xi| >= L/2 >= 2, where this representative is
    equivalent to the inhomogeneous weight within fixed constants; using it
    keeps desk-scale log-log fits on the asymptotic exponent.
    """
    return weight("d", s - 1.0, tau, abs_xi) * euclid * weight("d_minus", theta, tau, abs_xi)


def _shell_quadrature(n, x_lo, x_hi, rho_hi, tau_half, integrand):
    """(value, measure): the sums of integrand^2 and of 1 over x_1 in [x_lo, x_hi],
    rho' = |x'| <= rho_hi and an offset o in [-tau_half, tau_half], with the
    measure sigma rho'^(n-2).  The offset panel is split at o = 0, so a kink
    there is resolved; integrand(o, x_1, rho', |x|) is called once per panel, on its nodes
    o as an (m, 1, 1) array, and summed per node.
    """
    x1, wx1 = _gauss_nodes(x_lo, x_hi)
    rp, wrp = _gauss_nodes(0.0, rho_hi)
    X1, RP = np.meshgrid(x1, rp, indexing="ij")
    WXR = np.outer(wx1, wrp)
    abs_xi = np.sqrt(X1**2 + RP**2)
    surf_x = _sphere_area(n - 2) * RP ** (n - 2)
    cell = float(np.sum(surf_x * WXR))
    val = meas = 0.0
    for lo, hi in ((-tau_half, 0.0), (0.0, tau_half)):
        o, wo = _gauss_nodes(lo, hi)
        sums = np.sum(integrand(o[:, None, None], X1, RP, abs_xi) ** 2 * surf_x * WXR, axis=(1, 2))
        for v, w in zip(sums, wo):
            val += float(v) * w
            meas += cell * w
    return val, meas


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

    # --- A: eta_1 in [L/2, L], rho = |eta'| in [L/2, L], lam in [eta1-1, eta1+1]
    e1, we1 = _gauss_nodes(L / 2.0, L)
    rho, wrho = _gauss_nodes(L / 2.0, L)
    lam_off, wlam = _gauss_nodes(-1.0, 1.0)
    E1, RHO, OFF = np.meshgrid(e1, rho, lam_off, indexing="ij")
    WA = we1[:, None, None] * wrho[None, :, None] * wlam[None, None, :]
    LAM = E1 + OFF
    abs_eta = np.sqrt(E1**2 + RHO**2)
    euclid = np.sqrt(LAM**2 + abs_eta**2)
    surf = _sphere_area(n - 2) * RHO ** (n - 2)
    w_u = _cal_weight(LAM, abs_eta, euclid, s, th)
    norm_u = math.sqrt(float(np.sum(w_u**2 * surf * WA)))
    measure_A = float(np.sum(surf * WA))

    # --- B: xi_1 in [L^2/2, 4 L^2], rho' = |xi'| <= 2L, tau = |xi| + o, |o| <= 8
    val_v, _ = _shell_quadrature(n, L * L / 2.0, 4.0 * L * L, 2.0 * L, 8.0, lambda o, x1, rp, ax:
                                 _cal_weight(ax + o, ax, np.sqrt((ax + o) ** 2 + ax**2), s, th))
    norm_v = math.sqrt(val_v)

    # --- C: xi_1 in [L^2, 2 L^2], rho' <= L, |o| <= 1, with the product-lower-bound
    # integrand; the null symbol (eta_j xi_1 - eta_1 xi_j)/|eta| is evaluated at the
    # center of A with |xi_j| replaced by its maximum rho' (a genuine lower bound, ~ L^2)
    ec_norm = float(np.linalg.norm([0.75 * L] * 2))  # |eta_center| = |0.75 L (e_1 + e_2)|
    val_c, measure_C = _shell_quadrature(n, L * L, 2.0 * L * L, L, 1.0, lambda o, x1, rp, ax: (
        # |o|^(theta-1) per node in scalar pow: numpy's array power can differ by an ulp
        weight("d", s - 1.0, None, ax) * np.reshape([abs(x) ** (th - 1.0) for x in o.flat], o.shape)
        * np.maximum((0.75 * L * x1 - 0.75 * L * rp) / ec_norm, 0.0) * measure_A))
    lhs_lower = math.sqrt(val_c)
    return CounterexampleRecord(L=L, norm_u=norm_u, norm_v=norm_v,
                                lhs_lower=lhs_lower,
                                ratio=lhs_lower / (norm_u * norm_v),
                                measure_A=measure_A, measure_C=float(measure_C))


def _directions(rng, m: int, d: int) -> np.ndarray:
    """m uniform directions of R^d, (d, m) in C order, from one (m, d) normal draw."""
    dirs = rng.standard_normal((m, d))
    return np.divide(dirs.T, np.maximum(np.sqrt(_dot(dirs, dirs)), 1e-12), order="C")


def membership_draw(samples: int, n: int, seed: int):
    """The read-only unit draw that membership_check maps at every scale: six uniforms u_k, each
    (samples,), and the eta', xi' directions, each (n - 1, samples), taken from default_rng(seed)
    in the order u_0, u_1, u_2 (|eta'|), eta', u_3, u_4 (|xi'|), xi', u_5."""
    rng = np.random.default_rng(seed)
    draws = [_directions(rng, samples, n - 1) if k in (3, 6) else rng.random(samples)
             for k in range(8)]
    for x in draws:
        x.flags.writeable = False
    return draws[:3] + draws[4:6] + draws[7:], [draws[3], draws[6]]


def membership_check(p: CounterexampleParams, draw) -> int:
    """Count failures of (Theta in A, Xi in C) => Xi - Theta in B on a membership_draw made for
    p.n, in row blocks."""
    n, L = p.n, p.L
    if len(draw[1][0]) != n - 1:
        raise ValueError(f"draw is a membership_draw for n = {len(draw[1][0]) + 1}, not {n}")
    # Theta = (lam, eta) in A, Xi = (tau, xi) in C: uniform k as rng.uniform(lo[k], hi[k]) maps it
    lo = (L / 2.0, -1.0, L / 2.0, L * L, 0.0, -1.0)  # lo + (hi - lo) u, numpy's own arithmetic
    hi = (L, 1.0, L, 2.0 * L * L, L, 1.0)
    failures = 0
    for r in range(0, len(draw[0][0]), _DRAW_ROWS):
        eta_dir, xi_dir = (x[:, r:r + _DRAW_ROWS] for x in draw[1])
        eta1, lam_off, abs_eta_prim, xi1, rhop, tau_off = (
            a + (b - a) * x[r:r + _DRAW_ROWS] for a, b, x in zip(lo, hi, draw[0]))
        d1 = xi1 - eta1
        dprim = (xi_dir * rhop - eta_dir * abs_eta_prim).T  # directions are (d, rows)
        dprim_sq = _dot(dprim, dprim)
        dtau = np.sqrt(xi1**2 + rhop**2) + tau_off - (eta1 + lam_off)  # tau - lam
        ok = (np.abs(dtau - np.sqrt(d1**2 + dprim_sq)) <= 8.0 + 1e-9)
        ok &= (d1 >= L * L / 2.0 - 1e-9) & (d1 <= 4.0 * L * L + 1e-9)
        ok &= np.sqrt(dprim_sq) <= 2.0 * L + 1e-9
        failures += int(np.sum(~ok))
    return failures


# ---------------------------------------------------------------------------
# first-iterate kernels


_PRESETS = ("example1", "example2", "example3")


def _elwt(x):
    return 1.0 + np.abs(x)


def first_iterate_kernel(preset: str, s: float, sign: str, xi, eta,
                         general: bool = False) -> float:
    """Reduced (displayed) or general first-iterate kernel at one frequency pair.

    With <x> = 1 + |x|, general=True evaluates <xi+eta>^s |k_pm| / (<xi>^s <eta>^s) *
    min(1, 1/(|xi+eta| (1 + Delta_pm))), k_pm = |xi||eta| (example1), |xi||eta| -+ xi.eta
    (example2) or |xi ^ eta| (example3), read from the pair geometry so that none cancels.
    general=False returns the kernels left after the null cancellations: example1
    <xi+eta>^(s-1) / (<xi>^(s-1) <eta>^(s-1) (1 + Delta_pm)), example2 <xi>^-s + <eta>^-s,
    example3 (<xi>^(1/2-s) + <eta>^(1/2-s)) / (1 + Delta_pm)^(1/2).
    """
    if preset not in _PRESETS:
        raise ValueError(f"unknown preset {preset!r}")
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    plus = sign == "plus"
    nx, ne, ns, dot, w2 = (float(x[0]) for x in _geometry(xi, eta))
    delta = float(_delta_parts(nx, ne, ns, dot, w2, plus))
    if general:
        if preset == "example1":
            k_pm = nx * ne
        elif preset == "example2":
            k_pm = float(_gap(nx * ne, dot if plus else -dot, w2))
        else:
            k_pm = math.sqrt(w2)
        shrink = min(1.0, 1.0 / (ns * (1.0 + delta))) if ns > 0 else 1.0
        return _elwt(ns) ** s * k_pm / (_elwt(nx) ** s * _elwt(ne) ** s) * shrink
    if preset == "example1":
        return _elwt(ns) ** (s - 1.0) / (_elwt(nx) ** (s - 1.0) * _elwt(ne) ** (s - 1.0)
                                         * (1.0 + delta))
    if preset == "example2":
        return _elwt(nx) ** (-s) + _elwt(ne) ** (-s)
    return (_elwt(nx) ** (-s + 0.5) + _elwt(ne) ** (-s + 0.5)) / math.sqrt(1.0 + delta)
