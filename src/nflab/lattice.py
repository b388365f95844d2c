"""Periodic space-time sampling lattice and its Fourier calculus.

The computational domain is the torus [0, T_per) x [0, L_per)^n sampled on a
regular lattice of N_t x N_x^n points.  Frequencies live on the dual lattice
{2*pi*k/T_per} x {2*pi*m/L_per}^n with k in [-N_t/2, N_t/2) and m in
[-N_x/2, N_x/2)^n, stored throughout in unshifted FFT order.

Normalization: the discrete transform is unitary with respect to the
measure-weighted inner products, so the sum of squared coefficients equals
the measure-weighted L^2 norm of the samples (Plancherel as a plain sum).
With this choice a product of two fields corresponds to a plain coefficient
convolution scaled by 1/sqrt(domain volume).
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * math.pi

SPACETIME = "spacetime"
SPATIAL = "spatial"

MAGIC = b"NFLB1"


def _is_pow2(m: int) -> bool:
    return m >= 2 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Sampling lattice for the periodic box [0,T_per) x [0,L_per)^n."""

    n: int
    N_t: int
    N_x: int
    T_per: float
    L_per: float

    @property
    def dt(self) -> float:
        return self.T_per / self.N_t

    @property
    def dx(self) -> float:
        return self.L_per / self.N_x

    @property
    def spatial_shape(self) -> tuple:
        return (self.N_x,) * self.n

    @property
    def spacetime_shape(self) -> tuple:
        return (self.N_t,) + self.spatial_shape

    @property
    def volume(self) -> float:
        """Total space-time measure T_per * L_per^n."""
        return self.T_per * self.L_per**self.n

    @property
    def spatial_volume(self) -> float:
        return self.L_per**self.n

    def times(self) -> np.ndarray:
        return np.arange(self.N_t) * self.dt

    def tau(self) -> np.ndarray:
        """Temporal frequencies in FFT order, shape (N_t,)."""
        return TWO_PI * np.fft.fftfreq(self.N_t, d=self.dt)

    def xi_axis(self) -> np.ndarray:
        """Spatial frequencies along one axis in FFT order, shape (N_x,)."""
        return TWO_PI * np.fft.fftfreq(self.N_x, d=self.dx)

    def xi_component(self, j: int, kind: str) -> np.ndarray:
        """Frequency component xi_j broadcastable over the coefficient array."""
        ax = self.xi_axis()
        ndim = self.n + (1 if kind == SPACETIME else 0)
        pos = j + (1 if kind == SPACETIME else 0)
        shape = [1] * ndim
        shape[pos] = self.N_x
        return ax.reshape(shape)

    def abs_xi(self, kind: str) -> np.ndarray:
        """|xi| broadcastable over the coefficient array."""
        sq = sum(self.xi_component(j, kind) ** 2 for j in range(self.n))
        return np.sqrt(sq)

    def tau_broadcast(self) -> np.ndarray:
        return self.tau().reshape((self.N_t,) + (1,) * self.n)

    def shape_for(self, kind: str) -> tuple:
        return self.spacetime_shape if kind == SPACETIME else self.spatial_shape

    def refined(self, factor: int = 2) -> "Grid":
        return replace(self, N_t=self.N_t * factor, N_x=self.N_x * factor)


def make_grid(n: int, N_t: int, N_x: int, T_per: float, L_per: float) -> Grid:
    """Validate sizes and build a Grid.

    Sizes must be powers of two (hence even); n is restricted to 1..3.
    """
    if n not in (1, 2, 3):
        raise ValueError(f"spatial dimension must be 1, 2 or 3, got {n}")
    if not _is_pow2(N_t):
        raise ValueError(f"N_t must be an even power of two, got {N_t}")
    if not _is_pow2(N_x):
        raise ValueError(f"N_x must be an even power of two, got {N_x}")
    if not (T_per > 0 and L_per > 0):
        raise ValueError("periods must be positive")
    return Grid(n=n, N_t=int(N_t), N_x=int(N_x), T_per=float(T_per), L_per=float(L_per))


@dataclass(frozen=True)
class FrequencyPoint:
    """A single space-time frequency (tau, xi)."""

    tau: float
    xi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))

    @property
    def abs_xi(self) -> float:
        return float(np.linalg.norm(self.xi))

    @property
    def euclid(self) -> float:
        """Euclidean norm |Xi| of the full space-time frequency."""
        return math.hypot(self.tau, self.abs_xi)

    @property
    def lorentz(self) -> float:
        """Lorentzian form <Xi,Xi> = -tau^2 + |xi|^2 (signature -,+,..,+)."""
        return self.abs_xi**2 - self.tau**2

    @property
    def hyperbolic(self) -> float:
        """Distance to the light cone, ||tau| - |xi||."""
        return abs(abs(self.tau) - self.abs_xi)


@dataclass
class SpectralField:
    """Complex coefficient lattice on a Grid (space-time or spatial-only)."""

    grid: Grid
    kind: str
    coeffs: np.ndarray
    real_flag: bool = False
    zero_mode_projected: bool = False

    def __post_init__(self):
        want = self.grid.shape_for(self.kind)
        if self.coeffs.shape != want:
            raise ValueError(f"coefficient shape {self.coeffs.shape} does not match {want}")

    def copy_with(self, coeffs: np.ndarray, **kw) -> "SpectralField":
        opts = dict(grid=self.grid, kind=self.kind, coeffs=coeffs,
                    real_flag=self.real_flag, zero_mode_projected=self.zero_mode_projected)
        opts.update(kw)
        return SpectralField(**opts)

    def l2(self) -> float:
        """Plain Plancherel norm sqrt(sum |c|^2)."""
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

    def hermitian_error(self) -> float:
        """Max deviation from coeffs(-Xi) = conj(coeffs(Xi))."""
        c = self.coeffs
        flipped = c
        for ax in range(c.ndim):
            flipped = np.roll(np.flip(flipped, axis=ax), 1, axis=ax)
        return float(np.max(np.abs(c - np.conj(flipped))))


def _measure(grid: Grid, kind: str) -> float:
    return grid.volume if kind == SPACETIME else grid.spatial_volume


def transform(grid: Grid, samples: np.ndarray, kind: str = SPACETIME) -> SpectralField:
    """Forward transform of physical samples, unitary in the weighted norms."""
    samples = np.asarray(samples)
    want = grid.shape_for(kind)
    if samples.shape != want:
        raise ValueError(f"sample shape {samples.shape} does not match {want}")
    N = samples.size
    w = _measure(grid, kind) / N
    coeffs = np.fft.fftn(samples) * math.sqrt(w / N)
    real = bool(np.isrealobj(samples)) or bool(np.max(np.abs(samples.imag)) < 1e-14 * (1.0 + np.max(np.abs(samples))))
    return SpectralField(grid=grid, kind=kind, coeffs=coeffs, real_flag=real)


def inverse_transform(fieldv: SpectralField) -> np.ndarray:
    """Physical sample lattice of a spectral field."""
    N = fieldv.coeffs.size
    w = _measure(fieldv.grid, fieldv.kind) / N
    out = np.fft.ifftn(fieldv.coeffs) * math.sqrt(N / w)
    if fieldv.real_flag:
        return out.real
    return out


def plane_wave_coeffs(fieldv: SpectralField) -> np.ndarray:
    """Amplitudes A_k with u(x) = sum_k A_k exp(i Xi_k . x); A = c / sqrt(volume)."""
    return fieldv.coeffs / math.sqrt(_measure(fieldv.grid, fieldv.kind))


def from_plane_wave_coeffs(grid: Grid, A: np.ndarray, kind: str, real_flag=False) -> SpectralField:
    c = np.asarray(A, dtype=complex) * math.sqrt(_measure(grid, kind))
    return SpectralField(grid=grid, kind=kind, coeffs=c, real_flag=real_flag)


def time_spatial_rep(fieldv: SpectralField) -> np.ndarray:
    """Mixed representation a[j, xi]: per-time-slice plane-wave amplitudes.

    u(t_j, x) = sum_xi a[j, xi] exp(i xi . x).
    """
    if fieldv.kind != SPACETIME:
        raise ValueError("mixed representation needs a spacetime field")
    P = inverse_transform(fieldv)
    spatial_axes = tuple(range(1, fieldv.grid.n + 1))
    return np.fft.fftn(P, axes=spatial_axes) / fieldv.grid.N_x**fieldv.grid.n


def from_time_spatial_rep(grid: Grid, a: np.ndarray, real_flag=False) -> SpectralField:
    spatial_axes = tuple(range(1, grid.n + 1))
    P = np.fft.ifftn(a * grid.N_x**grid.n, axes=spatial_axes)
    if real_flag:
        P = P.real
    return transform(grid, P, SPACETIME)


def random_field(grid: Grid, kind: str, seed: int, max_freq: int | None = None,
                 real: bool = True, decay: float = 1.0) -> SpectralField:
    """Seeded random band-limited field; spectrum supported on |k_axis| <= max_freq."""
    rng = np.random.default_rng(seed)
    shape = grid.shape_for(kind)
    P = rng.standard_normal(shape)
    if not real:
        P = P + 1j * rng.standard_normal(shape)
    f = transform(grid, P, kind)
    c = f.coeffs
    if max_freq is None:
        max_freq = (grid.N_x // 4)
    idx_axes = []
    if kind == SPACETIME:
        idx_axes.append(np.fft.fftfreq(grid.N_t) * grid.N_t)
    for _ in range(grid.n):
        idx_axes.append(np.fft.fftfreq(grid.N_x) * grid.N_x)
    mask = np.ones(shape, dtype=bool)
    weight = np.zeros(shape)
    for ax, kvals in enumerate(idx_axes):
        sh = [1] * len(shape)
        sh[ax] = len(kvals)
        kk = np.abs(kvals.reshape(sh))
        mask &= kk <= max_freq
        weight = weight + kk**2
    c = np.where(mask, c, 0.0) / (1.0 + weight) ** (decay / 2.0)
    return SpectralField(grid=grid, kind=kind, coeffs=c, real_flag=not np.iscomplexobj(P))


# ---------------------------------------------------------------------------
# mixed norms


def _check_exponent(p) -> float:
    p = float(p)
    if not (p >= 1.0):
        raise ValueError(f"Lebesgue exponent must be in [1, inf], got {p}")
    return p


def mixed_norm(u: SpectralField, q, r) -> float:
    """L^q in time of the spatial L^r norm, by quadrature on the sample lattice.

    q = r = 2 recovers the plain Plancherel sum of squared coefficients.
    """
    q = _check_exponent(q)
    r = _check_exponent(r)
    if u.kind != SPACETIME:
        raise ValueError("mixed_norm needs a spacetime field")
    g = u.grid
    P = np.abs(inverse_transform(u))
    spatial_axes = tuple(range(1, g.n + 1))
    if math.isinf(r):
        slices = P.max(axis=spatial_axes)
    else:
        slices = (np.sum(P**r, axis=spatial_axes) * g.dx**g.n) ** (1.0 / r)
    if math.isinf(q):
        return float(slices.max())
    return float((np.sum(slices**q) * g.dt) ** (1.0 / q))


def _dual(p: float) -> float:
    if math.isinf(p):
        return 1.0
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


def _witness_dictionary(grid: Grid) -> list:
    """Fixed family of nonnegative-spectrum witnesses (frequency-index Gaussians)."""
    shape = grid.spacetime_shape
    kt = np.abs(np.fft.fftfreq(grid.N_t) * grid.N_t).reshape((grid.N_t,) + (1,) * grid.n)
    k2 = np.zeros(shape)
    for j in range(grid.n):
        sh = [1] * (grid.n + 1)
        sh[j + 1] = grid.N_x
        k2 = k2 + (np.abs(np.fft.fftfreq(grid.N_x) * grid.N_x).reshape(sh)) ** 2
    out = []
    dc = np.zeros(shape)
    dc[(0,) * (grid.n + 1)] = 1.0
    out.append(dc)
    for st in (0.5, 2.0, 8.0):
        for sx in (0.5, 2.0, 8.0):
            out.append(np.exp(-((kt / st) ** 2) - k2 / sx**2))
    return out


def _pairing_value(mod_u: np.ndarray, w_hat: np.ndarray, u: SpectralField, qd, rd) -> float:
    """sum |u_hat| w_hat divided by the (q',r') mixed norm of the witness."""
    pairing = float(np.sum(mod_u * w_hat))
    wfield = SpectralField(grid=u.grid, kind=SPACETIME, coeffs=w_hat.astype(complex))
    denom = mixed_norm(wfield, qd, rd)
    if denom == 0.0:
        return 0.0
    return pairing / denom


def modified_mixed_norm_detailed(u: SpectralField, q, r, max_steps: int = 60):
    """All three surrogate modes of the |hat u|-only mixed norm.

    Returns (lower, ascent, upper, ascent_converged).  The chain
    lower <= ascent <= upper holds by construction: `upper` dominates the
    duality pairing via Hoelder, `lower` maximizes the pairing over a witness
    family, and `ascent` refines the best witness by monotone line search.
    """
    q = _check_exponent(q)
    r = _check_exponent(r)
    if u.kind != SPACETIME:
        raise ValueError("modified mixed norm needs a spacetime field")
    qd, rd = _dual(q), _dual(r)
    mod = np.abs(u.coeffs)
    upper = mixed_norm(u.copy_with(mod.astype(complex), real_flag=False), q, r)

    witnesses = _witness_dictionary(u.grid)
    witnesses.append(mod.copy())
    vals = [_pairing_value(mod, w, u, qd, rd) for w in witnesses]
    best = int(np.argmax(vals))
    lower = float(vals[best])

    w = witnesses[best].copy()
    cur = lower
    gnorm = mod.max()
    converged = gnorm == 0.0
    if not converged:
        g = mod / gnorm
        for _ in range(max_steps):
            improved = False
            scale = w.max() if w.max() > 0 else 1.0
            for sigma in (1.0, 0.3, 0.1, 0.03, 0.01):
                cand = w + sigma * scale * g
                val = _pairing_value(mod, cand, u, qd, rd)
                if val > cur * (1.0 + 1e-12):
                    w, cur, improved = cand, val, True
                    break
            if not improved:
                converged = True
                break
    ascent = max(cur, lower)
    ascent = min(ascent, upper)
    return lower, ascent, upper, converged


def modified_mixed_norm(u: SpectralField, q, r, mode: str = "upper") -> float:
    lower, ascent, upper, _ = modified_mixed_norm_detailed(u, q, r)
    if mode == "upper":
        return upper
    if mode == "lower":
        return lower
    if mode == "ascent":
        return ascent
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# temporal cutoff


def _smoothstep7(x: np.ndarray) -> np.ndarray:
    """Degree-7 smoothstep: 0 at 0, 1 at 1, three vanishing derivatives at both ends."""
    x = np.clip(x, 0.0, 1.0)
    return x**4 * (35.0 - 84.0 * x + 70.0 * x**2 - 20.0 * x**3)


def cutoff_profile(grid: Grid, width: float) -> np.ndarray:
    """Values of the fixed C^3 bump on the time lattice (periodic distance to 0)."""
    if not (0.0 < width < grid.T_per):
        raise ValueError("cutoff width must satisfy 0 < width < T_per")
    t = grid.times()
    d = np.minimum(t, grid.T_per - t)
    half = width / 2.0
    out = np.zeros_like(d)
    out[d <= half] = 1.0
    trans = (d > half) & (d < width)
    out[trans] = _smoothstep7((width - d[trans]) / half)
    return out


def time_cutoff(u: SpectralField, width: float) -> SpectralField:
    """Multiply by the fixed temporal bump: 1 on |t| <= width/2, 0 outside |t| <= width."""
    if u.kind != SPACETIME:
        raise ValueError("time_cutoff needs a spacetime field")
    phi = cutoff_profile(u.grid, width).reshape((u.grid.N_t,) + (1,) * u.grid.n)
    P = inverse_transform(u) * phi
    out = transform(u.grid, P, SPACETIME)
    out.real_flag = u.real_flag
    out.zero_mode_projected = u.zero_mode_projected
    return out


# ---------------------------------------------------------------------------
# fine-lattice products
#
# Products of band-limited fields are formed on a lattice refined by `factor`
# per axis (3/2 keeps quadratics alias-free on the coarse band).  Pads and
# crops copy the nonnegative and the negative frequencies of each axis by
# slicing; real fields use a real FFT along the last axis.


def _fine_shape(shape: tuple, factor: float) -> tuple:
    return tuple(int(math.ceil(N * factor / 2.0)) * 2 for N in shape)


def _band_blocks(coarse: tuple, fine: tuple) -> list:
    """(coarse index, fine index) pairs of the blocks of the coarse band on the fine lattice."""
    halves = [((slice(0, N // 2), slice(0, N // 2)), (slice(N // 2, N), slice(M - N // 2, M)))
              for N, M in zip(coarse, fine)]
    return [tuple(zip(*block)) for block in itertools.product(*halves)]


def _pad(A: np.ndarray, fine: tuple) -> np.ndarray:
    out = np.zeros(fine, dtype=complex)
    for src, dst in _band_blocks(A.shape, fine):
        out[dst] = A[src]
    return out


def _crop(F: np.ndarray, coarse: tuple) -> np.ndarray:
    out = np.empty(coarse, dtype=complex)
    for dst, src in _band_blocks(coarse, F.shape):
        out[dst] = F[src]
    return out


def fine_samples(fieldv: SpectralField, factor: float = 1.5) -> np.ndarray:
    """Values of the band-limited interpolant (real parts for a real field) on a lattice
    refined by `factor`."""
    A = plane_wave_coeffs(fieldv)
    fine = _fine_shape(A.shape, factor)
    axes = tuple(range(A.ndim))
    if not fieldv.real_flag:
        return np.fft.ifftn(_pad(A, fine), axes=axes, norm="forward")
    N, h = A.shape[-1], A.shape[-1] // 2
    Y = np.fft.ifftn(_pad(A, fine[:-1] + (N,)), axes=axes[:-1], norm="forward")
    # Hermitian half along the last axis, Z_k = (Y_k + conj Y_-k) / 2 for
    # 0 < k <= N/2: the coarse Nyquist column -N/2 splits into two halves
    Z = np.zeros(Y.shape[:-1] + (h + 1,), dtype=complex)
    Z[..., :h] = Y[..., :h]
    Z[..., 1:] = 0.5 * (Z[..., 1:] + np.conj(Y[..., :h - 1:-1]))
    return np.fft.irfft(Z, n=fine[-1], axis=-1, norm="forward")


def field_from_fine_samples(grid: Grid, kind: str, P_fine: np.ndarray,
                            real_flag: bool = False) -> SpectralField:
    """Transform fine-lattice samples and truncate to the representable band."""
    shape = grid.shape_for(kind)
    axes = tuple(range(P_fine.ndim))
    if np.iscomplexobj(P_fine):
        A = _crop(np.fft.fftn(P_fine, axes=axes, norm="forward"), shape)
    else:
        h = shape[-1] // 2
        X = np.fft.rfft(P_fine, axis=-1, norm="forward")
        Y = np.concatenate([X[..., :h], np.conj(X[..., h:0:-1])], axis=-1)
        A = _crop(np.fft.fftn(Y, axes=axes[:-1], norm="forward"), shape)
    return from_plane_wave_coeffs(grid, A, kind, real_flag=real_flag)


def symbol_image(u: SpectralField, op=None) -> SpectralField:
    """u under one of the diagonal symbols of the product engine.

    op is None (identity), ("d", mu) for d/dx_mu with mu = 0 the time axis,
    or ("rr", j) for the Riesz product R_0 R_j, which projects out xi = 0.
    """
    if op is None:
        return u
    name, mu = op
    g = u.grid
    comp = g.tau_broadcast() if mu == 0 else g.xi_component(mu - 1, u.kind)
    if name == "d":
        return u.copy_with(u.coeffs * (1j * comp))
    if name != "rr":
        raise ValueError(f"unknown symbol {op!r}")
    ax2 = g.abs_xi(u.kind) ** 2
    sym = np.where(ax2 == 0.0, 0.0, -g.tau_broadcast() * comp / np.where(ax2 == 0.0, 1.0, ax2))
    return u.copy_with(u.coeffs * sym, real_flag=False, zero_mode_projected=True)


class FineLattice:
    """One evaluation's workspace for sums of products on a refined lattice.

    `samples(u, op)` pads u's image under a diagonal symbol (`symbol_image`) once per
    workspace; callers sum products of samples and `crop` each finished sum once.
    """

    def __init__(self, grid: Grid, kind: str = SPACETIME, factor: float = 1.5):
        self.grid, self.kind, self.factor = grid, kind, factor
        self.fine_shape = _fine_shape(grid.shape_for(kind), factor)
        self._memo = {}

    def samples(self, u: SpectralField, op=None) -> np.ndarray:
        key = (id(u), op)
        if key not in self._memo:
            # the memo holds u itself, so its id is not reused while cached
            self._memo[key] = (u, fine_samples(symbol_image(u, op), self.factor))
        return self._memo[key][1]

    def crop(self, P_fine: np.ndarray, real_flag: bool) -> SpectralField:
        return field_from_fine_samples(self.grid, self.kind, P_fine, real_flag=real_flag)


def dealiased_product(u: SpectralField, v: SpectralField, factor: float = 1.5) -> SpectralField:
    """Pointwise product with 3/2 zero-padding per axis (alias-free quadratics)."""
    if u.grid != v.grid or u.kind != v.kind:
        raise ValueError("fields must share grid and kind")
    eng = FineLattice(u.grid, u.kind, factor)
    out = eng.crop(eng.samples(u) * eng.samples(v), u.real_flag and v.real_flag)
    out.zero_mode_projected = u.zero_mode_projected or v.zero_mode_projected
    return out


# ---------------------------------------------------------------------------
# serialization (flat binary container, magic "NFLB1")

_HEADER = struct.Struct("<5sBBII dd")
_KIND_CODE = {SPATIAL: 0, SPACETIME: 1}
_KIND_NAME = {0: SPATIAL, 1: SPACETIME}


def write_field(fieldv: SpectralField, path) -> None:
    g = fieldv.grid
    head = _HEADER.pack(MAGIC, g.n, _KIND_CODE[fieldv.kind], g.N_t, g.N_x, g.T_per, g.L_per)
    flat = np.ascontiguousarray(fieldv.coeffs).ravel()
    payload = np.empty(2 * flat.size, dtype="<f8")
    payload[0::2] = flat.real
    payload[1::2] = flat.imag
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(payload.tobytes())


def read_field(path) -> SpectralField:
    """Load an NFLB1 container; a short header or a payload of the wrong length is an error."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"NFLB1 header needs {_HEADER.size} bytes, file has {len(raw)}")
    magic, n, kind_code, N_t, N_x, T_per, L_per = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError("not an NFLB1 container")
    if kind_code not in _KIND_NAME:
        raise ValueError(f"unknown NFLB1 kind code {kind_code}")
    grid = make_grid(n, N_t, N_x, T_per, L_per)
    kind = _KIND_NAME[kind_code]
    want, got = 16 * int(np.prod(grid.shape_for(kind))), len(raw) - _HEADER.size
    if got != want:
        raise ValueError(f"NFLB1 payload has {got} bytes, expected {want}")
    payload = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    coeffs = (payload[0::2] + 1j * payload[1::2]).reshape(grid.shape_for(kind))
    f = SpectralField(grid=grid, kind=kind, coeffs=coeffs)
    f.real_flag = f.hermitian_error() <= 1e-12 * max(1.0, float(np.max(np.abs(coeffs))))
    return f
