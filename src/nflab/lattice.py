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

The mixed representation (time slice x spatial mode) is one time FFT of the
plane-wave coefficients; the real part of a real field's samples is taken as
the Hermitian projection (c + conj c(-Xi)) / 2 of its coefficients.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * math.pi

SPACETIME = "spacetime"
SPATIAL = "spatial"

MAGIC = b"NFLB1"

MAX_ASCENT_STEPS = 60  # line-search steps of the modified norm's ascent mode


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

    def refined(self) -> "Grid":
        """The lattice with N_t and N_x doubled, on the same periods."""
        return replace(self, N_t=2 * self.N_t, N_x=2 * self.N_x)


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
    if not (0 < T_per < math.inf and 0 < L_per < math.inf):
        raise ValueError("periods must be positive and finite")
    return Grid(n=n, N_t=int(N_t), N_x=int(N_x), T_per=float(T_per), L_per=float(L_per))


@dataclass(frozen=True)
class FrequencyPoint:
    """A single space-time frequency (tau, xi)."""

    tau: float
    xi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))


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
        return float(np.max(np.abs(self.coeffs - _conj_reflected(self.coeffs))))


def _conj_reflected(c: np.ndarray) -> np.ndarray:
    """conj c(-Xi): index k goes to -k mod N on every axis (reverse all axes, shift by one)."""
    return np.conj(np.roll(np.flip(c), 1, axis=tuple(range(c.ndim))))


def _hermitian_part(c: np.ndarray) -> None:
    """c <- (c + conj c(-Xi)) / 2 in place, the real part of the samples; exactly Hermitian."""
    c += _conj_reflected(c)
    c *= 0.5


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
    return fieldv.coeffs * (1.0 / math.sqrt(_measure(fieldv.grid, fieldv.kind)))


def from_plane_wave_coeffs(grid: Grid, A: np.ndarray, kind: str, real_flag=False) -> SpectralField:
    c = np.asarray(A, dtype=complex) * math.sqrt(_measure(grid, kind))
    return SpectralField(grid=grid, kind=kind, coeffs=c, real_flag=real_flag)


def time_spatial_rep(fieldv: SpectralField) -> np.ndarray:
    """Mixed representation a[j, xi]: per-time-slice plane-wave amplitudes.

    u(t_j, x) = sum_xi a[j, xi] exp(i xi . x): one inverse time FFT of the plane-wave
    coefficients, Hermitian-projected first for a real field (the real part of its samples).
    """
    if fieldv.kind != SPACETIME:
        raise ValueError("mixed representation needs a spacetime field")
    A = plane_wave_coeffs(fieldv).astype(complex, copy=False)  # a fresh temporary
    if fieldv.real_flag:
        _hermitian_part(A)
    return np.fft.ifft(A, axis=0, norm="forward", out=A)


def from_time_spatial_rep(grid: Grid, a: np.ndarray, real_flag=False) -> SpectralField:
    """Spacetime field of a mixed representation: one time FFT, Hermitian-projected after it
    if real_flag, so the field is then exactly Hermitian.  The caller's real_flag is kept, as
    in from_plane_wave_coeffs: no sample-space check runs."""
    A = np.fft.fft(a, axis=0, norm="forward")
    if real_flag:
        _hermitian_part(A)
    return from_plane_wave_coeffs(grid, A, SPACETIME, real_flag=real_flag)


def _index_axes(shape: tuple) -> list:
    """Signed indices -N/2..N/2-1 of each axis of `shape`, in FFT order and broadcastable."""
    return np.meshgrid(*(np.fft.fftfreq(N) * N for N in shape), indexing="ij", sparse=True)


def random_field(grid: Grid, kind: str, seed: int, max_freq: int | None = None,
                 real: bool = True, decay: float = 1.0) -> SpectralField:
    """Seeded random band-limited field; spectrum supported on |k_axis| <= max_freq."""
    rng = np.random.default_rng(seed)
    shape = grid.shape_for(kind)
    P = rng.standard_normal(shape)
    if not real:
        P = P + 1j * rng.standard_normal(shape)
    f = transform(grid, P, kind)
    if max_freq is None:
        max_freq = (grid.N_x // 4)
    kk = [np.abs(k) for k in _index_axes(shape)]
    inband = functools.reduce(np.maximum, kk) <= max_freq
    c = np.where(inband, f.coeffs, 0.0) / (1.0 + sum(k**2 for k in kk)) ** (decay / 2.0)
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
    kt, *kx = (np.abs(k) for k in _index_axes(shape))
    k2 = sum(k**2 for k in kx)
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


def _holder_upper(u: SpectralField, q, r):
    """Checked (q, r), mod = |hat u| and the Hoelder upper bound: the (q, r) mixed norm of mod."""
    q, r = _check_exponent(q), _check_exponent(r)
    if u.kind != SPACETIME:
        raise ValueError("modified mixed norm needs a spacetime field")
    mod = np.abs(u.coeffs)
    return q, r, mod, mixed_norm(u.copy_with(mod.astype(complex), real_flag=False), q, r)


def modified_mixed_norm_detailed(u: SpectralField, q, r):
    """All three surrogate modes of the |hat u|-only mixed norm.

    Returns (lower, ascent, upper, ascent_converged).  The chain
    lower <= ascent <= upper holds by construction: `upper` dominates the
    duality pairing via Hoelder, `lower` maximizes the pairing over a witness
    family, and `ascent` refines the best witness by monotone line search of at
    most MAX_ASCENT_STEPS (60) steps; ascent_converged is False when the last
    step still improved.
    """
    q, r, mod, upper = _holder_upper(u, q, r)
    qd, rd = _dual(q), _dual(r)

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
        for _ in range(MAX_ASCENT_STEPS):
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
    ascent = min(cur, upper)
    return lower, ascent, upper, converged


def modified_mixed_norm(u: SpectralField, q, r) -> float:
    """The Hoelder upper bound of the |hat u|-only mixed norm: one mixed norm of |hat u|,
    bit for bit the upper surrogate of modified_mixed_norm_detailed."""
    return _holder_upper(u, q, r)[3]


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
    a = phi * time_spatial_rep(u)
    return u.copy_with(from_time_spatial_rep(u.grid, a, real_flag=u.real_flag).coeffs)


# ---------------------------------------------------------------------------
# worker pool
#
# One executor of NFLAB_THREADS - 1 workers, sized at its first use, runs `pmap`
# items beside the caller, so pool threads never outnumber the malloc arenas.
# A call from inside an item runs inline, so no pool thread ever waits on the
# pool.  Results come in item order, and no item's bits may depend on the thread
# that runs it; an item's error is raised once the other items have finished.

_inline = threading.local()

# glibc mallopt parameters: an arena per pool thread, and heaps that keep their freed pages
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8


@functools.cache
def _malloc_policy() -> None:
    """Keep freed fine-lattice temporaries in resident heaps, one per pool thread (glibc only).

    At glibc's dynamic thresholds every freed 0.3-5 MB numpy temporary goes
    back to the kernel and is faulted in again at the next allocation.  Set
    before the pool's first thread, NFLAB_THREADS arenas give the caller and
    each worker a heap of its own (numpy's FFT loops allocate with the GIL
    released, and threads sharing an arena queue on its lock); blocks under
    32 MB come from them, each trimmed only past 64 MB of free top.  Without
    `mallopt` nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in ((_M_ARENA_MAX, _threads()), (_M_TRIM_THRESHOLD, 64 << 20),
                         (_M_MMAP_THRESHOLD, 32 << 20)):
        mallopt(param, value)


def _threads() -> int:
    try:
        return max(1, int(os.environ.get("NFLAB_THREADS", "")))
    except ValueError:
        return max(1, os.cpu_count() or 1)


@functools.cache
def _executor() -> ThreadPoolExecutor:
    return ThreadPoolExecutor(_threads() - 1, "nflab", setattr, (_inline, "on", True))


def pmap(func, items) -> list:
    """[func(x) for x in items], the caller working through them beside the pool's workers."""
    _malloc_policy()
    items, loops = list(items), min(_threads(), len(items))
    if loops < 2 or getattr(_inline, "on", False):
        return [func(x) for x in items]
    out, order = [None] * len(items), itertools.count()

    def drain():
        while (i := next(order)) < len(items):
            try:
                out[i] = (func(items[i]), None)
            except Exception as exc:
                out[i] = (None, exc)

    futures = [_executor().submit(drain) for _ in range(loops - 1)]
    _inline.on = True
    try:
        drain()
    finally:
        _inline.on = False
    for f in futures:
        f.cancel() or f.result()  # a drain no worker started has nothing left to run
    for _, exc in out:
        if exc is not None:
            raise exc
    return [result for result, _ in out]


# ---------------------------------------------------------------------------
# fine-lattice products
#
# Products of band-limited fields are formed on a lattice refined by `factor`
# per axis (3/2 keeps quadratics alias-free on the coarse band).  The factor
# must exceed 1, since at 1 a product aliases; so every fine axis is longer
# than its coarse one, and a pad keeps the -N/2 and +N/2 rows apart.  Pads
# and crops go one axis at a time in ifftn's order, last axis first.  A pad
# zero-pads only the axis it is about to transform, and a crop cuts an axis to
# the band right after its forward transform, so rows still all zero, or
# dropped, are never transformed.  Every row that is transformed holds the
# values and goes through the 1-D transform of a full-box ifftn/fftn, so the
# pruned passes keep the full-box bits.  In-place transforms act only on the
# engine's own temporaries.
#
# A real field's fine samples are the real part of its interpolant, whose
# coefficients are the Hermitian fold W = (Y + conj Y(-Xi)) / 2, taken on the
# coarse lattice: each leading axis holds the centred band -N/2..N/2 (the
# reflected partner of the -N/2 row lands on +N/2), the last axis only the
# columns 0..N/2 that the closing irfft reads.  A crop of real samples mirrors
# it: an rfft, the same centred bands B, and coarse column -k = conj B(-j, k).
#
# One operand's images share a pass tree (`fine_images`): the coefficients are
# folded or scaled once, and each derivative i xi_mu, diagonal along axis mu,
# is applied just before the pass over that axis, sharing every pass before
# it.  On the folded band the +N/2 row takes xi = +N/2: the fold of the
# derivative's coefficients, Nyquist rows included.  An R_0 R_j image mixes
# the axes and is a one-leaf tree of its own.  `nullform.combine_forms` (every
# q0, qij and qtilde sum) walks `planned_pads` over the images (u, op) in order
# of use: a miss pads every planned image of its tree, beside the next unpadded
# tree on `pmap`, and an image is dropped at its last planned use.  No image's
# bits depend on its siblings or the pairing.  `dealiased_product` pads each
# distinct operand with `fine_samples`, on one `pmap` call.


def _fine_shape(shape: tuple, factor: float) -> tuple:
    if not (math.isfinite(factor) and factor > 1.0):
        raise ValueError(f"refinement factor must be finite and > 1, got {factor!r}")
    return tuple(int(math.ceil(N * factor / 2.0)) * 2 for N in shape)


def _ifft_padded(A: np.ndarray, ax: int, M: int) -> np.ndarray:
    """Zero-pad axis ax of A to length M and inverse-transform it in place.  An axis of even
    length N holds its band in FFT order, one of odd length the centred band -h..h, h = N // 2."""
    lead, N = (slice(None),) * ax, A.shape[ax]
    h = N // 2
    pos, neg = (slice(h, N), slice(0, h)) if N % 2 else (slice(0, h), slice(h, N))
    B = np.empty(A.shape[:ax] + (M,) + A.shape[ax + 1:], dtype=complex)
    B[lead + (slice(0, N - h),)] = A[lead + (pos,)]
    B[lead + (slice(N - h, M - h),)] = 0.0
    B[lead + (slice(M - h, M),)] = A[lead + (neg,)]
    return np.fft.ifft(B, axis=ax, norm="forward", out=B)


def _cropped(F: np.ndarray, ax: int, N: int, centred: bool = False) -> np.ndarray:
    """The length-N band of axis ax of F in FFT order, or `centred` its band -N/2..N/2."""
    lead, h, M = (slice(None),) * ax, N // 2, F.shape[ax]
    pos, neg = F[lead + (slice(0, h + centred),)], F[lead + (slice(M - h, M),)]
    return np.concatenate((neg, pos) if centred else (pos, neg), axis=ax)


@functools.lru_cache(maxsize=32)
def _centred_blocks(shape: tuple) -> tuple:
    """Block pairs (centred, FFT order) of index tuples that carry rows -N/2..N/2-1 of every
    axis of `shape` between FFT order and the centred band -N/2..N/2 (whose +N/2 row is in no
    block)."""
    halves = [((slice(h, 2 * h), slice(0, h)), (slice(0, h), slice(h, 2 * h)))
              for h in (N // 2 for N in shape)]
    return tuple((tuple(b for b, _ in block), tuple(f for _, f in block))
                 for block in itertools.product(*halves))


def _folded_half_spectrum(Y: np.ndarray) -> np.ndarray:
    """W = (Y + conj Y(-Xi)) / 2 on the centred bands -N/2..N/2 of the leading axes and the
    columns 0..N/2 of the last axis; Y is zero outside its band."""
    lead, h = Y.shape[:-1], Y.shape[-1] // 2
    W = np.zeros(tuple(N + 1 for N in lead) + (h + 1,), dtype=complex)
    R = np.zeros_like(W)  # R(j, k) = Y(j, -k), reflected on the leading axes below
    for band, fft in _centred_blocks(lead):
        W[band + (slice(0, h),)] = Y[fft + (slice(0, h),)]
        R[band + (slice(0, 1),)] = Y[fft + (slice(0, 1),)]
        R[band + (slice(1, h + 1),)] = Y[fft + (slice(None, h - 1, -1),)]
    W += np.conjugate(R, out=R)[(slice(None, None, -1),) * len(lead)]
    W *= 0.5
    return W


def fine_samples(fieldv: SpectralField, factor: float = 1.5) -> np.ndarray:
    """Values of the band-limited interpolant on a lattice refined by `factor`, the real part
    of it for a real-flagged field: the one-leaf case of `fine_images`."""
    return fine_images(fieldv, [None], factor)[0]


def fine_images(fieldv: SpectralField, ops, factor: float = 1.5) -> list:
    """[fine_samples(symbol_image(fieldv, op), factor) for op in ops] by pass trees: one on
    fieldv's folded or scaled coefficients for the identity and the derivatives, and one
    one-leaf tree rooted at symbol_image(fieldv, op) per R_0 R_j."""
    fine = _fine_shape(fieldv.coeffs.shape, factor)
    tree = [op for op in ops if op is None or op[0] == "d"]
    out = _pass_tree(fieldv, tree, fine) if tree else {}
    out.update((op, _pass_tree(symbol_image(fieldv, op), [None], fine)[None])
               for op in ops if op not in out)
    return [out[op] for op in ops]


def _pass_tree(f: SpectralField, leaves, fine: tuple) -> dict:
    """op -> fine samples of symbol_image(f, op), op in leaves None or ("d", mu)."""
    X, d, real = plane_wave_coeffs(f), f.coeffs.ndim, f.real_flag
    order = [*range(d - 2, -1, -1), d - 1] if real else list(range(d - 1, -1, -1))
    X = _folded_half_spectrum(X) if real else X

    def passes(Z, axes):
        for ax in axes:
            Z = (np.fft.irfft(Z, n=fine[ax], axis=ax, norm="forward") if real and ax == d - 1
                 else _ifft_padded(Z, ax, fine[ax]))
        return Z

    # a derivative branches off at the pass over its axis, the identity after the last pass
    branches = sorted([(order.index(ax), op, xi) for op in leaves if op is not None
                       for ax, xi in [_symbol_axis(f.grid, f.kind, op, real)]], key=lambda b: b[0])
    out, done = {}, 0
    for k, op, xi in branches + [(d, None, None)] * (None in leaves):
        X, done = passes(X, order[done:k]), k
        out[op] = X if op is None else passes(X * (1j * xi), order[k:])
    return out


def field_from_fine_samples(grid: Grid, kind: str, P_fine: np.ndarray,
                            real_flag: bool = False) -> SpectralField:
    """Transform fine-lattice samples and truncate to the representable band."""
    shape = grid.shape_for(kind)
    d = P_fine.ndim - 1
    if np.iscomplexobj(P_fine):
        A = _cropped(np.fft.fft(P_fine, axis=-1, norm="forward"), d, shape[-1])
        for ax in reversed(range(d)):
            A = _cropped(np.fft.fft(A, axis=ax, norm="forward", out=A), ax, shape[ax])
        return from_plane_wave_coeffs(grid, A, kind, real_flag=real_flag)
    h = shape[-1] // 2
    B = np.fft.rfft(P_fine, axis=-1, norm="forward")[..., :h + 1]
    for ax in reversed(range(d)):
        B = _cropped(np.fft.fft(B, axis=ax, norm="forward", out=B), ax, shape[ax], centred=True)
    A = np.empty(shape, dtype=complex)
    B_reflected = B[(slice(None, None, -1),) * d]
    for band, fft in _centred_blocks(shape[:-1]):
        A[fft + (slice(0, h),)] = B[band + (slice(0, h),)]
        np.conjugate(B_reflected[band + (slice(h, 0, -1),)], out=A[fft + (slice(h, None),)])
    return from_plane_wave_coeffs(grid, A, kind, real_flag=real_flag)


@functools.lru_cache(maxsize=64)
def _symbol_axis(g: Grid, kind: str, op, centred: bool = False) -> tuple:
    """(coefficient axis, xi_mu laid along it) of the symbol op = (name, mu) on a field of this
    kind, op checked as symbol_image states; xi in FFT order or, `centred`, on a real field's
    folded band -N/2..N/2, whose +N/2 row takes xi = +N/2 (columns 0..N/2 of the last axis)."""
    name, mu = op
    if name not in ("d", "rr"):
        raise ValueError(f"unknown symbol {op!r}")
    if kind != SPACETIME and (mu == 0 or name == "rr"):
        raise ValueError(("d/dt" if name == "d" else f"R_0 R_{mu}") + " needs a spacetime field")
    lo = 0 if name == "d" and kind == SPACETIME else 1
    if mu not in range(lo, g.n + 1):
        raise ValueError(f"symbol {op!r} needs an axis in {lo}..{g.n} on a {kind} field "
                         f"of dimension n = {g.n}")
    ax, ndim = mu - (kind != SPACETIME), len(g.shape_for(kind))
    xi = g.tau() if mu == 0 else g.xi_axis()
    if centred:
        h = len(xi) // 2
        xi = np.append(np.fft.fftshift(xi), -xi[h])[h if ax == ndim - 1 else 0:]
    xi = xi.reshape([-1 if i == ax else 1 for i in range(ndim)])
    xi.flags.writeable = False
    return ax, xi


def symbol_image(u: SpectralField, op=None) -> SpectralField:
    """u under one of the diagonal symbols of the product engine.

    op is None (identity), ("d", mu) for d/dx_mu with mu = 0 the time axis (mu in 0..n on
    a spacetime field, 1..n on a spatial one), or ("rr", j), j in 1..n, for the Riesz
    product R_0 R_j, which projects out xi = 0.
    """
    if op is None:
        return u
    comp = _symbol_axis(u.grid, u.kind, op)[1]
    if op[0] == "d":
        return u.copy_with(u.coeffs * (1j * comp))
    g = u.grid
    ax2 = g.abs_xi(u.kind) ** 2
    sym = np.where(ax2 == 0.0, 0.0, -g.tau_broadcast() * comp / np.where(ax2 == 0.0, 1.0, ax2))
    return u.copy_with(u.coeffs * sym, real_flag=False, zero_mode_projected=True)


def _pad_tree(tree) -> zip:
    """((id(f), op), fine samples) for each image op of the pass tree (f, ops)."""
    f, ops = tree
    return zip([(id(f), op) for op in ops], fine_images(f, list(ops)))


def planned_pads(plan):
    """Yield the fine samples of each image (u, op) of the list `plan`, the images of one
    evaluation's product sums in order of use, each padded once and let go at its last use
    (see the comment above).  `plan` holds its fields, so their ids stay theirs."""
    trees, last, pads = {}, {}, {}
    for i, (u, op) in enumerate(plan):
        trees.setdefault((id(u), op if op and op[0] == "rr" else None), (u, {}))[1][op] = None
        last[id(u), op] = i
    for i, (u, op) in enumerate(plan):
        if (id(u), op) not in pads:  # the first use of the first unpadded tree; padded
            # straight into `pads`, since a list of images held in a local outlives their use
            pads.update(kv for images in pmap(_pad_tree, [trees.pop(r) for r in list(trees)[:2]])
                        for kv in images)
        yield pads.pop((id(u), op)) if last[id(u), op] == i else pads[id(u), op]


def dealiased_product(u: SpectralField, v: SpectralField, factor: float = 1.5) -> SpectralField:
    """Pointwise product with 3/2 zero-padding per axis (alias-free quadratics)."""
    if u.grid != v.grid or u.kind != v.kind:
        raise ValueError("fields must share grid and kind")
    P, *Q = pmap(lambda f: fine_samples(f, factor), [u] if u is v else [u, v])
    P = np.multiply(P, Q.pop() if Q else P)  # both pads go before the crop
    out = field_from_fine_samples(u.grid, u.kind, P, real_flag=u.real_flag and v.real_flag)
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
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(np.ascontiguousarray(fieldv.coeffs, dtype="<c16").tobytes())


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
    want, got = 16 * math.prod(grid.shape_for(kind)), len(raw) - _HEADER.size
    if got != want:
        raise ValueError(f"NFLB1 payload has {got} bytes, expected {want}")
    payload = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size)
    coeffs = payload.reshape(grid.shape_for(kind)).astype(complex)
    f = SpectralField(grid=grid, kind=kind, coeffs=coeffs)
    f.real_flag = f.hermitian_error() <= 1e-12 * max(1.0, float(np.max(np.abs(coeffs))))
    return f
