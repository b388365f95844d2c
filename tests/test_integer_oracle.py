"""An exact integer oracle for the 3/2-dealiased product, Q_0 and Q_ij.

With T_per = L_per = 2 pi every tau and xi on the lattice is an integer.  Fields with
Gaussian-integer plane-wave amplitudes then have a product, Q_0 and Q_ij whose band-limited
amplitudes are integers: sum over a + b = s in the band of w(a, b) A_a B_b, with the integer
symbols w = 1, tau_a lam_b - a.b and a_j b_i - a_i b_j.  The oracle sums them in int64 over
the one-sided band -N/2..N/2-1 of every axis, so the FFT route must match it to rounding and
any gap of order one is a convention defect, seen without a tolerance argument.  Orszag's 3/2
rule keeps the products alias-free on that band.

Real fields with Nyquist content are broken today: the real route takes the real part of
the interpolant, which splits a Nyquist coefficient between -N/2 and +N/2 where the one-sided
sum keeps it whole (ROADMAP item 2, cause (c)).
"""

import functools
import itertools
import math

import numpy as np
import pytest

from nflab.lattice import SPACETIME, dealiased_product, from_plane_wave_coeffs, make_grid
from nflab.nullform import BilinearFormSpec, apply_form

TWO_PI = 2.0 * math.pi
SIZES = {1: (8, 16), 2: (8, 8), 3: (4, 8)}  # n -> (N_t, N_x)
CAUSE_C = ("cause 2(c): a real field's Nyquist coefficient is split between -N/2 and +N/2 "
           "by the real route, kept whole by the one-sided band")


def _forms(n: int) -> list:
    return [("product", None), ("q0", None)] + [
        ("qij", (i, j)) for i, j in itertools.combinations(range(1, n + 1), 2)]


def _signed(shape) -> np.ndarray:
    """Signed indices -N/2..N/2-1 of every lattice point, flat in C order, shape (size, ndim)."""
    axes = [np.round(np.fft.fftfreq(N) * N).astype(np.int64) for N in shape]
    return np.stack([k.ravel() for k in np.meshgrid(*axes, indexing="ij")], axis=1)


def _amplitudes(shape, seed: int, case: str):
    """Gaussian-integer amplitudes (re, im) in -3..3: any ("complex"), or Hermitian,
    A(-k) = conj A(k), with every Nyquist plane zero ("real") or filled ("real-nyquist")."""
    rng = np.random.default_rng(seed)
    re, im = (rng.integers(-3, 4, size=shape) for _ in range(2))
    if case == "complex":
        return re, im
    flip = (slice(None, None, -1),) * len(shape)
    reflected = [np.roll(x[flip], 1, axis=tuple(range(len(shape)))) for x in (re, im)]
    re, im = re + reflected[0], im - reflected[1]  # G + conj G(-k): Hermitian integers
    if case == "real":
        K = _signed(shape).reshape(shape + (len(shape),))
        nyquist = np.any(K == -(np.array(shape) // 2), axis=-1)
        re, im = np.where(nyquist, 0, re), np.where(nyquist, 0, im)
    return re, im


def _direct_sums(shape, A, B, forms) -> dict:
    """form -> (re, im) int64 amplitudes of sum_{a+b=s in band} w(a, b) A_a B_b."""
    K = _signed(shape)
    half = np.array(shape) // 2
    (ar, ai), (br, bi) = ([x.ravel().astype(np.int64) for x in X] for X in (A, B))
    out = {key: (np.zeros(len(K), np.int64), np.zeros(len(K), np.int64)) for key in forms}
    for a in np.flatnonzero((ar != 0) | (ai != 0)):
        S = K + K[a]
        inband = np.all((S >= -half) & (S < half), axis=1)
        target = np.ravel_multi_index(tuple((S[inband] % np.array(shape)).T), shape)
        b = K[inband]
        re = ar[a] * br[inband] - ai[a] * bi[inband]
        im = ar[a] * bi[inband] + ai[a] * br[inband]
        for key in forms:
            form, pair = key
            if form == "product":
                w = 1
            elif form == "q0":
                w = K[a, 0] * b[:, 0] - b[:, 1:] @ K[a, 1:]
            else:
                i, j = pair
                w = K[a, j] * b[:, i] - K[a, i] * b[:, j]
            out[key][0][target] += w * re
            out[key][1][target] += w * im
    return {key: (r.reshape(shape), i.reshape(shape)) for key, (r, i) in out.items()}


@functools.cache
def _case(n: int, case: str):
    """(u, v, oracle): two fields of the case on the 2 pi lattice and their direct sums."""
    N_t, N_x = SIZES[n]
    g = make_grid(n, N_t, N_x, TWO_PI, TWO_PI)
    shape = g.spacetime_shape
    A, B = _amplitudes(shape, 10 * n + 1, case), _amplitudes(shape, 10 * n + 2, case)
    u, v = (from_plane_wave_coeffs(g, re + 1j * im, SPACETIME, real_flag=case != "complex")
            for re, im in (A, B))
    return u, v, _direct_sums(shape, A, B, _forms(n))


def _evaluate(form, pair, u, v):
    if form == "product":
        return dealiased_product(u, v)
    if form == "q0":
        return apply_form(BilinearFormSpec("q0"), u, v)
    return apply_form(BilinearFormSpec("qij", i=pair[0], j=pair[1]), u, v)


ROWS = [pytest.param(n, case, form, pair, id=f"{form}{''.join(map(str, pair or ()))}-n{n}-{case}",
                     marks=[pytest.mark.xfail(strict=True, reason=CAUSE_C)] * (
                         case == "real-nyquist"))
        for n in (1, 2, 3) for case in ("complex", "real", "real-nyquist")
        for form, pair in _forms(n)]


@pytest.mark.parametrize("n, case, form, pair", ROWS)
def test_forms_are_the_integer_direct_sum(n, case, form, pair):
    u, v, oracle = _case(n, case)
    re, im = oracle[(form, pair)]
    out = _evaluate(form, pair, u, v)
    got = out.coeffs / math.sqrt(u.grid.volume)  # plane-wave amplitudes
    assert out.real_flag == (case != "complex")
    assert np.max(np.abs(re)) > 0 and np.max(np.abs(im)) > 0
    assert np.max(np.abs(got.real - re)) < 1e-6 and np.max(np.abs(got.imag - im)) < 1e-6
