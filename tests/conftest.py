import math

import numpy as np
import pytest

from nflab.lattice import SPACETIME, SPATIAL, SpectralField, make_grid, transform

TWO_PI = 2.0 * math.pi


@pytest.fixture
def grid2d():
    return make_grid(2, 16, 16, TWO_PI, TWO_PI)


def axis_mode_field(grid, max_k, seed):
    """Spatial field supported on axis-aligned modes, so |xi| is an integer.

    Half waves built from such data are exactly periodic on the 2*pi time
    box, which keeps the dual-route identity tests at machine precision.
    """
    rng = np.random.default_rng(seed)
    c = np.zeros(grid.spatial_shape, dtype=complex)
    N = grid.N_x
    for k in range(0, max_k + 1):
        for axis in range(grid.n):
            for sgn in (1, -1):
                pos = [0] * grid.n
                pos[axis] = (sgn * k) % N
                c[tuple(pos)] = rng.standard_normal() + 1j * rng.standard_normal()
    return SpectralField(grid=grid, kind=SPATIAL, coeffs=c)


def banded_spacetime_field(grid, kt_max, kx_max, seed):
    """Random spacetime spectrum with band limits small enough that pairwise
    frequency sums stay inside the lattice band (no wrap in convolutions); the
    tau = 0 plane is included."""
    rng = np.random.default_rng(seed)
    c = np.zeros(grid.spacetime_shape, dtype=complex)
    for kt in range(-kt_max, kt_max + 1):
        for idx in np.ndindex(*(2 * kx_max + 1,) * grid.n):
            ks = tuple(i - kx_max for i in idx)
            pos = (kt % grid.N_t,) + tuple(k % grid.N_x for k in ks)
            c[pos] = rng.standard_normal() + 1j * rng.standard_normal()
    return SpectralField(grid=grid, kind=SPACETIME, coeffs=c)


def single_mode_field(grid, kt, ks, amp=1.0):
    c = np.zeros(grid.spacetime_shape, dtype=complex)
    pos = (kt % grid.N_t,) + tuple(k % grid.N_x for k in ks)
    c[pos] = amp
    return SpectralField(grid=grid, kind=SPACETIME, coeffs=c)


def full_band_field(rng, grid, kind, which):
    """A field with every mode filled (the tau = 0 plane, every Nyquist plane, the zero
    mode): a real field from real samples ("real"), non-Hermitian coefficients flagged real
    ("real_flag"), or a complex field ("complex")."""
    shape = grid.shape_for(kind)
    if which == "real":
        return transform(grid, rng.standard_normal(shape), kind)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SpectralField(grid=grid, kind=kind, coeffs=c, real_flag=which == "real_flag")
