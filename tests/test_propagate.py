import math

import numpy as np
import pytest

from nflab.lattice import (SPACETIME, SPATIAL, SpectralField, inverse_transform,
                           make_grid, random_field, time_spatial_rep, transform)
from nflab.multiplier import SpaceIndex, spatial_hs_norm, ws_norm
from nflab.propagate import (CauchyData, Step1Report, _duhamel_tables, duhamel,
                             duhamel_mixed, half_wave, homogeneous, homogeneous_spacetime,
                             homogeneous_velocity, pm_decompose, signed_times,
                             step1_bound_check)

TWO_PI = 2.0 * math.pi


def _data(grid, seed, velocity=True):
    f = random_field(grid, SPATIAL, seed, max_freq=3)
    g = random_field(grid, SPATIAL, seed + 1, max_freq=3) if velocity else \
        transform(grid, np.zeros(grid.spatial_shape), SPATIAL)
    return CauchyData(f, g)


def test_cauchy_data_guards(grid2d):
    f = random_field(grid2d, SPATIAL, 0, real=True)
    other = random_field(make_grid(2, 16, 8, TWO_PI, TWO_PI), SPATIAL, 1, real=True)
    with pytest.raises(ValueError, match="^Cauchy data must live on one grid$"):
        CauchyData(f, other)
    with pytest.raises(ValueError, match="^Cauchy data must be spatial fields$"):
        CauchyData(f, random_field(grid2d, SPACETIME, 2, real=True))
    with pytest.raises(ValueError, match="^real_flag must be consistent across the pair$"):
        CauchyData(f, random_field(grid2d, SPATIAL, 3, real=False))


def test_half_wave_guards(grid2d):
    with pytest.raises(ValueError, match="^half_wave acts on spatial fields$"):
        half_wave(1, 0.5, random_field(grid2d, SPACETIME, 0))
    for sign in (0, 2, -2):
        with pytest.raises(ValueError, match=r"^sign must be \+1 or -1$"):
            half_wave(sign, 0.5, random_field(grid2d, SPATIAL, 0))


def test_half_wave_identity_at_zero(grid2d):
    f = random_field(grid2d, SPATIAL, 0, real=False)
    out = half_wave(1, 0.0, f)
    assert np.array_equal(out.coeffs, f.coeffs)


def test_half_wave_hs_isometry(grid2d):
    f = random_field(grid2d, SPATIAL, 1, real=False)
    for t in (0.3, 1.7, -2.2):
        out = half_wave(1, t, f)
        for s in (0.0, 1.3):
            a = spatial_hs_norm(out.coeffs, grid2d, s)
            b = spatial_hs_norm(f.coeffs, grid2d, s)
            assert abs(a - b) <= 1e-12 * b


def test_half_wave_composition(grid2d):
    f = random_field(grid2d, SPATIAL, 2, real=False)
    a = half_wave(1, 0.4, half_wave(1, 0.9, f))
    b = half_wave(1, 1.3, f)
    assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12 * np.max(np.abs(b.coeffs))


def test_homogeneous_initial_data(grid2d):
    d = _data(grid2d, 3)
    out = homogeneous(d, 0.0)
    assert np.max(np.abs(out.coeffs - d.f.coeffs)) <= 1e-13


def test_homogeneous_mean_mode_linear_growth(grid2d):
    g0 = np.zeros(grid2d.spatial_shape, dtype=complex)
    g0[0, 0] = 1.0
    zero = SpectralField(grid=grid2d, kind=SPATIAL,
                         coeffs=np.zeros(grid2d.spatial_shape, dtype=complex))
    d = CauchyData(zero, SpectralField(grid=grid2d, kind=SPATIAL, coeffs=g0))
    for t in (0.5, 2.0):
        out = homogeneous(d, t)
        assert abs(out.coeffs[0, 0] - t) <= 1e-13


def test_homogeneous_per_mode_energy_conservation(grid2d):
    d = _data(grid2d, 4)
    ax = grid2d.abs_xi(SPATIAL)
    e0 = None
    for t in np.linspace(0.0, 3.0, 7):
        u = homogeneous(d, t)
        v = homogeneous_velocity(d, t)
        e = ax**2 * np.abs(u.coeffs) ** 2 + np.abs(v.coeffs) ** 2
        if e0 is None:
            e0 = e
        drift = np.max(np.abs(e - e0)) / max(np.max(e0), 1e-300)
        assert drift <= 1e-10


def test_homogeneous_discrete_wave_residual_second_order():
    # centered second time difference of the per-mode analytic evolution
    # satisfies the wave equation to O(dt^2)
    res = []
    for Nt in (32, 64):
        g = make_grid(2, Nt, 8, 1.0, TWO_PI)
        d = _data(g, 20)
        ax = g.abs_xi(SPATIAL)
        t = g.times()[: Nt // 2]
        coeffs = np.stack([homogeneous(d, tj).coeffs for tj in t])
        dtt = (coeffs[2:] - 2 * coeffs[1:-1] + coeffs[:-2]) / g.dt**2
        resid = -dtt - ax**2 * coeffs[1:-1]
        res.append(float(np.max(np.abs(resid))))
    assert res[1] <= res[0] / 3.0  # about fourfold reduction per doubling


def test_homogeneous_half_wave_consistency(grid2d):
    f = random_field(grid2d, SPATIAL, 5, real=False)
    zero = SpectralField(grid=grid2d, kind=SPATIAL,
                         coeffs=np.zeros(grid2d.spatial_shape, dtype=complex),
                         real_flag=f.real_flag)
    d = CauchyData(f, zero)
    for t in (0.7, 1.9):
        direct = homogeneous(d, t).coeffs
        split = 0.5 * (half_wave(1, t, f).coeffs + half_wave(-1, t, f).coeffs)
        assert np.max(np.abs(direct - split)) <= 1e-13 * max(np.max(np.abs(direct)), 1e-300)


def test_duhamel_constant_force_exact():
    g = make_grid(1, 32, 8, 1.0, TWO_PI)
    F = transform(g, np.ones(g.spacetime_shape), SPACETIME)
    P = inverse_transform(duhamel(F))
    ts = signed_times(g)
    assert np.max(np.abs(P - (-ts[:, None] ** 2 / 2.0))) <= 1e-12


def test_duhamel_resonance_second_order():
    errs = []
    for Nt in (64, 128, 256):
        g = make_grid(1, Nt, 8, 1.0, TWO_PI)
        w = 2.0
        a_F = np.zeros((Nt, 8), dtype=complex)
        ts = signed_times(g)
        a_F[:, 2] = np.sin(w * ts)
        a_u = duhamel_mixed(g, a_F)
        exact = -(np.sin(w * ts) - w * ts * np.cos(w * ts)) / (2.0 * w * w)
        errs.append(float(np.max(np.abs(a_u[:, 2] - exact))))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert abs(order1 - 2.0) <= 0.2 and abs(order2 - 2.0) <= 0.2
    assert errs[-1] <= 1e-5


def test_duhamel_wave_residual_second_order():
    # centered second difference of the solution reproduces F at interior times
    res = []
    for Nt in (64, 128):
        g = make_grid(2, Nt, 8, 1.0, TWO_PI)
        F = random_field(g, SPACETIME, 6, max_freq=2)
        a_F = time_spatial_rep(F)
        a_u = duhamel_mixed(g, a_F)
        ax = g.abs_xi(SPATIAL)
        j = slice(1, Nt // 2 - 1)
        dtt = (a_u[2:Nt // 2] - 2 * a_u[1:Nt // 2 - 1] + a_u[0:Nt // 2 - 2]) / g.dt**2
        resid = -dtt - ax**2 * a_u[j] - a_F[j]
        res.append(float(np.max(np.abs(resid))))
    assert res[1] <= res[0] / 2.5  # about fourfold reduction per doubling
    assert res[0] <= 1e-2 * max(1.0, float(np.max(np.abs(a_F))))


def test_duhamel_linearity(grid2d):
    F = random_field(grid2d, SPACETIME, 7, real=False)
    G = random_field(grid2d, SPACETIME, 8, real=False)
    comb = F.copy_with(2.0 * F.coeffs - 3.0 * G.coeffs)
    lhs = duhamel(comb).coeffs
    rhs = 2.0 * duhamel(F).coeffs - 3.0 * duhamel(G).coeffs
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(np.max(np.abs(rhs)), 1e-300)


def _loop_homogeneous_spacetime(data):
    """Reference: one mode-factor evaluation per time slice."""
    g = data.f.grid
    A_f, A_g = data.f.coeffs / math.sqrt(g.spatial_volume), data.g.coeffs / math.sqrt(g.spatial_volume)
    ax = g.abs_xi(SPATIAL)
    zero = ax == 0.0
    safe = np.where(zero, 1.0, ax)
    out = np.empty((g.N_t,) + g.spatial_shape, dtype=complex)
    for j, t in enumerate(signed_times(g)):
        out[j] = np.cos(t * ax) * A_f + np.where(zero, t, np.sin(t * safe) / safe) * A_g
    return out


def _two_branch_duhamel_mixed(grid, a_F):
    """Reference: separate forward and backward running sums."""
    ax = grid.abs_xi(SPATIAL)
    zero = ax == 0.0
    safe = np.where(zero, 1.0, ax)
    half = grid.N_t // 2
    tb = signed_times(grid).reshape((grid.N_t,) + (1,) * grid.n)

    def solve_branch(y):
        csum = np.zeros_like(y)
        csum[1:] = np.cumsum(0.5 * grid.dt * (y[1:] + y[:-1]), axis=0)
        return csum

    def back_branch(y):
        csum = np.zeros_like(y)
        csum[1:] = -np.cumsum(0.5 * grid.dt * (y[1:] + y[:-1]), axis=0)
        return csum

    out = np.empty_like(a_F)
    pos = slice(0, half)
    cos_g, sin_g = np.cos(safe * tb), np.sin(safe * tb)
    C, S = solve_branch(cos_g[pos] * a_F[pos]), solve_branch(sin_g[pos] * a_F[pos])
    osc = -(sin_g[pos] * C - cos_g[pos] * S) / safe
    lin = -(tb[pos] * solve_branch(a_F[pos]) - solve_branch(tb[pos] * a_F[pos]))
    out[pos] = np.where(zero, lin, osc)
    order = np.concatenate([[0], np.arange(grid.N_t - 1, half - 1, -1)])
    yb, tsb = a_F[order], tb[order]
    Cb, Sb = back_branch(np.cos(safe * tsb) * yb), back_branch(np.sin(safe * tsb) * yb)
    oscb = -(np.sin(safe * tsb) * Cb - np.cos(safe * tsb) * Sb) / safe
    linb = -(tsb * back_branch(yb) - back_branch(tsb * yb))
    out[order[1:]] = np.where(zero, linb, oscb)[1:]
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("N_t", [2, 4, 16])
def test_propagators_match_their_slice_by_slice_references_bit_for_bit(n, N_t):
    g = make_grid(n, N_t, 8, 1.3, TWO_PI)
    for seed, real in ((n, True), (n + 10, False)):
        F = random_field(g, SPACETIME, seed, max_freq=2, real=real)
        for a_F in (time_spatial_rep(F), F.coeffs):  # band-limited samples and raw coefficients
            got, want = duhamel_mixed(g, a_F), _two_branch_duhamel_mixed(g, a_F)
            assert got.tobytes() == want.tobytes()
        d = _data(g, seed)
        assert homogeneous_spacetime(d).tobytes() == _loop_homogeneous_spacetime(d).tobytes()


def test_pm_decompose_supports_and_pythagoras(grid2d):
    u = random_field(grid2d, SPACETIME, 9, real=False)
    up, um = pm_decompose(u)
    tau = grid2d.tau_broadcast() + np.zeros(grid2d.spacetime_shape)
    assert np.max(np.abs(up.coeffs[tau < 0])) == 0.0
    assert np.max(np.abs(um.coeffs[tau >= 0])) == 0.0
    assert np.max(np.abs(up.coeffs + um.coeffs - u.coeffs)) == 0.0
    idx = SpaceIndex(0.7, 0.6)
    total = ws_norm(u, idx) ** 2
    parts = ws_norm(up, idx) ** 2 + ws_norm(um, idx) ** 2
    assert abs(total - parts) <= 1e-12 * total


def test_pm_decompose_positive_spectrum_passthrough(grid2d):
    u = random_field(grid2d, SPACETIME, 10, real=False)
    tau = grid2d.tau_broadcast() + np.zeros(grid2d.spacetime_shape)
    c = np.where(tau > 0, u.coeffs, 0.0)
    up, um = pm_decompose(u.copy_with(c))
    assert np.max(np.abs(up.coeffs - c)) == 0.0
    assert np.max(np.abs(um.coeffs)) == 0.0


def test_pm_decompose_real_field_conjugate_symmetry(grid2d):
    u = random_field(grid2d, SPACETIME, 11)  # real
    up, um = pm_decompose(u)
    flipped = um.coeffs
    for ax in range(flipped.ndim):
        flipped = np.roll(np.flip(flipped, axis=ax), 1, axis=ax)
    tau = grid2d.tau_broadcast() + np.zeros(grid2d.spacetime_shape)
    sel = tau > 0
    assert np.max(np.abs(np.conj(up.coeffs[sel]) - flipped[sel])) <= 1e-12


def test_half_wave_evolution_slice_l2_constant(grid2d):
    # L^infty_t L^2_x of a half-wave spacetime field equals every slice norm:
    # the per-mode modulus is conserved
    from nflab.lattice import from_time_spatial_rep, mixed_norm, plane_wave_coeffs
    f = random_field(grid2d, SPATIAL, 21, max_freq=4, real=False)
    a = np.empty((grid2d.N_t,) + grid2d.spatial_shape, dtype=complex)
    for j, t in enumerate(grid2d.times()):
        a[j] = plane_wave_coeffs(half_wave(1, t, f))
    U = from_time_spatial_rep(grid2d, a)
    slices = np.sqrt(np.sum(np.abs(a) ** 2, axis=(1, 2)) * grid2d.spatial_volume)
    assert (slices.max() - slices.min()) / slices.max() <= 1e-10
    assert abs(mixed_norm(U, math.inf, 2) - slices.max()) <= 1e-10 * slices.max()


def test_step1_bounds_single_mode(grid2d):
    u = random_field(grid2d, SPACETIME, 12, max_freq=2)
    rep = step1_bound_check(u, 1.0)
    assert isinstance(rep, Step1Report)
    assert rep.fitted_C < math.inf and rep.fitted_C >= 0.0
    assert rep.bound2_violations == 0


def test_step1_small_time_ratio_bounded(grid2d):
    F = random_field(grid2d, SPACETIME, 13, max_freq=2)
    rep = step1_bound_check(F, grid2d.dt)
    assert rep.bound2_violations == 0
    assert rep.bound2_max_ratio <= 1.0 + 1e-9


def test_step1_ensemble_t2_bound_never_violated(grid2d):
    for seed in range(50):
        F = random_field(grid2d, SPACETIME, 100 + seed, max_freq=3, real=False)
        rep = step1_bound_check(F, 1.2)
        assert rep.bound2_violations == 0


def _uncached_duhamel_mixed(grid, a_F):
    """Reference: tables rebuilt on every call, the xi = 0 branch run on the whole lattice."""
    ax = grid.abs_xi(SPATIAL)
    zero = ax == 0.0
    safe = np.where(zero, 1.0, ax)
    tb = signed_times(grid).reshape((grid.N_t,) + (1,) * grid.n)
    half = grid.N_t // 2

    def running(z, sign):
        csum = np.zeros_like(z)
        csum[1:] = sign(np.cumsum(0.5 * grid.dt * (z[1:] + z[:-1]), axis=0))
        return csum

    out = np.empty_like(a_F)
    for order, sign in ((np.arange(half), np.positive),
                        (np.r_[0, grid.N_t - 1:half - 1:-1], np.negative)):
        y, t = a_F[order], tb[order]
        cos_t, sin_t = np.cos(safe * t), np.sin(safe * t)
        osc = -(sin_t * running(cos_t * y, sign) - cos_t * running(sin_t * y, sign)) / safe
        lin = -(t * running(y, sign) - running(t * y, sign))
        out[order] = np.where(zero, lin, osc)
    return out


def _complex_mixed_input(grid, seed):
    rng = np.random.default_rng(seed)
    shape = grid.spacetime_shape
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a[(slice(None),) + (0,) * grid.n] = 1.5 + rng.standard_normal(grid.N_t) - 0.5j
    return a


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("N_t", [2, 4, 16, 32])
def test_duhamel_mixed_is_the_uncached_route_bit_for_bit(n, N_t):
    g = make_grid(n, N_t, 8, 1.3, TWO_PI)
    a = _complex_mixed_input(g, 10 * n + N_t)
    assert np.array_equal(duhamel_mixed(g, a), _uncached_duhamel_mixed(g, a))


def test_duhamel_tables_are_per_grid_and_read_only():
    # one lattice shape, two periods: only the times and phases tell the grids apart
    g1, g2 = make_grid(2, 16, 8, 1.3, TWO_PI), make_grid(2, 16, 8, 2.6, TWO_PI)
    a = _complex_mixed_input(g1, 7)
    fresh = [_uncached_duhamel_mixed(g, a) for g in (g1, g2)]
    for _ in range(2):
        for g, want in zip((g1, g2), fresh):
            assert np.array_equal(duhamel_mixed(g, a), want)
    safe, legs = _duhamel_tables(g1)
    for arr in (safe,) + sum(legs, ()):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        legs[0][2][0] = 0.0
