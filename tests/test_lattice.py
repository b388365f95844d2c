import math

import numpy as np
import pytest

from nflab.lattice import (SPACETIME, SPATIAL, SpectralField, cutoff_profile,
                           dealiased_product, field_from_fine_samples, fine_samples,
                           from_plane_wave_coeffs, inverse_transform, make_grid,
                           mixed_norm, modified_mixed_norm,
                           modified_mixed_norm_detailed, plane_wave_coeffs,
                           random_field, read_field, time_cutoff, transform,
                           write_field)

TWO_PI = 2.0 * math.pi


def test_make_grid_integer_frequency_lattice():
    g = make_grid(1, 16, 16, TWO_PI, TWO_PI)
    tau = np.sort(g.tau())
    assert np.allclose(tau, np.arange(-8, 8))
    xi = np.sort(g.xi_axis())
    assert np.allclose(xi, np.arange(-8, 8))


def test_make_grid_sample_count_and_spacing():
    g = make_grid(2, 8, 8, TWO_PI, TWO_PI)
    assert g.N_t * g.N_x**g.n == 512
    g3 = make_grid(3, 8, 16, 1.0, 1.0)
    ax = np.sort(g3.xi_axis())
    assert np.isclose(ax[1] - ax[0], TWO_PI)


@pytest.mark.parametrize("bad", [
    dict(n=4, N_t=8, N_x=8, T_per=1.0, L_per=1.0),
    dict(n=2, N_t=12, N_x=8, T_per=1.0, L_per=1.0),
    dict(n=2, N_t=8, N_x=10, T_per=1.0, L_per=1.0),
    dict(n=2, N_t=8, N_x=8, T_per=0.0, L_per=1.0),
])
def test_make_grid_rejects(bad):
    with pytest.raises(ValueError):
        make_grid(**bad)


def test_transform_constant_field_dc_mode():
    g = make_grid(2, 8, 8, TWO_PI, TWO_PI)
    f = transform(g, np.ones(g.spacetime_shape), SPACETIME)
    c = f.coeffs.copy()
    dc = c[0, 0, 0]
    c[0, 0, 0] = 0.0
    assert abs(dc - math.sqrt(g.volume)) < 1e-12
    assert np.max(np.abs(c)) < 1e-12


def test_transform_pure_mode_lands_on_single_bin():
    g = make_grid(1, 16, 16, TWO_PI, TWO_PI)
    T, X = np.meshgrid(g.times(), np.arange(16) * g.dx, indexing="ij")
    f = transform(g, np.exp(1j * (T + X)), SPACETIME)
    c = f.coeffs.copy()
    peak = c[1, 1]
    c[1, 1] = 0.0
    assert np.max(np.abs(c)) <= 1e-12 * abs(peak)


def test_roundtrip_random_real_field():
    g = make_grid(3, 8, 8, 1.5, 2.5)
    rng = np.random.default_rng(0)
    P = rng.standard_normal(g.spacetime_shape)
    back = inverse_transform(transform(g, P, SPACETIME))
    assert np.max(np.abs(back - P)) <= 1e-12


def test_real_flag_hermitian_symmetry():
    g = make_grid(2, 8, 8, 1.0, 1.0)
    rng = np.random.default_rng(1)
    f = transform(g, rng.standard_normal(g.spacetime_shape), SPACETIME)
    assert f.real_flag
    assert f.hermitian_error() <= 1e-12


def test_mixed_norm_constant_unit_cell():
    g = make_grid(1, 8, 8, 1.0, 1.0)
    u = transform(g, np.ones(g.spacetime_shape), SPACETIME)
    for q, r in ((1, 1), (2, 2), (3, 7), (math.inf, 2), (2, math.inf)):
        assert abs(mixed_norm(u, q, r) - 1.0) < 1e-12


def test_mixed_norm_single_mode_plancherel(grid2d):
    c = np.zeros(grid2d.spacetime_shape, dtype=complex)
    c[3, 1, 2] = 1.7 - 0.4j
    u = SpectralField(grid=grid2d, kind=SPACETIME, coeffs=c)
    assert abs(mixed_norm(u, 2, 2) - abs(c[3, 1, 2])) < 1e-12


def test_plancherel_random_fields(grid2d):
    for seed in range(5):
        u = random_field(grid2d, SPACETIME, seed, real=False)
        s2 = float(np.sum(np.abs(u.coeffs) ** 2))
        assert abs(mixed_norm(u, 2, 2) ** 2 - s2) / s2 <= 1e-10


def test_modified_norm_l2_case_all_modes_agree(grid2d):
    u = random_field(grid2d, SPACETIME, 5, real=False)
    lower, ascent, upper, _ = modified_mixed_norm_detailed(u, 2, 2)
    l2 = u.l2()
    assert abs(lower - l2) <= 1e-10 * l2
    assert abs(ascent - l2) <= 1e-10 * l2
    assert abs(upper - l2) <= 1e-10 * l2


def test_modified_norm_upper_exact_for_nonnegative_spectrum(grid2d):
    u = random_field(grid2d, SPACETIME, 6, real=False)
    upos = u.copy_with(np.abs(u.coeffs).astype(complex), real_flag=False)
    for q, r in ((1, 2), (4, 4), (math.inf, 2)):
        assert abs(modified_mixed_norm(upos, q, r, "upper")
                   - mixed_norm(upos, q, r)) <= 1e-10 * mixed_norm(upos, q, r)


def test_modified_norm_ordering_every_input(grid2d):
    for seed in range(8):
        u = random_field(grid2d, SPACETIME, 10 + seed, real=False)
        for q, r in ((1, 2), (2, 4), (math.inf, math.inf), (1, math.inf)):
            lower, ascent, upper, _ = modified_mixed_norm_detailed(u, q, r)
            assert lower <= ascent <= upper * (1 + 1e-12)


def test_modified_norm_depends_only_on_modulus(grid2d):
    rng = np.random.default_rng(2)
    u = random_field(grid2d, SPACETIME, 20, real=False)
    phases = np.exp(1j * rng.uniform(0, TWO_PI, u.coeffs.shape))
    v = u.copy_with(np.abs(u.coeffs) * phases, real_flag=False)
    w = u.copy_with(np.abs(u.coeffs).astype(complex), real_flag=False)
    for q, r in ((1, 2), (4, 4)):
        a = modified_mixed_norm_detailed(u, q, r)[:3]
        b = modified_mixed_norm_detailed(v, q, r)[:3]
        c = modified_mixed_norm_detailed(w, q, r)[:3]
        for x, y, z in zip(a, b, c):
            assert abs(x - y) <= 1e-12 * max(1.0, x)
            assert abs(x - z) <= 1e-12 * max(1.0, x)


def test_modified_norm_monotone_in_spectrum_order(grid2d):
    for seed in range(6):
        u = random_field(grid2d, SPACETIME, 30 + seed, real=False)
        extra = np.abs(random_field(grid2d, SPACETIME, 60 + seed, real=False).coeffs)
        v = SpectralField(grid=grid2d, kind=SPACETIME,
                          coeffs=np.abs(u.coeffs) + extra)
        for q, r in ((2, 2), (4, 4), (math.inf, math.inf)):
            a = modified_mixed_norm_detailed(u, q, r)[:3]
            b = modified_mixed_norm_detailed(v, q, r)[:3]
            for x, y in zip(a, b):
                assert x <= y * (1 + 1e-12)


def test_time_cutoff_of_constant_is_the_bump(grid2d):
    u = transform(grid2d, np.ones(grid2d.spacetime_shape), SPACETIME)
    out = inverse_transform(time_cutoff(u, math.pi))
    phi = cutoff_profile(grid2d, math.pi)
    assert np.max(np.abs(out - phi[:, None, None])) <= 1e-12


def test_time_cutoff_support_algebra(grid2d):
    u = random_field(grid2d, SPACETIME, 40)
    once = inverse_transform(time_cutoff(u, math.pi))
    twice = inverse_transform(time_cutoff(time_cutoff(u, math.pi), math.pi))
    phi = cutoff_profile(grid2d, math.pi)
    assert np.max(np.abs(twice - once * phi[:, None, None])) <= 1e-10
    # supports match: both vanish exactly where the bump does
    dead = phi == 0.0
    assert np.max(np.abs(once[dead])) <= 1e-12
    assert np.max(np.abs(twice[dead])) <= 1e-12


def test_time_cutoff_bounded_on_hyperbolic_space(grid2d):
    # the multiplication operator is bounded on H^{0,theta}; the measured
    # constant is stable (within +/-20% of its ensemble mean) over 50 fields
    from nflab.multiplier import SpaceIndex, ws_norm
    idx = SpaceIndex(0.0, 0.6)
    consts = []
    for seed in range(50):
        u = random_field(grid2d, SPACETIME, 300 + seed, max_freq=6, real=False)
        consts.append(ws_norm(time_cutoff(u, math.pi), idx) / ws_norm(u, idx))
    mean = sum(consts) / len(consts)
    assert max(consts) <= 1.2 * mean
    assert min(consts) >= 0.8 * mean


def test_time_cutoff_width_validation(grid2d):
    u = random_field(grid2d, SPACETIME, 41)
    with pytest.raises(ValueError):
        time_cutoff(u, 0.0)
    with pytest.raises(ValueError):
        time_cutoff(u, grid2d.T_per)


def test_dealiased_product_of_pure_modes(grid2d):
    c1 = np.zeros(grid2d.spacetime_shape, dtype=complex)
    c1[1, 2, 0] = 2.0
    c2 = np.zeros(grid2d.spacetime_shape, dtype=complex)
    c2[2, 1, 1] = 3.0
    u = SpectralField(grid=grid2d, kind=SPACETIME, coeffs=c1)
    v = SpectralField(grid=grid2d, kind=SPACETIME, coeffs=c2)
    w = dealiased_product(u, v)
    expect = 6.0 / math.sqrt(grid2d.volume)
    assert abs(w.coeffs[3, 3, 1] - expect) <= 1e-12
    c = w.coeffs.copy()
    c[3, 3, 1] = 0.0
    assert np.max(np.abs(c)) <= 1e-12


def test_serialization_roundtrip(tmp_path, grid2d):
    u = random_field(grid2d, SPACETIME, 50)
    path = tmp_path / "field.nflb"
    write_field(u, path)
    raw = path.read_bytes()
    assert raw[:5] == b"NFLB1"
    back = read_field(path)
    assert back.kind == u.kind
    assert back.grid == u.grid
    assert np.max(np.abs(back.coeffs - u.coeffs)) <= 1e-15
    assert back.real_flag == u.real_flag


def test_serialization_spatial_kind(tmp_path, grid2d):
    u = random_field(grid2d, SPATIAL, 51, real=False)
    path = tmp_path / "spatial.nflb"
    write_field(u, path)
    back = read_field(path)
    assert back.kind == SPATIAL
    assert np.max(np.abs(back.coeffs - u.coeffs)) <= 1e-15


def test_read_field_rejects_trailing_bytes(tmp_path, grid2d):
    path = tmp_path / "long.nflb"
    write_field(random_field(grid2d, SPACETIME, 52), path)
    with open(path, "ab") as fh:
        fh.write(b"\0" * 8)
    with pytest.raises(ValueError, match="payload has 65544 bytes, expected 65536"):
        read_field(path)


def test_read_field_rejects_truncated_payload(tmp_path, grid2d):
    path = tmp_path / "short.nflb"
    write_field(random_field(grid2d, SPACETIME, 53), path)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(ValueError, match="payload has 65520 bytes, expected 65536"):
        read_field(path)
    path.write_bytes(b"NFLB1")
    with pytest.raises(ValueError, match="header"):
        read_field(path)


# reference route for the fine lattice: scatter the coefficients by signed
# index, complex FFT on the whole fine lattice, real part for real fields

def _band_index(coarse, fine):
    return np.ix_(*[np.round(np.fft.fftfreq(N) * N).astype(int) % M
                    for N, M in zip(coarse, fine)])


def _c2c_fine_samples(u, factor):
    A = plane_wave_coeffs(u)
    fine = tuple(int(math.ceil(N * factor / 2.0)) * 2 for N in A.shape)
    F = np.zeros(fine, dtype=complex)
    F[_band_index(A.shape, fine)] = A
    P = np.fft.ifftn(F) * F.size
    return P.real if u.real_flag else P


def _c2c_crop(grid, kind, P):
    A = (np.fft.fftn(P) / P.size)[_band_index(grid.shape_for(kind), P.shape)]
    return from_plane_wave_coeffs(grid, A, kind).coeffs


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", [SPATIAL, SPACETIME])
def test_real_fft_route_matches_complex_route(n, kind):
    g = make_grid(n, 8, 8 if n == 3 else 16, 1.3, TWO_PI)
    shape = g.shape_for(kind)
    rng = np.random.default_rng(n)
    arbitrary = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    fields = [random_field(g, kind, n, max_freq=g.N_x // 2),  # real, Nyquist planes filled
              SpectralField(grid=g, kind=kind, coeffs=arbitrary, real_flag=True),
              SpectralField(grid=g, kind=kind, coeffs=arbitrary, real_flag=False)]
    assert fields[0].real_flag
    for u in fields:
        for factor in (1.5, 2.0, 2.5, 3.0, 3.5):
            want = _c2c_fine_samples(u, factor)
            got = fine_samples(u, factor)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            back = field_from_fine_samples(g, kind, got, real_flag=u.real_flag).coeffs
            ref = _c2c_crop(g, kind, got)
            assert np.max(np.abs(back - ref)) <= 1e-14 * np.max(np.abs(ref))
