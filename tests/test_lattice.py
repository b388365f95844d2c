import itertools
import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from nflab.lattice import (SPACETIME, SPATIAL, SpectralField, cutoff_profile,
                           dealiased_product, field_from_fine_samples, fine_images, fine_samples,
                           from_plane_wave_coeffs, from_time_spatial_rep,
                           inverse_transform, make_grid,
                           mixed_norm, modified_mixed_norm,
                           modified_mixed_norm_detailed, plane_wave_coeffs,
                           random_field, read_field, symbol_image, time_cutoff,
                           time_spatial_rep, transform,
                           write_field)

from conftest import full_band_field, traced_peak

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
        assert abs(modified_mixed_norm(upos, q, r)
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


EXPONENTS = (1, 2, 4, math.inf)


def _upper_test_fields():
    for n, N in ((1, 8), (2, 8), (3, 4)):
        g = make_grid(n, N, N, TWO_PI, 3.7)
        yield random_field(g, SPACETIME, 40 + n, real=True)
        yield random_field(g, SPACETIME, 50 + n, real=False)
        yield SpectralField(grid=g, kind=SPACETIME, coeffs=np.zeros(g.spacetime_shape, complex))


def test_modified_norm_upper_is_the_detailed_upper_bit_for_bit():
    for u in _upper_test_fields():
        for q in EXPONENTS:
            for r in EXPONENTS:
                upper = modified_mixed_norm_detailed(u, q, r)[2]
                assert modified_mixed_norm(u, q, r) == upper


def test_modified_norm_upper_is_one_mixed_norm_of_the_same_field(monkeypatch, grid2d):
    import nflab.lattice as lat
    seen, detailed = [], []
    real_mixed, real_detailed = lat.mixed_norm, lat.modified_mixed_norm_detailed
    monkeypatch.setattr(lat, "mixed_norm", lambda f, q, r: seen.append(f) or real_mixed(f, q, r))
    monkeypatch.setattr(lat, "modified_mixed_norm_detailed",
                        lambda *a: detailed.append(a) or real_detailed(*a))
    u = random_field(grid2d, SPACETIME, 7, real=True)
    modified_mixed_norm(u, 4, 2)
    assert len(seen) == 1 and not detailed
    real_detailed(u, 4, 2)
    # the detailed upper is its first mixed norm: the same field, dtype and flags
    mine, theirs = seen[0], seen[1]
    assert mine.coeffs.dtype == theirs.coeffs.dtype == np.complex128
    assert np.array_equal(mine.coeffs, theirs.coeffs)
    assert (mine.real_flag, mine.zero_mode_projected) == (theirs.real_flag,
                                                          theirs.zero_mode_projected)


@pytest.mark.parametrize("op, name", [(("d", 0), "d/dt"), (("rr", 1), "R_0 R_1")])
def test_time_symbols_name_the_spacetime_requirement(monkeypatch, grid2d, op, name):
    import nflab.lattice as lat
    monkeypatch.setattr(lat.Grid, "tau_broadcast", lambda g: pytest.fail("an array was built"))
    u = random_field(grid2d, SPATIAL, 0)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} needs a spacetime field$"):
        symbol_image(u, op)


@pytest.mark.parametrize("kind, op, valid", [
    (SPACETIME, ("d", 3), "0..2"), (SPACETIME, ("d", -1), "0..2"),
    (SPACETIME, ("rr", 3), "1..2"), (SPACETIME, ("rr", 0), "1..2"),
    (SPATIAL, ("d", -1), "1..2"), (SPATIAL, ("d", 3), "1..2")])
def test_symbol_axis_out_of_range_is_rejected_before_any_array(monkeypatch, kind, op, valid):
    import nflab.lattice as lat
    g = lat.make_grid(2, 8, 8, 2 * math.pi, 2 * math.pi)
    u = random_field(g, kind, 0)
    for name in ("tau", "xi_axis", "tau_broadcast", "xi_component", "abs_xi"):
        monkeypatch.setattr(lat.Grid, name, lambda *a: pytest.fail("an array was built"))
    with pytest.raises(ValueError, match=re.escape(f"symbol {op!r} needs an axis in {valid}")):
        symbol_image(u, op)
    with pytest.raises(ValueError, match=re.escape(f"symbol {op!r} needs an axis in {valid}")):
        fine_images(u, [op])


def test_unknown_symbol_is_named(grid2d):
    u = random_field(grid2d, SPACETIME, 0)
    with pytest.raises(ValueError, match=re.escape("unknown symbol ('dd', 1)")):
        symbol_image(u, ("dd", 1))


@pytest.mark.parametrize("other", ["grid", "kind"])
def test_dealiased_product_rejects_fields_of_another_grid_or_kind(grid2d, other):
    u = random_field(grid2d, SPACETIME, 0)
    v = (random_field(make_grid(2, 8, 8, TWO_PI, TWO_PI), SPACETIME, 1) if other == "grid"
         else random_field(grid2d, SPATIAL, 1))
    with pytest.raises(ValueError, match="^fields must share grid and kind$"):
        dealiased_product(u, v)


def test_ascent_stops_after_sixty_steps_unconverged(monkeypatch, grid2d):
    # a pairing that improves on every call: the dictionary (and |hat u|) is scored once,
    # then each of the 60 steps takes its first line-search candidate
    import nflab.lattice as lat
    calls = []
    monkeypatch.setattr(lat, "_pairing_value", lambda *a: calls.append(a) or float(len(calls)))
    u = random_field(grid2d, SPACETIME, 9, real=True)
    lower, ascent, upper, converged = modified_mixed_norm_detailed(u, 1, 2)
    start = len(lat._witness_dictionary(grid2d)) + 1
    assert not converged and len(calls) == start + 60
    assert lower == float(start) and ascent == min(float(start + 60), upper)


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


@pytest.mark.parametrize("T_per, L_per", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0),
                                           (1.0, -math.inf), (0.0, 1.0)])
def test_make_grid_rejects_non_finite_periods(T_per, L_per):
    with pytest.raises(ValueError, match="periods"):
        make_grid(2, 8, 8, T_per, L_per)


def _nflb1_header(n, kind, N_t, N_x, T_per, L_per, magic=b"NFLB1"):
    return struct.pack("<5sBBII dd", magic, n, kind, N_t, N_x, T_per, L_per)


def test_read_field_rejects_infinite_period(tmp_path):
    path = tmp_path / "inf.nflb"
    path.write_bytes(_nflb1_header(1, 0, 2, 2, math.inf, 1.0) + bytes(32))
    with pytest.raises(ValueError, match="periods"):
        read_field(path)


def test_read_field_payload_size_does_not_overflow(tmp_path):
    # 16 * 2 * (2**31)**3 bytes is 0 modulo 2**64
    path = tmp_path / "huge.nflb"
    path.write_bytes(_nflb1_header(3, 1, 2, 2**31, 1.0, 1.0))
    with pytest.raises(ValueError, match=f"payload has 0 bytes, expected {2**98}"):
        read_field(path)


_UINT32 = st.integers(0, 2**32 - 1) | st.sampled_from([2**31, 2**32 - 1])
# (valid value, arbitrary value) of each header field: magic, n, kind, N_t, N_x, T_per, L_per
_HEADER_FIELDS = [(st.just(b"NFLB1"), st.binary(min_size=5, max_size=5)),
                  (st.integers(1, 3), st.integers(0, 255)),
                  (st.integers(0, 1), st.integers(0, 255)),
                  (st.sampled_from([2, 4, 8]), _UINT32),
                  (st.sampled_from([2, 4, 8]), _UINT32),
                  (st.floats(0.1, 10.0), st.floats()),
                  (st.floats(0.1, 10.0), st.floats())]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_read_field_header_fuzz(data):
    # a valid header with up to two fields replaced by arbitrary values either loads a
    # field that writes back to the same bytes, or raises ValueError
    arbitrary = data.draw(st.sets(st.integers(0, len(_HEADER_FIELDS) - 1), max_size=2))
    magic, n, kind, N_t, N_x, T_per, L_per = (data.draw(pair[i in arbitrary])
                                              for i, pair in enumerate(_HEADER_FIELDS))
    head = _nflb1_header(n, kind, N_t, N_x, T_per, L_per, magic)
    size = 16 * (N_t if kind == 1 else 1) * N_x**n + data.draw(st.sampled_from([0, 0, -16, 8]))
    payload = data.draw(st.binary(min_size=size, max_size=size) if 0 <= size <= 8192
                        else st.binary(max_size=64))
    with tempfile.TemporaryDirectory() as tmp, np.errstate(invalid="ignore"):
        src, dst = Path(tmp) / "in.nflb", Path(tmp) / "out.nflb"
        src.write_bytes(head + payload)
        try:
            f = read_field(src)
        except ValueError:
            event("rejected")
            return
        event("loaded")
        write_field(f, dst)
        assert dst.read_bytes() == head + payload


def test_serialization_keeps_non_finite_coefficients(tmp_path):
    c = np.zeros((2, 2), dtype=complex)
    c[0, 0], c[0, 1], c[1, 0] = complex(1.0, math.inf), complex(math.nan, 2.0), -math.inf
    path = tmp_path / "nonfinite.nflb"
    write_field(SpectralField(grid=make_grid(2, 2, 2, 1.0, 1.0), kind=SPATIAL, coeffs=c), path)
    with np.errstate(invalid="ignore"):
        back = read_field(path)
    assert back.coeffs.tobytes() == c.tobytes()


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


@given(data=st.data(), n=st.integers(1, 3), kind=st.sampled_from([SPATIAL, SPACETIME]),
       which=st.sampled_from(["real", "real_flag", "complex"]),
       factor=st.sampled_from([1.5, 2.0, 2.5]), seed=st.integers(0, 2**16))
@settings(max_examples=80, deadline=None)
def test_pads_and_crops_match_the_complex_full_lattice_route(data, n, kind, which, factor,
                                                            seed):
    N_x = data.draw(st.sampled_from([2, 4, 8] if n == 3 else [2, 4, 8, 16]))
    N_t = data.draw(st.sampled_from([m for m in (2, 4, 8, 16) if m != N_x]))
    g = make_grid(n, N_t, N_x, 1.3, 2.9)
    rng = np.random.default_rng(seed)
    u = full_band_field(rng, g, kind, which)
    assert u.real_flag is (which != "complex")
    want = _c2c_fine_samples(u, factor)
    got = fine_samples(u, factor)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # a band-limited product's samples and arbitrary samples of the same dtype
    noise = rng.standard_normal(got.shape)
    for P in (got, noise if which != "complex" else noise + 1j * got.imag):
        back = field_from_fine_samples(g, kind, P, real_flag=u.real_flag).coeffs
        ref = _c2c_crop(g, kind, P)
        assert np.max(np.abs(back - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_plane_wave_coeffs_is_the_division_bit_for_bit():
    rng = np.random.default_rng(5)
    for n, T_per, L_per in ((1, 1.3, TWO_PI), (2, 0.7, 2.3), (3, 5.0, 1.1), (2, 1.0, 3.0)):
        g = make_grid(n, 8, 8, T_per, L_per)
        for kind in (SPATIAL, SPACETIME):
            u = full_band_field(rng, g, kind, "complex")
            u.coeffs[(0,) * u.coeffs.ndim] = 0.0
            u.coeffs[(1,) * u.coeffs.ndim] *= 1e-300
            vol = g.volume if kind == SPACETIME else g.spatial_volume
            assert np.array_equal(plane_wave_coeffs(u), u.coeffs / math.sqrt(vol))


def _out_of_place_time_spatial_rep(fieldv):
    """The projection and time FFT on fresh arrays, with the division by sqrt(volume)."""
    A = fieldv.coeffs / math.sqrt(fieldv.grid.volume)
    if fieldv.real_flag:
        A = 0.5 * (A + np.conj(np.roll(np.flip(A), 1, axis=tuple(range(A.ndim)))))
    return np.fft.ifft(A, axis=0, norm="forward")


def _out_of_place_from_time_spatial_rep(grid, a, real_flag):
    A = np.fft.fft(a, axis=0, norm="forward")
    if real_flag:
        A = 0.5 * (A + np.conj(np.roll(np.flip(A), 1, axis=tuple(range(A.ndim)))))
    return np.asarray(A, dtype=complex) * math.sqrt(grid.volume)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mixed_representation_in_place_keeps_the_bits(n):
    g = make_grid(n, 8, 4, 1.7, 2.3)
    rng = np.random.default_rng(40 + n)
    shape = g.spacetime_shape
    full = _full_band(rng, shape, False)
    tau0, zero = np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex)
    tau0[0] = full[0]
    zero[(0,) * len(shape)] = 3.0 - 2.0j
    for c in (full, tau0, zero):
        for real_flag in (True, False):
            u = SpectralField(g, SPACETIME, c.copy(), real_flag=real_flag)
            assert np.array_equal(time_spatial_rep(u), _out_of_place_time_spatial_rep(u))
            assert np.array_equal(u.coeffs, c)
            # c read as a mixed representation: every time slice, the zero mode
            a = c.copy()
            back = from_time_spatial_rep(g, a, real_flag=real_flag).coeffs
            assert np.array_equal(back, _out_of_place_from_time_spatial_rep(g, c, real_flag))
            assert np.array_equal(a, c)


# full-box reference for the axis-by-axis pads and crops.  A complex field: the
# whole coarse band scattered onto the fine lattice and one ifftn over it, one
# fftn over the fine lattice and then the band cut out.  A real field: the
# Hermitian fold (E + conj E(-Xi)) / 2 of the coefficients on the symmetric box
# -N/2..N/2 of every axis, its columns 0..N/2 scattered by signed leading index
# onto the fine leading lattice (factor > 1, so no two land on one row), one
# ifftn over the leading axes and an irfft; a crop is an rfft, one fftn over the
# leading axes of its columns 0..N/2, and A(j, -k) = conj B(-j, k).

def _band_blocks(coarse, fine):
    halves = [((slice(0, N // 2), slice(0, N // 2)), (slice(N // 2, N), slice(M - N // 2, M)))
              for N, M in zip(coarse, fine)]
    return [tuple(zip(*block)) for block in itertools.product(*halves)]


def _signed_rows(shape, fine, sign=1):
    return np.ix_(*[(sign * np.round(np.fft.fftfreq(N) * N).astype(int)) % M
                    for N, M in zip(shape, fine)])


def _full_box_fine_samples(u, factor):
    A = plane_wave_coeffs(u)
    fine = tuple(int(math.ceil(N * factor / 2.0)) * 2 for N in A.shape)
    if not u.real_flag:
        F = np.zeros(fine, dtype=complex)
        for src, dst in _band_blocks(A.shape, fine):
            F[dst] = A[src]
        return np.fft.ifftn(F, axes=tuple(range(A.ndim)), norm="forward")
    E = np.zeros(tuple(N + 1 for N in A.shape), dtype=complex)
    E[tuple(slice(0, N) for N in A.shape)] = np.fft.fftshift(A)
    W = (0.5 * (E + np.conj(E[(slice(None, None, -1),) * A.ndim])))[..., A.shape[-1] // 2:]
    lead = A.shape[:-1]
    F = np.zeros(fine[:-1] + W.shape[-1:], dtype=complex)
    F[np.ix_(*[np.arange(-(N // 2), N // 2 + 1) % M for N, M in zip(lead, fine)])] = W
    Y = np.fft.ifftn(F, axes=tuple(range(len(lead))), norm="forward")
    return np.fft.irfft(Y, n=fine[-1], axis=-1, norm="forward")


def _full_box_crop(grid, kind, P):
    shape = grid.shape_for(kind)
    A = np.empty(shape, dtype=complex)
    if np.iscomplexobj(P):
        F = np.fft.fftn(P, axes=tuple(range(P.ndim)), norm="forward")
        for dst, src in _band_blocks(shape, F.shape):
            A[dst] = F[src]
    else:
        h = shape[-1] // 2
        X = np.fft.rfft(P, axis=-1, norm="forward")[..., :h + 1]
        B = np.fft.fftn(X, axes=tuple(range(P.ndim - 1)), norm="forward")
        A[..., :h] = B[_signed_rows(shape[:-1], P.shape) + (slice(0, h),)]
        A[..., h:] = np.conj(B[_signed_rows(shape[:-1], P.shape, -1) + (slice(h, 0, -1),)])
    return from_plane_wave_coeffs(grid, A, kind).coeffs


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", [SPATIAL, SPACETIME])
def test_axis_by_axis_pads_and_crops_are_the_full_box_route_bit_for_bit(n, kind):
    g = make_grid(n, 8, 8 if n == 3 else 16, 1.3, TWO_PI)
    shape = g.shape_for(kind)
    rng = np.random.default_rng(30 + n)
    arbitrary = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    fields = [random_field(g, kind, n, max_freq=g.N_x // 2),  # real, Nyquist planes filled
              SpectralField(grid=g, kind=kind, coeffs=arbitrary, real_flag=True),
              SpectralField(grid=g, kind=kind, coeffs=arbitrary, real_flag=False)]
    for u in fields:
        coeffs = u.coeffs.copy()
        for factor in (1.5, 2.0, 2.5, 3.0, 3.5):
            got, want = fine_samples(u, factor), _full_box_fine_samples(u, factor)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert u.coeffs.tobytes() == coeffs.tobytes()
            for P in (got, got * (0.5 - 1.5j)):
                P_in = P.copy()
                back = field_from_fine_samples(g, kind, P, real_flag=u.real_flag).coeffs
                assert np.array_equal(back, _full_box_crop(g, kind, P))
                assert P.tobytes() == P_in.tobytes()


# (n, kind) -> (N_t, N_x): at factor 1.5 each crop but the 1-D one holds 3 * 2^15 fine
# samples or more
CROP_SIZES = {(1, SPATIAL): (8, 256), (1, SPACETIME): (256, 256), (2, SPATIAL): (8, 256),
              (2, SPACETIME): (32, 32), (3, SPATIAL): (8, 32), (3, SPACETIME): (16, 16)}


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", [SPATIAL, SPACETIME])
def test_crops_are_the_full_box_route_at_every_thread_count(monkeypatch, threads, n, kind):
    monkeypatch.setenv("NFLAB_THREADS", threads)
    g = make_grid(n, *CROP_SIZES[n, kind], TWO_PI, TWO_PI)
    rng = np.random.default_rng(40 + n)
    for factor in (1.5, 2.0):
        fine = tuple(int(math.ceil(N * factor / 2.0)) * 2 for N in g.shape_for(kind))
        real = rng.standard_normal(fine)
        for P in (real, real + 1j * rng.standard_normal(fine)):
            got = field_from_fine_samples(g, kind, P, real_flag=not np.iscomplexobj(P)).coeffs
            assert np.array_equal(got, _full_box_crop(g, kind, P))


def _symbols(n, kind):
    """Every symbol of the product engine on a field of this kind: the identity, each
    derivative and, on a spacetime field, each R_0 R_j."""
    ops = [None] + [("d", mu) for mu in range(0 if kind == SPACETIME else 1, n + 1)]
    return ops + ([("rr", j) for j in range(1, n + 1)] if kind == SPACETIME else [])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", [SPATIAL, SPACETIME])
@pytest.mark.parametrize("periods", [(TWO_PI, TWO_PI), (3.3, 9.1)])
def test_pass_tree_images_match_one_pad_per_image(n, kind, periods):
    # the oracle pads each image on its own: symbol_image, then fine_samples.  On the folded
    # centred band the +N/2 row takes xi = +N/2, so Nyquist content agrees as well
    g = make_grid(n, 8, 8 if n == 3 else 16, *periods)
    rng = np.random.default_rng(60 + n)
    ops = _symbols(n, kind)
    for which in ("real", "real_flag", "complex"):
        u = full_band_field(rng, g, kind, which)
        assert np.all(u.coeffs != 0)  # the tau = 0 plane, every Nyquist plane, the zero mode
        for factor in (1.5, 2.0):
            for op, got in zip(ops, fine_images(u, ops, factor)):
                want = fine_samples(symbol_image(u, op), factor)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), (which, op)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", [SPATIAL, SPACETIME])
def test_an_image_keeps_its_bits_whatever_its_siblings(n, kind):
    g = make_grid(n, 8, 8 if n == 3 else 16, 1.3, TWO_PI)
    rng = np.random.default_rng(70 + n)
    ops = _symbols(n, kind)
    for which in ("real", "real_flag", "complex"):
        u = full_band_field(rng, g, kind, which)
        alone = {op: fine_images(u, [op])[0] for op in ops}
        draws = [list(rng.permutation(len(ops))[:rng.integers(1, len(ops) + 1)])
                 for _ in range(4)]
        for siblings in [ops, ops[::-1]] + [[ops[i] for i in draw] for draw in draws]:
            for op, P in zip(siblings, fine_images(u, siblings)):
                assert np.array_equal(P, alone[op]), (which, op, siblings)
        # the identity and R_0 R_j keep the one-pad-per-image route's bits, and so does
        # the padded product
        for op in ops:
            if op is None or op[0] == "rr":
                assert np.array_equal(alone[op], _full_box_fine_samples(symbol_image(u, op), 1.5))
        v = full_band_field(rng, g, kind, which)
        P = np.multiply(_full_box_fine_samples(u, 1.5), _full_box_fine_samples(v, 1.5))
        assert np.array_equal(dealiased_product(u, v).coeffs, _full_box_crop(g, kind, P))


@pytest.mark.parametrize("factor", [1.0, 0.5, 0.0, -1.5, math.inf, math.nan])
def test_bad_refinement_factor_rejected_before_any_transform(monkeypatch, grid2d, factor):
    u = random_field(grid2d, SPACETIME, 3)
    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, lambda *a, **k: pytest.fail("transformed"))
    shown = re.escape(repr(factor))
    with pytest.raises(ValueError, match=shown):
        fine_samples(u, factor)
    with pytest.raises(ValueError, match=shown):
        dealiased_product(u, u, factor=factor)


def test_dealiased_product_pads_each_distinct_operand_through_fine_samples(monkeypatch, grid2d):
    import nflab.lattice as lat
    calls = []
    original = fine_samples
    monkeypatch.setattr(lat, "fine_samples",
                        lambda f, factor=1.5: calls.append((f, factor)) or original(f, factor))
    u, v = random_field(grid2d, SPACETIME, 3), random_field(grid2d, SPACETIME, 4, real=False)
    got = dealiased_product(u, v, factor=1.75).coeffs  # a real pad times a complex one
    assert sorted(map(id, (f for f, _ in calls))) == sorted((id(u), id(v)))
    assert [factor for _, factor in calls] == [1.75, 1.75]
    P = np.multiply(original(u, 1.75), original(v, 1.75))
    assert np.array_equal(got, field_from_fine_samples(grid2d, SPACETIME, P).coeffs)
    calls.clear()
    dealiased_product(u, u)
    assert [(id(f), factor) for f, factor in calls] == [(id(u), 1.5)]


FINE_ARRAY_3X16 = np.dtype(complex).itemsize * 24 ** 4  # one complex fine array at (3, 16)


def test_a_complex_pad_grows_inside_its_output():
    # the coefficients fill the fine array's leading corner and each pass transforms it in
    # place; a pad that held its previous stage beside its output peaked at 1.87 fine arrays
    g = make_grid(3, 16, 16, TWO_PI, TWO_PI)
    u = random_field(g, SPACETIME, 1, real=False)
    assert traced_peak(lambda: fine_samples(u)) < 1.6 * FINE_ARRAY_3X16


def test_a_complex_product_lands_in_one_of_its_pads(monkeypatch):
    # a fresh product array beside both pads peaked at 3.0 fine arrays
    monkeypatch.setenv("NFLAB_THREADS", "1")
    g = make_grid(3, 16, 16, TWO_PI, TWO_PI)
    u, v = (random_field(g, SPACETIME, seed, real=False) for seed in (1, 2))
    assert traced_peak(lambda: dealiased_product(u, v)) < 2.85 * FINE_ARRAY_3X16


def _full_box_time_spatial_rep(fieldv):
    """The full-box route: every sample by a spacetime inverse FFT, then a spatial FFT."""
    P = inverse_transform(fieldv)
    spatial_axes = tuple(range(1, fieldv.grid.n + 1))
    return np.fft.fftn(P, axes=spatial_axes) / fieldv.grid.N_x**fieldv.grid.n


def _full_box_from_time_spatial_rep(grid, a, real_flag=False):
    spatial_axes = tuple(range(1, grid.n + 1))
    P = np.fft.ifftn(a * grid.N_x**grid.n, axes=spatial_axes)
    if real_flag:
        P = P.real
    return transform(grid, P, SPACETIME)


def _full_band(rng, shape, real):
    """Random values on every lattice point: Nyquist planes, tau = 0 and the zero mode."""
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c[(0,) * len(shape)] = 3.0 - 2.0j
    return c.real if real else c


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mixed_representation_is_the_full_box_route(n):
    g = make_grid(n, 8, 8, 1.7, 2.3)
    rng = np.random.default_rng(n)
    for real in (True, False):
        # a real field from real samples, and real_flag on non-Hermitian coefficients
        fields = [transform(g, _full_band(rng, g.spacetime_shape, real), SPACETIME),
                  SpectralField(g, SPACETIME, _full_band(rng, g.spacetime_shape, False),
                                real_flag=real)]
        for u in fields:
            want = _full_box_time_spatial_rep(u)
            got = time_spatial_rep(u)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        a = _full_band(rng, g.spacetime_shape, False)
        for real_flag in (True, False):
            want = _full_box_from_time_spatial_rep(g, a, real_flag=real_flag).coeffs
            out = from_time_spatial_rep(g, a, real_flag=real_flag)
            assert np.max(np.abs(out.coeffs - want)) <= 1e-15 * np.max(np.abs(want))
            assert out.real_flag is real_flag
        assert from_time_spatial_rep(g, a, real_flag=True).hermitian_error() == 0.0


def test_time_cutoff_agrees_with_the_sample_route():
    g = make_grid(2, 16, 8, 1.0, TWO_PI)
    phi = cutoff_profile(g, 0.5).reshape((g.N_t, 1, 1))
    for real in (True, False):
        u = random_field(g, SPACETIME, 4, max_freq=8, real=real)
        u.zero_mode_projected = True
        want = transform(g, inverse_transform(u) * phi, SPACETIME).coeffs
        out = time_cutoff(u, 0.5)
        assert np.max(np.abs(out.coeffs - want)) <= 1e-15 * np.max(np.abs(want))
        assert out.real_flag is real and out.zero_mode_projected
        if real:
            assert out.hermitian_error() == 0.0


# ---------------------------------------------------------------------------
# signed index axes: the per-axis loops random_field and the witness dictionary
# were written with, kept as the reference for lattice._index_axes


def _random_field_loops(grid, kind, seed, max_freq=None, real=True, decay=1.0):
    rng = np.random.default_rng(seed)
    shape = grid.shape_for(kind)
    P = rng.standard_normal(shape)
    if not real:
        P = P + 1j * rng.standard_normal(shape)
    c = transform(grid, P, kind).coeffs
    if max_freq is None:
        max_freq = grid.N_x // 4
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
    return np.where(mask, c, 0.0) / (1.0 + weight) ** (decay / 2.0)


def _witness_dictionary_loops(grid):
    shape = grid.spacetime_shape
    kt = np.abs(np.fft.fftfreq(grid.N_t) * grid.N_t).reshape((grid.N_t,) + (1,) * grid.n)
    k2 = np.zeros(shape)
    for j in range(grid.n):
        sh = [1] * (grid.n + 1)
        sh[j + 1] = grid.N_x
        k2 = k2 + (np.abs(np.fft.fftfreq(grid.N_x) * grid.N_x).reshape(sh)) ** 2
    dc = np.zeros(shape)
    dc[(0,) * (grid.n + 1)] = 1.0
    return [dc] + [np.exp(-((kt / st) ** 2) - k2 / sx**2)
                   for st in (0.5, 2.0, 8.0) for sx in (0.5, 2.0, 8.0)]


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n, N_t, N_x", [(1, 16, 8), (2, 8, 16), (3, 4, 8)])
def test_index_axes_keep_the_per_axis_loops_bit_for_bit(n, N_t, N_x):
    import nflab.lattice as lat
    g = make_grid(n, N_t, N_x, 2.3, 5.1)
    got, want = lat._witness_dictionary(g), _witness_dictionary_loops(g)
    assert len(got) == len(want) and all(_same_bits(x, y) for x, y in zip(got, want))
    for seed, (kind, real, max_freq, decay) in enumerate(itertools.product(
            (SPACETIME, SPATIAL), (True, False), (None, 2, N_x // 2), (1.0, 2.0))):
        f = random_field(g, kind, seed, max_freq=max_freq, real=real, decay=decay)
        assert f.real_flag == real
        assert _same_bits(f.coeffs, _random_field_loops(g, kind, seed, max_freq, real, decay))
