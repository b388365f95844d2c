import math

import numpy as np
import pytest

from nflab.iterate import (IterationTrace, SystemSpec, apply_nonlinearity,
                           iterate_samples, picard_run, q0_closed_form)
from nflab.lattice import (SPACETIME, SPATIAL, SpectralField, inverse_transform,
                           make_grid, random_field, transform)
from nflab.multiplier import SpaceIndex
from nflab.propagate import CauchyData, signed_times

TWO_PI = 2.0 * math.pi


def _zero_spatial(grid):
    return SpectralField(grid=grid, kind=SPATIAL,
                         coeffs=np.zeros(grid.spatial_shape, dtype=complex),
                         real_flag=True)


def _cos_data(grid, amp, seed=None):
    axes = [np.arange(grid.N_x) * grid.dx for _ in range(grid.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    P = amp * np.prod([np.cos(x) for x in mesh], axis=0)
    return CauchyData(transform(grid, P, SPATIAL), _zero_spatial(grid))


def test_system_spec_validation():
    with pytest.raises(ValueError):
        SystemSpec("unknown")
    with pytest.raises(ValueError):
        SystemSpec("MKGmodel", N1=0, N2=2)
    with pytest.raises(ValueError):
        SystemSpec("WM", N=2, gamma_const=np.ones((3, 3, 3)))
    with pytest.raises(ValueError):
        SystemSpec("WM", N=1, gamma_poly=[(np.ones((1, 1, 1)), (5,))])


def test_nonlinearity_vanishes_at_zero(grid2d):
    zero_st = SpectralField(grid=grid2d, kind=SPACETIME,
                            coeffs=np.zeros(grid2d.spacetime_shape, dtype=complex),
                            real_flag=True)
    for spec in (SystemSpec("scalarQ0"), SystemSpec("WM", N=2),
                 SystemSpec("WMM", N=2), SystemSpec("YMmodel", N=1),
                 SystemSpec("MKGmodel", N1=1, N2=1)):
        out = apply_nonlinearity(spec, [zero_st] * spec.N)
        assert all(np.max(np.abs(f.coeffs)) == 0.0 for f in out)


def test_wm_single_cone_mode_annihilates(grid2d):
    c = np.zeros(grid2d.spacetime_shape, dtype=complex)
    c[3, 3, 0] = 1.0  # tau = |xi| = 3 exactly
    u = SpectralField(grid=grid2d, kind=SPACETIME, coeffs=c)
    out = apply_nonlinearity(SystemSpec("WM", N=1), [u])
    assert np.max(np.abs(out[0].coeffs)) <= 1e-12


def test_wmm_coefficient_symmetrization(grid2d):
    a = np.zeros((2, 2, 2))
    a[0, 0, 1] = 2.0
    a[1, 1, 0] = -1.0
    spec = SystemSpec("WMM", N=2, a_table=a)
    u = random_field(grid2d, SPACETIME, 0, max_freq=2)
    v = random_field(grid2d, SPACETIME, 1, max_freq=2)
    out = apply_nonlinearity(spec, [u, v])
    swapped = apply_nonlinearity(SystemSpec("WMM", N=2, a_table=a.transpose(0, 2, 1)),
                                 [v, u])
    for f, g in zip(out, swapped):
        top = max(np.max(np.abs(f.coeffs)), 1e-300)
        assert np.max(np.abs(f.coeffs - g.coeffs)) <= 1e-11 * top


def test_wm_polynomial_gamma_against_direct_evaluation(grid2d):
    # Gamma(u) = 1 + 2 u^2 for a single component: compare against an
    # independent evaluation of -(1 + 2 u^2) Q0(u,u) on a lattice padded for
    # the full degree-4 product
    from nflab.lattice import field_from_fine_samples, fine_samples
    spec = SystemSpec("WM", N=1,
                      gamma_poly=[(2.0 * np.ones((1, 1, 1)), (2,))])
    u = random_field(grid2d, SPACETIME, 8, max_freq=2)
    got = apply_nonlinearity(spec, [u])[0]

    factor = 2.5  # (degree 4 + 1) / 2
    g = grid2d
    U = fine_samples(u, factor)
    dt = fine_samples(u.copy_with(u.coeffs * (1j * g.tau_broadcast())), factor)
    q0 = -dt * dt
    for ax in range(g.n):
        dx = fine_samples(u.copy_with(u.coeffs * (1j * g.xi_component(ax, "spacetime"))),
                          factor)
        q0 = q0 + dx * dx
    manual = field_from_fine_samples(g, "spacetime", -(1.0 + 2.0 * U**2) * q0,
                                     real_flag=True)
    top = np.max(np.abs(manual.coeffs))
    assert np.max(np.abs(got.coeffs - manual.coeffs)) <= 1e-11 * top


def test_component_count_mismatch(grid2d):
    u = random_field(grid2d, SPACETIME, 2, max_freq=2)
    with pytest.raises(ValueError):
        apply_nonlinearity(SystemSpec("WM", N=2), [u])


def test_picard_zero_data_stays_zero(grid2d):
    data = [CauchyData(_zero_spatial(grid2d), _zero_spatial(grid2d))]
    trace = picard_run(SystemSpec("scalarQ0"), data, 4, SpaceIndex(1.0, 0.6), math.pi)
    assert all(v == 0.0 for v in trace.sup_hs)
    assert all(d == 0.0 for d in trace.d)
    assert trace.flag in ("converged", "stalled")


def test_picard_first_difference_is_duhamel_of_nonlinearity():
    g = make_grid(2, 16, 16, 1.0, TWO_PI)
    data = [_cos_data(g, 0.05)]
    sys_spec = SystemSpec("scalarQ0")
    from nflab.iterate import iterate_samples
    from nflab.lattice import cutoff_profile, from_time_spatial_rep, time_spatial_rep
    from nflab.propagate import duhamel_mixed, homogeneous_spacetime
    width = 0.5
    u1 = iterate_samples(sys_spec, data, 1, width)[0]
    u0 = homogeneous_spacetime(data[0])
    phi = cutoff_profile(g, width).reshape(16, 1, 1)
    W = from_time_spatial_rep(g, phi * u0, real_flag=True)
    F = apply_nonlinearity(sys_spec, [W])[0]
    expect = u0 + duhamel_mixed(g, time_spatial_rep(F))
    assert np.max(np.abs(u1 - expect)) <= 1e-13 * max(np.max(np.abs(expect)), 1e-300)


def test_wm_quadratic_scaling_of_first_difference():
    g = make_grid(2, 16, 16, 1.0, TWO_PI)
    ratios = []
    for eps in (1e-2, 1e-3):
        data = [_cos_data(g, eps)]
        tr = picard_run(SystemSpec("WM", N=1), data, 2, SpaceIndex(1.2, 0.6), 0.5)
        ratios.append(tr.d[0] / eps**2)
    assert abs(ratios[0] - ratios[1]) / ratios[1] <= 0.05


def test_iterates_remain_real():
    g = make_grid(2, 16, 16, 1.0, TWO_PI)
    data = [_cos_data(g, 0.05)]
    final = iterate_samples(SystemSpec("scalarQ0"), data, 3, 0.5)[0]
    P = np.fft.ifftn(final * g.N_x**g.n, axes=(1, 2))
    assert np.max(np.abs(P.imag)) <= 1e-12


def test_cutoff_locality_on_inner_window():
    # doubling the cutoff width leaves the inner window unchanged; the time
    # axis must resolve the bump well enough that its spectral tail sits
    # below the 1e-10 target
    g = make_grid(2, 256, 16, 2.0, TWO_PI)
    data = [_cos_data(g, 0.05)]
    a = iterate_samples(SystemSpec("scalarQ0"), data, 3, 0.5)[0]
    b = iterate_samples(SystemSpec("scalarQ0"), data, 3, 1.0)[0]
    ts = signed_times(g)
    inner = np.abs(ts) <= 0.25 + 1e-12
    assert np.max(np.abs(a[inner] - b[inner])) <= 1e-10


def test_contraction_small_data():
    g = make_grid(2, 32, 16, 1.0, TWO_PI)
    for spec in (SystemSpec("scalarQ0"), SystemSpec("WM", N=1)):
        data = [_cos_data(g, 0.05)]
        tr = picard_run(spec, data, 6, SpaceIndex(1.2, 0.6), 0.5)
        floor = 1e-13 * max(tr.sup_hs[0], 1.0)
        for j in range(2, len(tr.d)):
            if tr.d[j] > floor:
                assert tr.d[j] / tr.d[j - 1] < 0.5
        assert tr.flag == "converged"


def test_divergence_flagged():
    g = make_grid(2, 16, 16, 1.0, TWO_PI)
    data = [_cos_data(g, 3e4)]
    tr = picard_run(SystemSpec("scalarQ0"), data, 4, SpaceIndex(1.0, 0.6), 0.5)
    assert tr.flag == "diverged"
    assert tr.diverged_at is not None


def test_trace_csv_schema():
    g = make_grid(2, 16, 16, 1.0, TWO_PI)
    tr = picard_run(SystemSpec("scalarQ0"), [_cos_data(g, 0.01)], 3,
                    SpaceIndex(1.0, 0.6), 0.5)
    lines = tr.to_csv().strip().splitlines()
    assert lines[0] == "j,sup_Hs,d_j,ratio_j,flag"
    assert len(lines) == len(tr.sup_hs) + 1
    assert lines[-1].endswith(tr.flag)


def test_q0_closed_form_trivial_cases(grid2d):
    zero = _zero_spatial(grid2d)
    d0 = CauchyData(zero, zero)
    out = q0_closed_form(d0, 0.7)
    assert np.max(np.abs(inverse_transform(out))) <= 1e-13
    d1 = _cos_data(grid2d, 0.03)
    at0 = q0_closed_form(d1, 0.0)
    f_samp = inverse_transform(d1.f)
    assert np.max(np.abs(inverse_transform(at0) - f_samp)) <= 1e-12


def test_q0_closed_form_log_branch_guard(grid2d):
    big = _cos_data(grid2d, 1.0)
    with pytest.raises(ValueError):
        q0_closed_form(big, 0.0)


def test_ym_and_mkg_zero_mode_flag(grid2d):
    u = random_field(grid2d, SPACETIME, 5, max_freq=2)
    out = apply_nonlinearity(SystemSpec("YMmodel", N=1), [u])
    assert out[0].zero_mode_projected
    uv = [random_field(grid2d, SPACETIME, 6, max_freq=2),
          random_field(grid2d, SPACETIME, 7, max_freq=2)]
    out2 = apply_nonlinearity(SystemSpec("MKGmodel", N1=1, N2=1), uv)
    assert len(out2) == 2


def _grid3():
    return make_grid(3, 8, 8, 1.0, TWO_PI)


def _random_systems(n):
    rng = np.random.default_rng(11)
    pairs = n * (n - 1) // 2
    return [SystemSpec("WM", N=2, gamma_const=rng.uniform(-1, 1, (2, 2, 2))),
            SystemSpec("WMM", N=2, a_table=rng.uniform(-1, 1, (2, 2, 2))),
            SystemSpec("YMmodel", N=2, q_coeff=rng.uniform(-1, 1, (2, pairs, 2, 2)),
                       q_coeff_second=rng.uniform(-1, 1, (2, pairs, 2, 2))),
            SystemSpec("MKGmodel", N1=1, N2=2, q_coeff=rng.uniform(-1, 1, (1, pairs, 2, 2)),
                       q_coeff_second=rng.uniform(-1, 1, (2, pairs, 1, 2))),
            SystemSpec("scalarQ0")]


@pytest.mark.parametrize("kind, pads", [("YMmodel", 12), ("WMM", 8)])
def test_nonlinearity_pads_each_input_once(monkeypatch, kind, pads):
    # n = 3, N = 2: YMmodel needs the three gradients of u^J and of D^-1 u^J,
    # WMM needs u^J and its three R_0 R_j images
    import nflab.lattice as lat
    comps = [random_field(_grid3(), SPACETIME, s, max_freq=2) for s in (1, 2)]
    inputs = []
    original = lat.fine_samples

    def counting(f, factor=1.5):
        inputs.append(f.coeffs.tobytes())
        return original(f, factor)

    monkeypatch.setattr(lat, "fine_samples", counting)
    apply_nonlinearity(SystemSpec(kind, N=2), comps)
    assert len(inputs) == len(set(inputs)) == pads


def test_nonlinearity_equals_assembly_from_forms():
    from nflab.multiplier import MultiplierSpec, apply
    from nflab.nullform import BilinearFormSpec, apply_form
    g = _grid3()
    comps = [random_field(g, SPACETIME, s, max_freq=2) for s in (3, 4, 5)]
    pairs = [(i, j) for i in range(1, 4) for j in range(i + 1, 4)]

    def form(name, u, v, **kw):
        return apply_form(BilinearFormSpec(name, **kw), u, v).coeffs

    def dinv(c):
        return apply(MultiplierSpec("d", -1.0), SpectralField(grid=g, kind=SPACETIME, coeffs=c))

    def q_sum(coeff, left, right):
        return [sum(coeff[I, p, J, K] * form("qij", left[J], right[K], i=i, j=j)
                    for p, (i, j) in enumerate(pairs)
                    for J in range(len(left)) for K in range(len(right)))
                for I in range(coeff.shape[0])]

    for spec in _random_systems(3):
        u = comps[:spec.N]
        if spec.kind == "WM":
            want = [-sum(spec.gamma_const[I, J, K] * form("q0", u[J], u[K])
                         for J in range(2) for K in range(2)) for I in range(2)]
        elif spec.kind == "WMM":
            want = [sum(spec.a_table[I, J, K] * form("qtilde", u[J], u[K])
                        for J in range(2) for K in range(2)) for I in range(2)]
        elif spec.kind == "YMmodel":
            dinv_u = [dinv(f.coeffs) for f in u]
            want = [dinv(a).coeffs + b for a, b in zip(q_sum(spec.q_coeff, u, u),
                                                       q_sum(spec.q_coeff_second, dinv_u, u))]
        elif spec.kind == "MKGmodel":
            top = [dinv(a).coeffs for a in q_sum(spec.q_coeff, u[1:], u[1:])]
            want = top + q_sum(spec.q_coeff_second, [dinv(u[0].coeffs)], u[1:])
        else:
            want = [form("q0", u[0], u[0])]
        got = apply_nonlinearity(spec, u)
        assert len(got) == len(want)
        for f, w in zip(got, want):
            assert np.max(np.abs(f.coeffs - w)) <= 1e-12 * np.max(np.abs(w)), spec.kind
