import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nflab import nullform
from nflab.lattice import (SPACETIME, SPATIAL, FrequencyPoint, SpectralField,
                           dealiased_product, from_time_spatial_rep, make_grid,
                           plane_wave_coeffs, random_field, transform)
from nflab.multiplier import MultiplierSpec, apply
from nflab.nullform import (INEQUALITY_REGISTRY, BilinearFormSpec, apply_form,
                            check_symbol_inequality, delta_minus, delta_plus,
                            kernel_value, occupied_modes, r_kernel)
from nflab.propagate import half_wave, pm_decompose

from conftest import axis_mode_field, banded_spacetime_field, single_mode_field, traced_peak

TWO_PI = 2.0 * math.pi
Q0 = BilinearFormSpec("q0")


def test_spec_validation():
    with pytest.raises(ValueError):
        BilinearFormSpec("ralpha", alpha=0.0)
    with pytest.raises(ValueError):
        BilinearFormSpec("qij", i=2, j=2)
    with pytest.raises(ValueError):
        BilinearFormSpec("nope")


def test_q0_of_constants_vanishes(grid2d):
    c = np.zeros(grid2d.spacetime_shape, dtype=complex)
    c[0, 0, 0] = 3.0
    u = SpectralField(grid=grid2d, kind=SPACETIME, coeffs=c, real_flag=True)
    out = apply_form(Q0, u, u)
    assert np.max(np.abs(out.coeffs)) <= 1e-14


def test_q0_annihilates_cone_modes(grid2d):
    u = single_mode_field(grid2d, 3, (3, 0))  # tau = |xi| exactly on the lattice
    out = apply_form(Q0, u, u)
    assert np.max(np.abs(out.coeffs)) <= 1e-12


def test_qij_antisymmetry(grid2d):
    spec = BilinearFormSpec("qij", i=1, j=2)
    u = random_field(grid2d, SPACETIME, 0, max_freq=3, real=False)
    v = random_field(grid2d, SPACETIME, 1, max_freq=3, real=False)
    self_out = apply_form(spec, u, u)
    assert np.max(np.abs(self_out.coeffs)) <= 1e-13
    ab = apply_form(spec, u, v).coeffs
    ba = apply_form(spec, v, u).coeffs
    assert np.max(np.abs(ab + ba)) <= 1e-12 * max(np.max(np.abs(ab)), 1e-300)


def test_q0_symmetry_and_bilinearity(grid2d):
    u = random_field(grid2d, SPACETIME, 2, max_freq=3, real=False)
    v = random_field(grid2d, SPACETIME, 3, max_freq=3, real=False)
    w = random_field(grid2d, SPACETIME, 4, max_freq=3, real=False)
    uv = apply_form(Q0, u, v).coeffs
    vu = apply_form(Q0, v, u).coeffs
    assert np.max(np.abs(uv - vu)) <= 1e-12 * np.max(np.abs(uv))
    lin = apply_form(Q0, u.copy_with(u.coeffs + 2.0 * w.coeffs), v).coeffs
    parts = uv + 2.0 * apply_form(Q0, w, v).coeffs
    assert np.max(np.abs(lin - parts)) <= 1e-11 * np.max(np.abs(parts))


def test_q0_polarization_identity(grid2d):
    # Q0(u,v) = [box(uv) - (box u) v - u (box v)] / 2 on the lattice
    u = random_field(grid2d, SPACETIME, 5, max_freq=3, real=False)
    v = random_field(grid2d, SPACETIME, 6, max_freq=3, real=False)
    g = grid2d

    def box(f):
        tau = g.tau_broadcast()
        sym = tau**2 - g.abs_xi(SPACETIME) ** 2
        return f.copy_with(f.coeffs * sym)

    lhs = apply_form(Q0, u, v).coeffs
    rhs = 0.5 * (box(dealiased_product(u, v)).coeffs
                 - dealiased_product(box(u), v).coeffs
                 - dealiased_product(u, box(v)).coeffs)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))


def test_kernel_values_ralpha_branches():
    e1 = np.array([1.0, 0.0])
    spec = BilinearFormSpec("ralpha", alpha=1.0)
    same = kernel_value(spec, FrequencyPoint(1.0, e1), FrequencyPoint(1.0, e1))
    assert abs(same) <= 1e-14  # parallel same-sign: |e1|+|e1|-|2 e1| = 0
    opp = kernel_value(spec, FrequencyPoint(1.0, e1), FrequencyPoint(-1.0, -e1))
    assert abs(opp) <= 1e-14  # tau*lam < 0 branch: |0| - ||e1|-|e1||


def test_kernel_value_delta_plus_example():
    spec = BilinearFormSpec("splus", alpha=1.0)
    val = kernel_value(spec, FrequencyPoint(0.0, [1.0, 0.0]), FrequencyPoint(0.0, [0.0, 1.0]))
    assert abs(val - (2.0 - math.sqrt(2.0))) <= 1e-12


def test_kernel_value_qij_product_and_qtilde():
    p, q = FrequencyPoint(1.0, [1.0, 2.0, 7.0]), FrequencyPoint(-2.0, [3.0, 5.0, 11.0])
    # Q_ij = d_i u d_j v - d_j u d_i v has the symbol xi_j eta_i - xi_i eta_j
    assert kernel_value(BilinearFormSpec("qij", i=1, j=2), p, q) == complex(2 * 3 - 1 * 5)
    assert kernel_value(BilinearFormSpec("qij", i=2, j=3), p, q) == complex(7 * 5 - 2 * 11)
    assert kernel_value(BilinearFormSpec("product"), p, q) == 1.0 + 0.0j
    with pytest.raises(ValueError, match="^qtilde has no pointwise kernel$"):
        kernel_value(BilinearFormSpec("qtilde"), p, q)


def test_kernel_value_q0_is_lorentz_pairing():
    # Q0 = -d_t u d_t v + grad u . grad v has the symbol tau lam - xi . eta
    spec = BilinearFormSpec("q0")
    v = kernel_value(spec, FrequencyPoint(2.0, [1.0, 0.0]), FrequencyPoint(3.0, [0.0, 4.0]))
    assert abs(v - (2.0 * 3.0 - 0.0)) <= 1e-14


@given(st.lists(st.floats(-50, 50), min_size=3, max_size=3),
       st.lists(st.floats(-50, 50), min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_delta_kernels_match_naive_formulas(a, b):
    a = np.array(a)
    b = np.array(b)
    na, nb, ns = np.linalg.norm(a), np.linalg.norm(b), np.linalg.norm(a + b)
    scale = max(na, nb, 1.0)
    dp = float(delta_plus(a[None, :], b[None, :])[0])
    dm = float(delta_minus(a[None, :], b[None, :])[0])
    assert abs(dp - (na + nb - ns)) <= 1e-9 * scale
    assert abs(dm - (ns - abs(na - nb))) <= 1e-9 * scale
    assert dp >= -1e-12 * scale and dm >= -1e-12 * scale


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def _reference_delta_plus(a, b):
    """Delta_+ written with np.sum reductions: the bit-level reference for n <= 3."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    na, nb, ns = (np.sqrt(np.sum(x * x, axis=-1)) for x in (a, b, a + b))
    dot = np.sum(a * b, axis=-1)
    prod_minus = np.where(dot > 0,
                          nullform._wedge_sq(a, b) / np.maximum(na * nb + dot, 1e-300),
                          na * nb - dot)
    out = 2.0 * prod_minus / np.maximum(na + nb + ns, 1e-300)
    return np.where(na + nb == 0.0, 0.0, out)


def _reference_delta_minus(a, b):
    """Delta_- written with np.sum reductions: the bit-level reference for n <= 3."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    na, nb, ns = (np.sqrt(np.sum(x * x, axis=-1)) for x in (a, b, a + b))
    dot = np.sum(a * b, axis=-1)
    prod_plus = np.where(dot < 0,
                         nullform._wedge_sq(a, b) / np.maximum(na * nb - dot, 1e-300),
                         na * nb + dot)
    out = 2.0 * prod_plus / np.maximum(ns + np.abs(na - nb), 1e-300)
    return np.where(na + nb == 0.0, 0.0, out)


def _spread(rng, shape):
    """Signed components of magnitude 1e-8 .. 1e8, none of them zero."""
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dot_and_norm_are_numpy_sums_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for sa, sb in (((500, n), (500, n)), ((40, 1, n), (1, 30, n)), ((n,), (7, n))):
        a, b = _spread(rng, sa), _spread(rng, sb)
        assert _same_bits(nullform._dot(a, b), np.sum(a * b, axis=-1))
        assert _same_bits(nullform._norm(a), np.sqrt(np.sum(a * a, axis=-1)))
    # with zero components: the norm keeps its bits; a dot product of -0.0 terms
    # stays -0.0 where numpy's reduction gives +0.0, a difference no caller sees
    a = np.where(rng.uniform(size=(2000, n)) < 0.3, -0.0, _spread(rng, (2000, n)))
    b = np.where(rng.uniform(size=(2000, n)) < 0.3, 0.0, _spread(rng, (2000, n)))
    assert _same_bits(nullform._norm(a), np.sqrt(np.sum(a * a, axis=-1)))
    assert np.array_equal(nullform._dot(a, b), np.sum(a * b, axis=-1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_delta_kernels_keep_the_bits_of_the_reduction_formulas(n):
    rng = np.random.default_rng(10 + n)
    _, _, xi, eta = nullform._draw_frequency_pairs(rng, 5000, n)
    zeros = np.where(rng.uniform(size=(200, n)) < 0.5, -0.0, 0.0)
    cases = [(xi, eta), (xi, -eta), (zeros, zeros), (zeros, eta[:200]), (-eta[:200], zeros),
             (_spread(rng, (40, 1, n)), _spread(rng, (1, 30, n)))]
    with np.errstate(all="ignore"):  # overflow in the np.where branch not taken
        for a, b in cases:
            assert _same_bits(delta_plus(a, b), _reference_delta_plus(a, b))
            assert _same_bits(delta_minus(a, b), _reference_delta_minus(a, b))


def test_delta_kernels_in_four_and_more_dimensions():
    a, b = np.array([1.0, 0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0, 0.5])
    assert float(delta_plus(a, b)[0]) == pytest.approx(
        math.sqrt(2.0) + math.sqrt(1.25) - 2.5, rel=1e-12)
    assert float(delta_minus(a, -b)[0]) == pytest.approx(
        0.5 - (math.sqrt(2.0) - math.sqrt(1.25)), rel=1e-12)
    rng = np.random.default_rng(4)
    for n in (4, 5, 7):
        a, b = rng.standard_normal((500, n)), rng.standard_normal((500, n))
        na, nb, ns = (np.linalg.norm(x, axis=-1) for x in (a, b, a + b))
        wedge = np.sum(a * a, -1) * np.sum(b * b, -1) - np.sum(a * b, -1) ** 2
        assert np.allclose(nullform._wedge_sq(a, b), wedge, rtol=1e-10, atol=1e-12)
        assert np.allclose(delta_plus(a, b), na + nb - ns, rtol=1e-9, atol=1e-12)
        assert np.allclose(delta_minus(a, b), ns - np.abs(na - nb), rtol=1e-9, atol=1e-12)


def test_exact_identity_part_a(grid2d):
    # multiplier route equals the slice-convolution route for half-wave pairs
    f = axis_mode_field(grid2d, 4, 1)
    h = axis_mode_field(grid2d, 3, 2)
    alpha = 0.7
    for sgn, form in ((1, "splus"), (-1, "sminus")):
        a_u = np.empty((grid2d.N_t,) + grid2d.spatial_shape, dtype=complex)
        a_v = np.empty_like(a_u)
        for j, t in enumerate(grid2d.times()):
            a_u[j] = plane_wave_coeffs(half_wave(1, t, f))
            a_v[j] = plane_wave_coeffs(half_wave(sgn, t, h))
        U = from_time_spatial_rep(grid2d, a_u)
        V = from_time_spatial_rep(grid2d, a_v)
        route1 = apply(MultiplierSpec("d_minus", alpha), dealiased_product(U, V))
        route2 = apply_form(BilinearFormSpec(form, alpha=alpha), U, V)
        top = np.max(np.abs(route2.coeffs))
        assert np.max(np.abs(route1.coeffs - route2.coeffs)) <= 1e-8 * top


def test_exact_identity_part_b(grid2d):
    # R^alpha equals the four-term S_{+/-} sum over the +/- decomposition
    u = banded_spacetime_field(grid2d, 3, 3, 11)
    v = banded_spacetime_field(grid2d, 3, 3, 12)
    alpha = 0.6
    direct = apply_form(BilinearFormSpec("ralpha", alpha=alpha), u, v).coeffs
    up, um = pm_decompose(u)
    vp, vm = pm_decompose(v)
    sp = BilinearFormSpec("splus", alpha=alpha)
    sm = BilinearFormSpec("sminus", alpha=alpha)
    four = (apply_form(sp, up, vp).coeffs + apply_form(sm, up, vm).coeffs
            + apply_form(sm, um, vp).coeffs + apply_form(sp, um, vm).coeffs)
    assert np.max(np.abs(direct - four)) <= 1e-8 * np.max(np.abs(direct))


def test_ralpha_symmetric(grid2d):
    u = banded_spacetime_field(grid2d, 2, 2, 13)
    v = banded_spacetime_field(grid2d, 2, 2, 14)
    spec = BilinearFormSpec("ralpha", alpha=0.8)
    ab = apply_form(spec, u, v).coeffs
    ba = apply_form(spec, v, u).coeffs
    assert np.max(np.abs(ab - ba)) <= 1e-11 * np.max(np.abs(ab))


def test_splus_spatial_direct_convolution_symmetric(grid2d):
    f = axis_mode_field(grid2d, 2, 3)
    h = axis_mode_field(grid2d, 2, 4)
    out = apply_form(BilinearFormSpec("splus", alpha=1.0), f, h)
    assert out.kind == SPATIAL
    sym = apply_form(BilinearFormSpec("splus", alpha=1.0), h, f)
    assert np.max(np.abs(out.coeffs - sym.coeffs)) <= 1e-12 * np.max(np.abs(out.coeffs))


def _direct_double_sum(spec, u, v):
    """Test oracle of the kernel route: sum of kernel_value(p, q) u_p v_q / sqrt(volume) over
    all pairs of occupied modes whose sum p + q lies in the lattice band."""
    g, shape = u.grid, u.coeffs.shape
    iu, cu = occupied_modes(u)
    iv, cv = occupied_modes(v)
    st_kind = u.kind == SPACETIME
    memo = {}  # kernel_value depends on (tau, lam) only through (tau >= 0) == (lam >= 0)

    def kernel(p, q):
        key = (st_kind and (p[0] >= 0) == (q[0] >= 0), p[-g.n:], q[-g.n:])
        if key not in memo:
            tau = (p[0] * TWO_PI / g.T_per, q[0] * TWO_PI / g.T_per) if st_kind else (0.0, 0.0)
            memo[key] = kernel_value(
                spec, FrequencyPoint(tau[0], np.array(p[-g.n:]) * TWO_PI / g.L_per),
                FrequencyPoint(tau[1], np.array(q[-g.n:]) * TWO_PI / g.L_per))
        return memo[key]

    out = np.zeros(shape, dtype=complex)
    for p, cp in zip(map(tuple, iu.tolist()), cu):
        for q, cq in zip(map(tuple, iv.tolist()), cv):
            s = tuple(a + b for a, b in zip(p, q))
            if all(-(N // 2) <= k < N // 2 for k, N in zip(s, shape)):
                out[s] += kernel(p, q) * cp * cq
    return out / math.sqrt(g.volume if st_kind else g.spatial_volume)


def _full_band_field(grid, kind, seed):
    """Complex coefficients on every lattice mode: tau = 0 and Nyquist planes included."""
    rng = np.random.default_rng(seed)
    shape = grid.shape_for(kind)
    return SpectralField(grid=grid, kind=kind,
                         coeffs=rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("n, N", [(2, 8), (3, 4)])
@pytest.mark.parametrize("form, kind", [("ralpha", SPACETIME), ("splus", SPATIAL),
                                        ("sminus", SPATIAL), ("splus", SPACETIME),
                                        ("sminus", SPACETIME)])
def test_kernel_forms_match_direct_double_sum(n, N, form, kind):
    g = make_grid(n, N, N, 5.0, 3.0)
    u, v = _full_band_field(g, kind, 31), _full_band_field(g, kind, 32)
    spec = BilinearFormSpec(form, alpha=0.7)
    want = _direct_double_sum(spec, u, v)
    got = apply_form(spec, u, v).coeffs
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("form, kind", [("ralpha", SPACETIME), ("splus", SPACETIME),
                                        ("sminus", SPACETIME), ("splus", SPATIAL),
                                        ("sminus", SPATIAL)])
def test_kernel_form_with_a_zero_operand_is_zero(grid2d, form, kind):
    u = random_field(grid2d, kind, 4, real=False)
    zero = u.copy_with(np.zeros_like(u.coeffs))
    for a, b in ((u, zero), (zero, u), (zero, zero)):
        out = apply_form(BilinearFormSpec(form), a, b)
        assert out.coeffs.shape == grid2d.shape_for(kind) and not np.any(out.coeffs)


def test_occupied_modes_of_the_zero_field_are_empty(grid2d):
    u = random_field(grid2d, SPACETIME, 4, real=False)
    idx, vals = occupied_modes(u.copy_with(np.zeros_like(u.coeffs)))
    assert (idx.shape, idx.dtype, vals.shape, vals.dtype) == ((0, 3), np.int64, (0,),
                                                              np.complex128)


def test_ralpha_tau_zero_sides_with_positive_tau(grid2d):
    # Delta_+ where (tau >= 0) == (lam >= 0), Delta_- where not: tau = 0 is on the side of
    # tau > 0, as pm_decompose puts the tau = 0 plane in u_plus
    a, b = np.array([2, 1]), np.array([-1, 3])
    spec = BilinearFormSpec("ralpha", alpha=0.7)
    N = grid2d.N_x
    for kt, lk in itertools.product((0, 3, -3), (0, 2, -2)):
        delta = delta_plus if (kt >= 0) == (lk >= 0) else delta_minus
        out = apply_form(spec, single_mode_field(grid2d, kt, a),
                         single_mode_field(grid2d, lk, b)).coeffs
        pos = ((kt + lk) % grid2d.N_t,) + tuple((a + b) % N)
        want = float(delta(a[None, :], b[None, :])[0]) ** 0.7 / math.sqrt(grid2d.volume)
        assert abs(out[pos] - want) <= 1e-14, (kt, lk)
        out[pos] = 0.0
        assert np.max(np.abs(out)) <= 1e-15, (kt, lk)
    assert abs(float(delta_plus(a[None, :], b[None, :])[0])
               - float(delta_minus(a[None, :], b[None, :])[0])) > 0.5


def test_ralpha_output_is_never_flagged_real():
    # the tau = 0 rule (tau >= 0) == (lam >= 0) is not odd under (tau, lam) -> (-tau, -lam),
    # so real inputs without Nyquist content give a far from Hermitian output; Delta_+ and
    # Delta_- read the spatial pair alone and keep the flag
    g = make_grid(2, 16, 16, TWO_PI, TWO_PI)
    u, v = (random_field(g, SPACETIME, seed, max_freq=3) for seed in (1, 2))
    out = apply_form(BilinearFormSpec("ralpha", alpha=0.7), u, v)
    assert out.hermitian_error() > 0.5 * np.max(np.abs(out.coeffs))
    assert not out.real_flag
    for form in ("splus", "sminus"):
        out = apply_form(BilinearFormSpec(form, alpha=0.7), u, v)
        assert out.real_flag and out.hermitian_error() <= 1e-14 * np.max(np.abs(out.coeffs))


def test_ralpha_evaluates_kernels_once_per_spatial_pair(monkeypatch):
    g = make_grid(2, 16, 16, TWO_PI, TWO_PI)
    u = random_field(g, SPACETIME, 21, max_freq=3)
    v = random_field(g, SPACETIME, 22, max_freq=3)
    sizes = {"delta_plus": [], "delta_minus": []}
    for name, fn in ((name, getattr(nullform, name)) for name in sizes):
        def counted(a, b, fn=fn, name=name):
            out = fn(a, b)
            sizes[name].append(out.size)
            return out
        monkeypatch.setattr(nullform, name, counted)
    apply_form(BilinearFormSpec("ralpha", alpha=0.8), u, v)

    def columns(f):
        return len({tuple(k[1:]) for k in occupied_modes(f)[0]})

    spatial_pairs = columns(u) * columns(v)
    assert sizes == {"delta_plus": [spatial_pairs], "delta_minus": [spatial_pairs]}
    assert len(occupied_modes(u)[0]) * len(occupied_modes(v)[0]) == 49 * spatial_pairs


def test_ralpha_holds_no_array_of_all_pair_products():
    # one complex (3N_t/2, M_u, M_v) array of the pair products of the occupied spatial columns
    # is 61 MiB here; the sum runs block by block of time rows and never holds it
    g = make_grid(2, 32, 32, TWO_PI, TWO_PI)
    u, v = random_field(g, SPACETIME, 1), random_field(g, SPACETIME, 2)
    columns = [len({tuple(k[1:]) for k in occupied_modes(f)[0]}) for f in (u, v)]
    pair_array = 3 * g.N_t // 2 * columns[0] * columns[1] * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        apply_form(BilinearFormSpec("ralpha"), u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < pair_array / 4


@pytest.mark.parametrize("real, arrays", [(True, 5.5), (False, 6.5)])
def test_a_finished_group_sum_is_let_go_before_the_next_group_pads(monkeypatch, real, arrays):
    # qtilde at (3, 16) has three groups; holding a group's sum (and its last product) while
    # the next group pads its images costs about one more complex fine array than this bound
    monkeypatch.setenv("NFLAB_THREADS", "1")
    g = make_grid(3, 16, 16, TWO_PI, TWO_PI)
    u, v = random_field(g, SPACETIME, 1, real=real), random_field(g, SPACETIME, 2, real=real)
    fine_array = np.dtype(complex).itemsize * 24 ** 4
    apply_form(BilinearFormSpec("qtilde"), u, v)
    tracemalloc.start()
    try:
        apply_form(BilinearFormSpec("qtilde"), u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < arrays * fine_array


@pytest.mark.parametrize("real, arrays", [(True, 4.6), (False, 5.6)])
def test_qtilde_products_land_in_spent_operands(monkeypatch, real, arrays):
    # each product is written into an operand at its last use and each group sum is scaled in
    # place; a fresh array for every product and every w[I] * P peaked at 5.06 (real) and
    # 6.06 (complex) fine arrays
    monkeypatch.setenv("NFLAB_THREADS", "1")
    g = make_grid(3, 16, 16, TWO_PI, TWO_PI)
    u, v = random_field(g, SPACETIME, 1, real=real), random_field(g, SPACETIME, 2, real=real)
    peak = traced_peak(lambda: apply_form(BilinearFormSpec("qtilde"), u, v))
    assert peak < arrays * np.dtype(complex).itemsize * 24 ** 4


def test_qtilde_raises_riesz_flag_and_is_real(grid2d):
    u = random_field(grid2d, SPACETIME, 15, max_freq=3)
    v = random_field(grid2d, SPACETIME, 16, max_freq=3)
    out = apply_form(BilinearFormSpec("qtilde"), u, v)
    assert out.zero_mode_projected
    assert out.real_flag


def test_grid_mismatch_rejected(grid2d):
    from nflab.lattice import make_grid
    other = make_grid(2, 8, 8, TWO_PI, TWO_PI)
    u = random_field(grid2d, SPACETIME, 17)
    v = random_field(other, SPACETIME, 18)
    with pytest.raises(ValueError):
        apply_form(Q0, u, v)


@pytest.mark.parametrize("spec, n, kind, shown", [
    (Q0, 2, SPATIAL, "q0 needs spacetime fields"),
    (BilinearFormSpec("qtilde"), 2, SPATIAL, "qtilde needs spacetime fields"),
    (BilinearFormSpec("qij", i=1, j=3), 2, SPACETIME, "axis pair (1,3) exceeds dimension 2"),
    (BilinearFormSpec("qij", i=2, j=3), 1, SPACETIME, "axis pair (2,3) exceeds dimension 1"),
    (BilinearFormSpec("ralpha"), 2, SPATIAL, "ralpha needs spacetime fields")])
def test_form_guards_name_what_the_form_needs(spec, n, kind, shown):
    g = make_grid(n, 8, 8, TWO_PI, TWO_PI)
    u, v = random_field(g, kind, 1), random_field(g, kind, 2)
    with pytest.raises(ValueError, match=f"^{re.escape(shown)}$"):
        apply_form(spec, u, v)


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("side", ["u", "v"])
@pytest.mark.parametrize("form", nullform.FORMS)
def test_every_form_keeps_an_inputs_zero_mode_projection(grid2d, form, side, real):
    spec = BilinearFormSpec(form)
    u = random_field(grid2d, SPACETIME, 1, max_freq=3, real=real)
    v = random_field(grid2d, SPACETIME, 2, max_freq=3, real=real)
    plain = apply_form(spec, u, v)
    projected = (u.copy_with(u.coeffs, zero_mode_projected=True) if side == "u" else u,
                 v.copy_with(v.coeffs, zero_mode_projected=True) if side == "v" else v)
    out = apply_form(spec, *projected)
    assert out.zero_mode_projected
    assert out.real_flag == plain.real_flag
    assert np.array_equal(out.coeffs, plain.coeffs)


# ---------------------------------------------------------------------------
# symbol-inequality suite


def test_registry_has_the_documented_entries():
    expected = {"delta", "hyperbolic-triangle", "q0", "qij", "elliptic-leibniz",
                "wedge", "lambda-minus-trivial", "lambda-minus-interpolation",
                "lambda-minus-negative-power", "cfwm-r"}
    assert set(INEQUALITY_REGISTRY) == expected


@pytest.mark.parametrize("name", sorted(INEQUALITY_REGISTRY))
def test_symbol_inequalities_fuzz_clean(name):
    rep = check_symbol_inequality(name, nullform.frequency_pairs(100000, 7))
    assert rep.violations == 0
    assert rep.worst_margin <= 1e-9


def test_unknown_inequality_name():
    with pytest.raises(KeyError):
        check_symbol_inequality("not-a-lemma", nullform.frequency_pairs(10, 0))


def test_frequency_pairs_is_the_fuzzers_draw():
    got = nullform.frequency_pairs(3001, 11)
    rng = np.random.default_rng(11)
    assert len(got) == 2
    for n, arrays in zip((2, 3), got):
        want = nullform._draw_frequency_pairs(rng, 1500, n)
        assert arrays[2].shape == (1500, n)
        assert all(_same_bits(x, y) for x, y in zip(arrays, want))


@pytest.mark.parametrize("name", sorted(INEQUALITY_REGISTRY))
def test_every_inequality_reports_the_same_on_a_row_split_of_the_draw(monkeypatch, name):
    # the fuzzer checks the draw in row blocks, so every entry must be local to its rows
    pairs = nullform.frequency_pairs(2000, 17)
    monkeypatch.setattr(nullform, "_DRAW_ROWS", 10**9)
    whole = check_symbol_inequality(name, pairs)
    for rows in (7, 64, 999):
        monkeypatch.setattr(nullform, "_DRAW_ROWS", rows)
        assert check_symbol_inequality(name, pairs) == whole


def test_shared_draw_is_read_only(monkeypatch):
    pairs = nullform.frequency_pairs(100, 0)
    for x in (x for arrays in pairs for x in arrays):
        with pytest.raises(ValueError, match="read-only"):
            x[...] = 0.0

    def scaling_in_place(tau, lam, xi, eta):
        xi *= 2.0
        return tau, tau, tau

    monkeypatch.setitem(INEQUALITY_REGISTRY, "in-place", (scaling_in_place, 1.0))
    with pytest.raises(ValueError, match="read-only"):
        check_symbol_inequality("in-place", pairs)


@pytest.mark.parametrize("samples, shown", [(-5, "got -5"), (0, "got 0")])
def test_fuzzer_rejects_bad_arguments_before_drawing(monkeypatch, samples, shown):
    monkeypatch.setattr(nullform, "_draw_frequency_pairs",
                        lambda *a: pytest.fail("drew frequency pairs"))
    with pytest.raises(ValueError, match=re.escape(shown)):
        nullform.frequency_pairs(samples, 0)


def _composed_ineq_delta(tau, lam, xi, eta):
    """The delta inequality as delta_minus and delta_plus compose it: the bit-level reference."""
    na, nb = nullform._norm(xi), nullform._norm(eta)
    mn = np.minimum(na, nb)
    prod = np.maximum(na * nb, 1e-300)
    dot = nullform._dot(xi, eta)
    m_minus = np.where(dot > 0, nullform._wedge_sq(xi, eta) / np.maximum(prod + dot, 1e-300),
                       prod - dot)
    m_plus = np.where(dot < 0, nullform._wedge_sq(xi, eta) / np.maximum(prod - dot, 1e-300),
                      prod + dot)
    lhs = np.concatenate([mn * m_plus / prod, mn * m_minus / prod])
    rhs = np.concatenate([2.0 * delta_minus(xi, eta), 2.0 * delta_plus(xi, eta)])
    return lhs, rhs, np.concatenate([mn, mn])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_delta_inequality_keeps_the_bits_of_the_composed_kernels(monkeypatch, n):
    rng = np.random.default_rng(20 + n)
    xi = _spread(rng, (300, n))
    signed_zeros = np.where(rng.uniform(size=(300, n)) < 0.5, -0.0, 0.0)
    cases = [nullform._draw_frequency_pairs(np.random.default_rng(5), 6000, n)[2:]]
    cases += [(xi, xi), (xi, -xi), (xi, 3.0 * xi), (xi, -1e-7 * xi),
              (signed_zeros, signed_zeros), (signed_zeros, xi), (-xi, signed_zeros)]
    ineq = INEQUALITY_REGISTRY["delta"][0]
    with np.errstate(all="ignore"):  # overflow in the np.where branch not taken
        for a, b in cases:
            t = np.ones(len(a))
            for got, want in zip(ineq(t, t, a, b), _composed_ineq_delta(t, t, a, b)):
                assert _same_bits(got, want)
    pairs = [nullform._draw_frequency_pairs(np.random.default_rng(9), 20000, n)]
    fused = check_symbol_inequality("delta", pairs)
    monkeypatch.setitem(INEQUALITY_REGISTRY, "delta", (_composed_ineq_delta, 2.0))
    assert fused == check_symbol_inequality("delta", pairs)


def test_hyperbolic_triangle_degenerate_equality():
    # colinear cone pair: both sides vanish
    tau = np.array([1.0])
    lam = np.array([1.0])
    xi = np.array([[1.0, 0.0]])
    eta = np.array([[1.0, 0.0]])
    lhs = abs(abs(tau + lam) - np.linalg.norm(xi + eta))
    rhs = (abs(abs(tau) - np.linalg.norm(xi)) + abs(abs(lam) - np.linalg.norm(eta))
           + float(r_kernel(tau, xi, lam, eta)[0]))
    assert lhs <= 1e-14 and rhs <= 1e-14


def test_q0_estimate_alpha_one_is_cauchy_schwarz():
    rng = np.random.default_rng(3)
    tau, lam = rng.standard_normal(1000), rng.standard_normal(1000)
    xi, eta = rng.standard_normal((1000, 3)), rng.standard_normal((1000, 3))
    inner = np.abs(-tau * lam + np.sum(xi * eta, axis=-1))
    bound = (np.sqrt(tau**2 + np.sum(xi**2, -1))
             * np.sqrt(lam**2 + np.sum(eta**2, -1)))
    assert np.all(inner <= bound * (1 + 1e-12))
