import math
import re

import numpy as np
import pytest

from nflab.iterate import (IterationTrace, SystemSpec, apply_nonlinearity,
                           iterate_samples, picard_run, q0_closed_form)
from nflab.lattice import (SPACETIME, SPATIAL, SpectralField, inverse_transform,
                           make_grid, random_field, transform)
from nflab.multiplier import MultiplierSpec, SpaceIndex, apply
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
    with pytest.raises(ValueError, match=re.escape("gamma_const must have shape (2, 2, 2), "
                                                   "got (3, 3, 3)")):
        SystemSpec("WM", N=2, gamma_const=np.ones((3, 3, 3)))
    with pytest.raises(ValueError, match=re.escape("a_table must have shape (1, 1, 1), got (1, 1)")):
        SystemSpec("WMM", a_table=np.ones((1, 1)))


def test_scalarq0_has_one_component():
    assert SystemSpec("scalarQ0").N == 1
    with pytest.raises(ValueError, match="^scalarQ0 is one scalar equation: it has 1 component, "
                                         "got 3$"):
        SystemSpec("scalarQ0", N=3)


@pytest.mark.parametrize("n, spec, name, want, got", [
    # a table made for n = 3 run at n = 2 would use its first pair alone
    (2, SystemSpec("YMmodel", N=2, q_coeff=np.ones((2, 3, 2, 2))), "q_coeff", (2, 1, 2, 2),
     (2, 3, 2, 2)),
    # one row for two components would broadcast to both
    (2, SystemSpec("YMmodel", N=2, q_coeff_second=np.ones((2, 1, 1, 1))), "q_coeff_second",
     (2, 1, 2, 2), (2, 1, 1, 1)),
    (2, SystemSpec("YMmodel", N=1, q_coeff=np.ones((1, 1, 3, 3))), "q_coeff", (1, 1, 1, 1),
     (1, 1, 3, 3)),
    (3, SystemSpec("MKGmodel", N1=1, N2=2, q_coeff=np.ones((1, 1, 1, 1))), "q_coeff",
     (1, 3, 2, 2), (1, 1, 1, 1)),
    (3, SystemSpec("MKGmodel", N1=1, N2=2, q_coeff_second=np.ones((1, 3, 2, 2))),
     "q_coeff_second", (2, 3, 1, 2), (1, 3, 2, 2))])
def test_q_tables_are_checked_before_any_pad(monkeypatch, n, spec, name, want, got):
    import nflab.lattice as lat
    monkeypatch.setattr(lat, "fine_images", lambda *a: pytest.fail("a field was padded"))
    comps = [random_field(make_grid(n, 8, 8, TWO_PI, TWO_PI), SPACETIME, c, max_freq=2)
             for c in range(spec.N)]
    with pytest.raises(ValueError, match=re.escape(f"{name} must have shape {want}, got {got}")):
        apply_nonlinearity(spec, comps)


@pytest.mark.parametrize("spec", [SystemSpec("YMmodel", N=2),
                                  SystemSpec("MKGmodel", N1=1, N2=2)])
def test_q_systems_need_two_spatial_axes(spec):
    comps = [random_field(make_grid(1, 8, 8, TWO_PI, TWO_PI), SPACETIME, c, max_freq=2)
             for c in range(spec.N)]
    with pytest.raises(ValueError, match=f"^{spec.kind} needs n >= 2: Q_ij pairs two spatial axes"):
        apply_nonlinearity(spec, comps)


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


def test_wm_outputs_follow_the_bilinear_flag_rule():
    # D^-1 w projects out xi = 0: every WM output is zero-mode-projected, real when w is
    g = make_grid(3, 16, 8, TWO_PI, TWO_PI)
    for real in (True, False):
        comps = [apply(MultiplierSpec("d", -1.0),
                       random_field(g, SPACETIME, 10 + c, max_freq=3, real=real)) for c in range(2)]
        assert all(c.zero_mode_projected and c.real_flag == real for c in comps)
        out = apply_nonlinearity(SystemSpec("WM", N=2), comps)
        assert [(f.real_flag, f.zero_mode_projected) for f in out] == [(real, True)] * 2


def test_component_count_mismatch(grid2d):
    u = random_field(grid2d, SPACETIME, 2, max_freq=2)
    with pytest.raises(ValueError):
        apply_nonlinearity(SystemSpec("WM", N=2), [u])


def test_picard_run_guards(grid2d):
    data = [CauchyData(_zero_spatial(grid2d), _zero_spatial(grid2d))]
    idx = SpaceIndex(1.0, 0.6)
    with pytest.raises(ValueError, match="^need at least one iteration$"):
        picard_run(SystemSpec("scalarQ0"), data, 0, idx, math.pi)
    with pytest.raises(ValueError, match="^expected 2 Cauchy pairs, got 1$"):
        picard_run(SystemSpec("WM", N=2), data, 1, idx, math.pi)
    for width in (0.0, -1.0, grid2d.T_per, math.nan):
        with pytest.raises(ValueError, match="^grid period does not accommodate the cutoff width$"):
            picard_run(SystemSpec("scalarQ0"), data, 1, idx, width)


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


def test_a_single_iteration_ends_stalled():
    # one difference and no ratio: neither convergence rule can hold
    g = make_grid(2, 16, 16, 1.0, TWO_PI)
    tr = picard_run(SystemSpec("scalarQ0"), [_cos_data(g, 0.01)], 1, SpaceIndex(1.0, 0.6), 0.5)
    assert tr.flag == "stalled" and tr.diverged_at is None
    assert tr.ratios == [] and len(tr.d) == 1 and tr.d[0] > 1e-12 * tr.sup_hs[0]
    assert tr.to_csv().splitlines()[-1].endswith(",stalled")


def test_trace_csv_schema():
    g = make_grid(2, 16, 16, 1.0, TWO_PI)
    tr = picard_run(SystemSpec("scalarQ0"), [_cos_data(g, 0.01)], 3,
                    SpaceIndex(1.0, 0.6), 0.5)
    lines = tr.to_csv().strip().splitlines()
    assert lines[0] == "j,sup_Hs,d_j,ratio_j,flag"
    assert len(lines) == len(tr.sup_hs) + 1
    assert lines[-1].endswith(tr.flag)


def test_trace_csv_blanks_ratios_of_rounding_noise():
    # d_2 = 1e-14 is below 1e-12 * sup_Hs[0], so ratio_3 = d_3 / d_2 is a quotient of noise
    tr = IterationTrace(sup_hs=[2.0] * 4, ws=[1.0] * 4, d=[1e-3, 1e-14, 1.1e-14],
                        ratios=[1e-11, 1.1], flag="converged")
    rows = [line.split(",") for line in tr.to_csv().strip().splitlines()[1:]]
    assert [r[3] for r in rows] == ["", "", repr(1e-11), ""]
    assert rows[3][2] == repr(1.1e-14)


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


def test_q0_closed_form_needs_real_data(grid2d):
    f, g = (random_field(grid2d, SPATIAL, seed, max_freq=2, real=False) for seed in (1, 2))
    d = CauchyData(f.copy_with(0.01 * f.coeffs), g.copy_with(0.01 * g.coeffs))
    with pytest.raises(ValueError, match="^closed form needs real data$"):
        q0_closed_form(d, 0.0)


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


@pytest.mark.parametrize("kind, pads, trees", [("YMmodel", 12, 4), ("WMM", 8, 8)])
def test_nonlinearity_pads_each_input_once(monkeypatch, kind, pads, trees):
    # n = 3, N = 2: YMmodel needs the three gradients of u^J and of D^-1 u^J, one pad tree per
    # field; WMM needs u^J and its three R_0 R_j images, one tree per image
    import nflab.lattice as lat
    comps = [random_field(_grid3(), SPACETIME, s, max_freq=2) for s in (1, 2)]
    images, roots = [], []
    original = lat.fine_images

    def counting(f, ops, factor=1.5):
        images.extend((f.coeffs.tobytes(), op) for op in ops)
        roots.append((f.coeffs.tobytes(), ops[0] if ops[0] and ops[0][0] == "rr" else None))
        return original(f, ops, factor)

    monkeypatch.setattr(lat, "fine_images", counting)
    apply_nonlinearity(SystemSpec(kind, N=2), comps)
    assert len(images) == len(set(images)) == pads
    assert len(roots) == len(set(roots)) == trees


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


def _parent_nonlinearity(sys_spec, comps):
    """apply_nonlinearity as it was with one branch per system kind, kept as the oracle of the
    table walk: the same combine_forms terms in the same order, so the same bits."""
    from nflab.nullform import BilinearFormSpec, apply_form, combine_forms
    grid, N = comps[0].grid, sys_spec.N
    pairs = [(i, j) for i in range(1, grid.n + 1) for j in range(i + 1, grid.n + 1)]

    def dinv(u):
        return apply(MultiplierSpec("d", -1.0), u)

    def q_combinations(*combos):
        return combine_forms(grid, *[([
            (BilinearFormSpec("qij", i=i, j=j), left[J], right[K], coeff[:, p, J, K])
            for p, (i, j) in enumerate(pairs)
            for J in range(coeff.shape[2]) for K in range(coeff.shape[3])
            if np.any(coeff[:, p, J, K])], coeff.shape[0]) for coeff, left, right in combos])

    def or_ones(coeff, *shape):
        return np.ones(shape) if coeff is None else coeff

    if sys_spec.kind == "scalarQ0":
        return [apply_form(BilinearFormSpec("q0"), comps[0], comps[0])]
    if sys_spec.kind in ("WM", "WMM"):
        wm = sys_spec.kind == "WM"
        form = BilinearFormSpec("q0" if wm else "qtilde")
        table = -sys_spec.gamma_const if wm else sys_spec.a_table
        terms = [(form, comps[min(J, K) if wm else J], comps[max(J, K) if wm else K],
                  table[:, J, K]) for J in range(N) for K in range(N) if np.any(table[:, J, K])]
        return combine_forms(grid, (terms, N))[0]
    if sys_spec.kind == "YMmodel":
        coeff = or_ones(sys_spec.q_coeff, N, len(pairs), N, N)
        coeff2 = coeff if sys_spec.q_coeff_second is None else sys_spec.q_coeff_second
        first, second = q_combinations((coeff, comps, comps),
                                       (coeff2, [dinv(c) for c in comps], comps))
        return [a.copy_with(a.coeffs + b.coeffs, real_flag=a.real_flag and b.real_flag,
                            zero_mode_projected=a.zero_mode_projected or b.zero_mode_projected)
                for a, b in zip(map(dinv, first), second)]
    N1, N2 = sys_spec.N1, sys_spec.N2
    top, bottom = q_combinations(
        (or_ones(sys_spec.q_coeff, N1, len(pairs), N2, N2), comps[N1:], comps[N1:]),
        (or_ones(sys_spec.q_coeff_second, N2, len(pairs), N1, N2),
         [dinv(c) for c in comps[:N1]], comps[N1:]))
    return [dinv(f) for f in top] + bottom


def _oracle_systems(n):
    # every kind; default, random and sparse tables; N up to 3; MKG 1+1, 1+2 and 2+2
    rng = np.random.default_rng(23)
    P = n * (n - 1) // 2

    def table(*shape):
        return rng.uniform(-1, 1, shape)

    sparse_gamma = np.where(table(2, 2, 2) > 0, table(2, 2, 2), 0.0)
    sparse_q = table(2, P, 2, 2)
    sparse_q[:, 0] = 0.0
    return [SystemSpec("scalarQ0"), SystemSpec("WM", N=1),
            SystemSpec("WM", N=3, gamma_const=table(3, 3, 3)),
            SystemSpec("WM", N=2, gamma_const=sparse_gamma),
            SystemSpec("WMM", N=1), SystemSpec("WMM", N=3, a_table=table(3, 3, 3)),
            SystemSpec("YMmodel", N=1),
            SystemSpec("YMmodel", N=2, q_coeff=table(2, P, 2, 2), q_coeff_second=table(2, P, 2, 2)),
            SystemSpec("YMmodel", N=3, q_coeff=table(3, P, 3, 3)),
            SystemSpec("YMmodel", N=2, q_coeff=sparse_q),
            SystemSpec("MKGmodel", N1=1, N2=1),
            SystemSpec("MKGmodel", N1=1, N2=2, q_coeff=table(1, P, 2, 2),
                       q_coeff_second=table(2, P, 1, 2)),
            SystemSpec("MKGmodel", N1=2, N2=2, q_coeff=table(2, P, 2, 2))]


def test_table_walk_is_bit_for_bit_the_per_kind_branches():
    # only signs of zeros may move: MKGmodel adds the empty half of each output row.  The u
    # rows of MKGmodel are flagged real when every input is, so with complex u and real v
    # they lose real_flag; the per-kind branch asked v alone.
    cases = [((3, 16, 8), (True,) * 4, False), ((3, 16, 8), (False,) * 4, True),
             ((2, 16, 16), (True,) * 4, True), ((2, 16, 16), (False,) * 4, False),
             ((2, 16, 16), (False, True, True, True), False)]
    outputs, zero_signs, flag_moves = 0, set(), []
    for (n, nt, nx), reals, projected in cases:
        g = make_grid(n, nt, nx, TWO_PI, TWO_PI)
        comps = [random_field(g, SPACETIME, 40 + c, max_freq=2, real=r)
                 for c, r in enumerate(reals)]
        if projected:
            comps = [apply(MultiplierSpec("d", -1.0), c) for c in comps]
        for spec in _oracle_systems(n):
            u = comps[:spec.N]
            for I, (w, f) in enumerate(zip(_parent_nonlinearity(spec, u),
                                           apply_nonlinearity(spec, u))):
                outputs += 1
                assert np.array_equal(f.coeffs, w.coeffs), (spec.kind, I)
                if f.coeffs.tobytes() != w.coeffs.tobytes():
                    zero_signs.add(spec.kind)
                if (f.real_flag, f.zero_mode_projected) != (w.real_flag, w.zero_mode_projected):
                    flag_moves.append((spec.kind, spec.N1, I, w.real_flag, f.real_flag))
    assert outputs == 140 and zero_signs <= {"MKGmodel"}
    assert flag_moves == [("MKGmodel", 1, 0, True, False), ("MKGmodel", 1, 0, True, False),
                          ("MKGmodel", 2, 0, True, False), ("MKGmodel", 2, 1, True, False)]
