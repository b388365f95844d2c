import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nflab.lattice import SPACETIME, SPATIAL, SpectralField, make_grid, random_field, symbol_image
from nflab.multiplier import (HOMOGENEOUS, MultiplierSpec, SpaceIndex, apply, cal_norm,
                              check_thmB, check_thmC, is_wave_admissible, spatial_hs_norm,
                              strichartz_s, symbol_values, weight, ws_norm)

TWO_PI = 2.0 * math.pi

FIXTURE = json.loads((Path(__file__).parent / "data" / "bilinear_checker_fixture.json").read_text())


def _single(grid, kt, ks):
    c = np.zeros(grid.spacetime_shape, dtype=complex)
    c[(kt % grid.N_t,) + tuple(k % grid.N_x for k in ks)] = 1.0
    return SpectralField(grid=grid, kind=SPACETIME, coeffs=c)


def test_identity_spec_noop(grid2d):
    u = random_field(grid2d, SPACETIME, 0, real=False)
    out = apply(MultiplierSpec("identity"), u)
    assert np.array_equal(out.coeffs, u.coeffs)


def test_lambda_minus_is_one_on_the_cone(grid2d):
    u = _single(grid2d, 3, (3, 0))  # tau = |xi| = 3
    out = apply(MultiplierSpec("lambda_minus", 1.0), u)
    assert abs(out.coeffs[3, 3, 0] - 1.0) <= 1e-14


def test_lambda_squared_scales_by_one_plus_xi_sq(grid2d):
    u = _single(grid2d, 5, (3, 4))
    out = apply(MultiplierSpec("lambda", 2.0), u)
    assert abs(out.coeffs[5, 3, 4] - 26.0) <= 1e-12


def test_riesz_axis_and_zero_mode_flag(grid2d):
    u = _single(grid2d, 1, (2, 0))
    out = apply(MultiplierSpec("riesz", axis=1), u)
    assert abs(out.coeffs[1, 2, 0] - 1j) <= 1e-14
    assert out.zero_mode_projected
    dc = _single(grid2d, 0, (0, 0))
    out_dc = apply(MultiplierSpec("riesz", axis=1), dc)
    assert out_dc.coeffs[0, 0, 0] == 0.0


@pytest.mark.parametrize("axis", [-1, 3, 7])
def test_riesz_axis_outside_zero_to_n_is_rejected(grid2d, axis):
    u = random_field(grid2d, SPACETIME, 0, real=False)
    with pytest.raises(ValueError, match="Riesz axis"):
        apply(MultiplierSpec("riesz", axis=axis), u)
    with pytest.raises(ValueError, match="Riesz axis"):
        symbol_values(MultiplierSpec("riesz", axis=axis), grid2d, SPATIAL)


def test_riesz_axis_zero_is_the_temporal_component(grid2d):
    u = _single(grid2d, 2, (3, 4))  # tau = 2, |xi| = 5
    assert abs(apply(MultiplierSpec("riesz", axis=0), u).coeffs[2, 3, 4] - 0.4j) <= 1e-15
    with pytest.raises(ValueError, match="temporal Riesz component needs a spacetime field"):
        symbol_values(MultiplierSpec("riesz", axis=0), grid2d, SPATIAL)


def test_riesz_last_axis_is_the_last_spatial_component(grid2d):
    u = _single(grid2d, 1, (0, 3))
    assert abs(apply(MultiplierSpec("riesz", axis=2), u).coeffs[1, 0, 3] - 1j) <= 1e-14
    assert apply(MultiplierSpec("riesz", axis=1), u).coeffs[1, 0, 3] == 0.0


def test_negative_homogeneous_power_projects_zero_mode(grid2d):
    u = random_field(grid2d, SPACETIME, 1, real=False)
    out = apply(MultiplierSpec("d", -1.0), u)
    assert out.zero_mode_projected
    assert np.max(np.abs(out.coeffs[:, 0, 0])) == 0.0


def test_composition_within_families(grid2d):
    u = random_field(grid2d, SPACETIME, 2, real=False)
    for fam in ("lambda", "lambda_plus", "lambda_minus", "d_plus"):
        a = apply(MultiplierSpec(fam, 0.7), apply(MultiplierSpec(fam, 0.5), u))
        b = apply(MultiplierSpec(fam, 1.2), u)
        top = np.max(np.abs(b.coeffs))
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12 * top


def test_multiplier_inverts_ws_weight(grid2d):
    u = random_field(grid2d, SPACETIME, 3, real=False)
    idx = SpaceIndex(0.8, 0.6)
    moved = apply(MultiplierSpec("lambda_minus", -idx.theta),
                  apply(MultiplierSpec("lambda", -idx.s), u))
    assert abs(ws_norm(moved, idx) - u.l2()) <= 1e-10 * u.l2()


def test_symbols_even_in_xi_and_tau(grid2d):
    for fam in ("lambda", "lambda_plus", "lambda_minus", "d", "d_plus", "d_minus"):
        sym, _ = symbol_values(MultiplierSpec(fam, 0.9), grid2d, SPACETIME)
        flipped = sym
        for ax in range(sym.ndim):
            flipped = np.roll(np.flip(flipped, axis=ax), 1, axis=ax)
        assert np.max(np.abs(sym - flipped)) <= 1e-12 * np.max(np.abs(sym))


def test_ws_norm_unit_modes(grid2d):
    u0 = _single(grid2d, 0, (0, 0))
    for idx in (SpaceIndex(0.0, 0.0), SpaceIndex(1.3, 0.4), SpaceIndex(-0.7, 2.0)):
        assert abs(ws_norm(u0, idx) - 1.0) <= 1e-14
    cone = _single(grid2d, 4, (4, 0))
    # s = 0 leaves only the hyperbolic factor, which is 1 on the cone
    for theta in (0.0, 0.6, 1.7):
        assert abs(ws_norm(cone, SpaceIndex(0.0, theta)) - 1.0) <= 1e-13


def test_ws_norm_zero_index_is_l2(grid2d):
    u = random_field(grid2d, SPACETIME, 4, real=False)
    assert abs(ws_norm(u, SpaceIndex(0.0, 0.0)) - u.l2()) <= 1e-12 * u.l2()


def test_cal_norm_unit_mode_and_exponent_bookkeeping(grid2d):
    u0 = _single(grid2d, 0, (0, 0))
    assert abs(cal_norm(u0, SpaceIndex(1.0, 0.7)) - 1.0) <= 1e-14
    u = random_field(grid2d, SPACETIME, 5, real=False)
    single = cal_norm(u, SpaceIndex(1.0, 0.0))
    plus = apply(MultiplierSpec("lambda_plus", 1.0), u)
    assert abs(single - plus.l2()) <= 1e-12 * plus.l2()


def test_cal_norm_two_forms_equivalent(grid2d):
    idx = SpaceIndex(1.3, 0.6)
    ratios = []
    for seed in range(100):
        u = random_field(grid2d, SPACETIME, 100 + seed, max_freq=6, real=False)
        two = (ws_norm(u, idx)
               + ws_norm(symbol_image(u, ("d", 0)), SpaceIndex(idx.s - 1, idx.theta)))
        ratios.append(two / cal_norm(u, idx))
    assert min(ratios) >= 0.25 and max(ratios) <= 4.0


def test_energy_embedding_ratio_stable_under_refinement():
    # sup_t H^s slice norm over ws_norm at theta = 0.6, ensemble of 100
    def sup_ratio(grid, n_fields):
        idx_s = 0.9
        best = 0.0
        from nflab.lattice import time_spatial_rep
        for seed in range(n_fields):
            u = random_field(grid, SPACETIME, seed, max_freq=4, real=False)
            mr = time_spatial_rep(u)
            lam2 = (1.0 + grid.abs_xi(SPATIAL) ** 2) ** idx_s
            slices = np.sqrt(np.sum(lam2 * np.abs(mr) ** 2, axis=(1, 2))
                             * grid.spatial_volume)
            best = max(best, float(slices.max()) / ws_norm(u, SpaceIndex(idx_s, 0.6)))
        return best

    g1 = make_grid(2, 16, 16, TWO_PI, TWO_PI)
    g2 = g1.refined()
    r1 = sup_ratio(g1, 100)
    r2 = sup_ratio(g2, 100)
    assert abs(r2 - r1) / r1 <= 0.25


# ---------------------------------------------------------------------------
# admissibility and theorem checkers


def test_strichartz_original_inequality_point():
    assert is_wave_admissible(4, 4, 3)
    assert abs(strichartz_s(4, 4, 3) - 0.5) <= 1e-15


def test_energy_pair_is_admissible_any_dimension():
    for n in (1, 2, 3, 5):
        assert is_wave_admissible(math.inf, 2, n)
        assert abs(strichartz_s(math.inf, 2, n)) <= 1e-15


def test_r_infinity_rejected():
    assert not is_wave_admissible(2, math.inf, 2)


def test_q_below_two_rejected():
    for n in (2, 3, 5):
        assert not is_wave_admissible(1.5, 4, n)


@given(st.floats(2.0, 64.0), st.floats(2.0, 64.0), st.integers(2, 4))
@settings(max_examples=200, deadline=None)
def test_strichartz_s_formula(q, r, n):
    assert abs(strichartz_s(q, r, n) - (n / 2 - n / r - 1 / q)) <= 1e-12


@pytest.mark.parametrize("case", FIXTURE["thmB"])
def test_thmB_fixture_table(case):
    r = math.inf if case["r"] == "inf" else case["r"]
    got = check_thmB(case["q"], r, case["n"], case["sigma"], case["s1"], case["s2"])
    assert got == case["expect"], case["note"]


@pytest.mark.parametrize("case", FIXTURE["thmC"])
def test_thmC_fixture_table(case):
    got = check_thmC(case["n"], case["gamma"], case["gamma_plus"],
                     case["gamma_minus"], case["s1"], case["s2"])
    assert got == case["expect"], case["note"]


def test_thmB_sigma_boundary_strict():
    assert not check_thmB(4, 4, 3, 0.0, 0.5, 0.5)


def test_checkers_exact_on_rationals():
    # rational inputs decide equalities exactly, no epsilon
    assert check_thmC(3, Fraction(0), Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1, 2))
    assert not check_thmC(3, Fraction(-1, 2), Fraction(0), Fraction(0),
                          Fraction(3, 10), Fraction(1, 5))
    assert check_thmB(Fraction(4), Fraction(4), 3, Fraction(1, 4),
                      Fraction(3, 8), Fraction(3, 8))


def _split_arithmetic_thmB(q, r, n, sigma, s1, s2):
    """Reference: each formula written once for Fractions and once for floats."""
    if not is_wave_admissible(q, r, n):
        return False
    exact = all(isinstance(x, Fraction | int) for x in (q, r, sigma, s1, s2))
    if exact:
        q, r, sigma, s1, s2 = map(Fraction, (q, r, sigma, s1, s2))
        upper_gap = n - 2 * n / r - 4 / q
        cap = Fraction(n, 2) - Fraction(n, 1) / r - 1 / q
        total = n - 2 * n / r - 2 / q
        eq = (lambda a, b: a == b)
    else:
        q, r, sigma, s1, s2 = map(float, (q, r, sigma, s1, s2))
        inv_q = 0.0 if math.isinf(q) else 1.0 / q
        inv_r = 1.0 / r
        upper_gap = n - 2 * n * inv_r - 4 * inv_q
        cap = n / 2.0 - n * inv_r - inv_q
        total = n - 2 * n * inv_r - 2 * inv_q
        eq = (lambda a, b: abs(float(a) - float(b)) <= 1e-12)
    if not (0 < sigma < upper_gap):
        return False
    if not (s1 < cap and s2 < cap):
        return False
    return eq(s1 + s2 + sigma, total)


def _split_arithmetic_thmC(n, gamma, gamma_plus, gamma_minus, s1, s2):
    """Reference: each formula written once for Fractions and once for floats."""
    exact = all(isinstance(x, Fraction | int) for x in (gamma, gamma_plus, gamma_minus, s1, s2))
    if exact:
        gamma, gamma_plus, gamma_minus, s1, s2 = map(
            Fraction, (gamma, gamma_plus, gamma_minus, s1, s2))
        nm1_2, nm3_4, np1_4, half = (Fraction(n - 1, 2), Fraction(n - 3, 4),
                                     Fraction(n + 1, 4), Fraction(1, 2))
        eq, slack = (lambda a, b: a == b), 0
    else:
        gamma, gamma_plus, gamma_minus, s1, s2 = map(
            float, (gamma, gamma_plus, gamma_minus, s1, s2))
        nm1_2, nm3_4, np1_4, half = (n - 1) / 2.0, (n - 3) / 4.0, (n + 1) / 4.0, 0.5
        eq, slack = (lambda a, b: abs(float(a) - float(b)) <= 1e-12), 1e-12
    if not eq(gamma + gamma_plus + gamma_minus, s1 + s2 - nm1_2):
        return False
    if not gamma_minus >= -nm3_4 - slack:
        return False
    if not gamma > -nm1_2:
        return False
    if not (s1 <= gamma_minus + nm1_2 + slack and s2 <= gamma_minus + nm1_2 + slack):
        return False
    if not s1 + s2 >= half - slack:
        return False
    for si in (s1, s2):
        if eq(si, np1_4) and eq(gamma_minus, -nm3_4):
            return False
    if eq(s1 + s2, half) and eq(gamma_minus, -nm3_4):
        return False
    return True


# exact and float values on and next to the checkers' boundaries; each case is
# completed so that the equality condition holds exactly, or misses it by 1e-13
_VALUES = (0, Fraction(1, 4), Fraction(1, 2), 1, -0.25, 0.5, 1.0 + 1e-13, math.inf)
_SHIFTS = (0, Fraction(1, 10**13), 1e-13, -1e-13)


def test_thmB_matches_split_arithmetic_reference():
    seen = set()
    for q, r, n in itertools.product((2, 4, Fraction(7, 2), 4.0, math.inf),
                                     (2, 4, Fraction(10, 3), 6.0), (1, 2, 3)):
        total = n - Fraction(2 * n) / Fraction(r) - (0 if q == math.inf else Fraction(2) / Fraction(q))
        for sigma, s1, shift in itertools.product((0, Fraction(1, 8), 0.125, 1),
                                                  _VALUES + (None,), _SHIFTS):
            s1 = (total - sigma) / 2 if s1 is None else s1  # s1 = s2 up to the shift
            s2 = total - s1 - sigma + shift
            if isinstance(q, float) or isinstance(r, float):
                s2 = float(s2)
            got = check_thmB(q, r, n, sigma, s1, s2)
            assert got == _split_arithmetic_thmB(q, r, n, sigma, s1, s2), (q, r, n, sigma, s1, s2)
            seen.add(got)
    assert seen == {True, False}


def test_thmC_matches_split_arithmetic_reference():
    seen = set()
    for n in (1, 2, 3):
        for gamma, gamma_minus, s1, s2, shift in itertools.product(
                (0, Fraction(-1, 4), 0.5), _VALUES[:4] + (-Fraction(n - 3, 4),), _VALUES,
                _VALUES, _SHIFTS):
            gamma_plus = s1 + s2 - Fraction(n - 1, 2) - gamma - gamma_minus + shift
            got = check_thmC(n, gamma, gamma_plus, gamma_minus, s1, s2)
            assert got == _split_arithmetic_thmC(n, gamma, gamma_plus, gamma_minus, s1, s2), \
                (n, gamma, gamma_plus, gamma_minus, s1, s2)
            seen.add(got)
    assert seen == {True, False}


def test_spatial_hs_norm_matches_ws_on_slices(grid2d):
    f = random_field(grid2d, SPATIAL, 9, real=False)
    direct = spatial_hs_norm(f.coeffs, grid2d, 1.1)
    lam = (1.0 + grid2d.abs_xi(SPATIAL) ** 2) ** 0.55
    assert abs(direct - float(np.sqrt(np.sum((lam * np.abs(f.coeffs)) ** 2)))) <= 1e-12


# ---------------------------------------------------------------------------
# the weight evaluator off and on the lattice


def _closed_form(family, a, tau, x):
    if family == "lambda":
        return (1.0 + x * x) ** (a / 2.0)
    if family == "lambda_plus":
        return (1.0 + tau * tau + x * x) ** (a / 2.0)
    if family == "lambda_minus":
        return (1.0 + (x * x - tau * tau) ** 2 / (1.0 + tau * tau + x * x)) ** (a / 2.0)
    base = {"d": x, "d_plus": abs(tau) + x, "d_minus": abs(abs(tau) - x)}[family]
    if base == 0.0 and a < 0:
        return 0.0
    return base**a


_OFF_LATTICE = [(0.0, 0.0), (0.0, 2.5), (3.0, 0.0), (-1.7, 0.0), (2.2, 2.2), (-2.2, 2.2),
                (-0.7, 3.1), (4.3, 1.3), (0.25, 0.75)]
_WEIGHTS = ("lambda", "lambda_plus", "lambda_minus") + HOMOGENEOUS


@pytest.mark.parametrize("family", _WEIGHTS)
def test_weight_matches_closed_form_off_lattice(family):
    taus = np.array([t for t, _ in _OFF_LATTICE])[:, None]
    xs = np.array([x for _, x in _OFF_LATTICE])[None, :]
    for a in (-1.5, -1.0, 0.0, 0.5, 1.0, 2.3):
        for tau, x in _OFF_LATTICE:
            want = _closed_form(family, a, tau, x)
            got = float(weight(family, a, tau, x))
            assert got == pytest.approx(want, rel=1e-14, abs=0.0), (a, tau, x)
        # lambda and d do not read tau, so their values broadcast along it
        vals = np.broadcast_to(weight(family, a, taus, xs), (len(_OFF_LATTICE),) * 2)
        want = np.array([[_closed_form(family, a, t, x) for x in xs[0]] for t in taus[:, 0]])
        assert np.allclose(vals, want, rtol=1e-14, atol=0.0), a


@pytest.mark.parametrize("family", HOMOGENEOUS)
def test_negative_homogeneous_weight_vanishes_on_its_singular_set(family):
    tau = np.array([0.0, 0.0, 2.0, -2.0, 3.0])
    x = np.array([0.0, 1.5, 2.0, 2.0, 0.0])
    singular = {"d": x == 0.0, "d_plus": (tau == 0.0) & (x == 0.0),
                "d_minus": np.abs(tau) == x}[family]
    vals = weight(family, -0.8, tau, x)
    assert np.all(vals[singular] == 0.0)
    assert np.all(np.isfinite(vals)) and np.all(vals[~singular] > 0.0)


def test_weight_rejects_unknown_family():
    with pytest.raises(ValueError, match="not a weight family"):
        weight("riesz", 1.0, 0.0, 1.0)


@pytest.mark.parametrize("family", _WEIGHTS)
def test_weight_on_the_lattice_equals_symbol_values(family):
    kinds = (SPACETIME, SPATIAL) if family in ("lambda", "d") else (SPACETIME,)
    grids = (make_grid(2, 16, 16, TWO_PI, TWO_PI), make_grid(3, 8, 4, 1.0, 3.0))
    for a, grid, kind in itertools.product((-1.2, 0.0, 0.9), grids, kinds):
        tau = grid.tau_broadcast() if kind == SPACETIME else None
        want = np.broadcast_to(weight(family, a, tau, grid.abs_xi(kind)), grid.shape_for(kind))
        sym, projected = symbol_values(MultiplierSpec(family, a), grid, kind)
        assert sym.shape == grid.shape_for(kind)
        assert np.array_equal(sym, want)
        assert projected is (family in HOMOGENEOUS and a < 0)


def test_projection_flag_pins_for_homogeneous_families(grid2d):
    for family in ("d", "d_plus", "d_minus"):
        for a, flag in ((-2.0, True), (-0.3, True), (0.0, False), (0.4, False), (1.0, False)):
            _, projected = symbol_values(MultiplierSpec(family, a), grid2d, SPACETIME)
            assert projected is flag, (family, a)
    cone, _ = symbol_values(MultiplierSpec("d_minus", -1.0), grid2d, SPACETIME)
    assert cone[3, 3, 0] == 0.0 and cone[0, 0, 0] == 0.0


def test_ws_norm_weight_is_cached_read_only_with_the_bits_of_the_formula():
    from nflab.multiplier import _ws_weight_sq
    g = make_grid(2, 16, 16, 2 * math.pi, 2 * math.pi)
    u = random_field(g, SPACETIME, 7, real=False)
    idx = SpaceIndex(1.2, 0.6)
    tau, ax = g.tau_broadcast(), g.abs_xi(SPACETIME)
    w = weight("lambda", idx.s, tau, ax) * weight("lambda_minus", idx.theta, tau, ax)
    assert ws_norm(u, idx) == float(np.sqrt(np.sum(w**2 * np.abs(u.coeffs) ** 2)))
    w2 = _ws_weight_sq(g, idx)
    assert w2 is _ws_weight_sq(g, SpaceIndex(1.2, 0.6)) and not w2.flags.writeable
    assert np.array_equal(w2, w**2)
