import dataclasses
import decimal
import math
import re
import types
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from hypothesis import given, settings
from hypothesis import strategies as st

from nflab.lattice import SPACETIME, SpectralField, make_grid, random_field
from nflab.multiplier import SpaceIndex, weight, ws_norm
from nflab.nullform import BilinearFormSpec
from nflab import probe
from nflab.probe import (CounterexampleParams, EmbeddingSpec, KernelSpec, _smooth_length,
                         _sparse_ws_norm, counterexample_lattice_ratio, counterexample_norms,
                         discrete_schur_constant, embedding_ratio,
                         first_iterate_kernel, kernel_eval, membership_check, membership_draw,
                         probe_embedding, scaling_fit, schur_bound, schur_ladder,
                         trilinear_form)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# scaling fits


def test_scaling_fit_exact_power():
    pts = [(L, 3.0 * L**2) for L in (2, 4, 8, 16)]
    fit = scaling_fit(pts)
    assert abs(fit.slope - 2.0) <= 1e-12
    assert fit.residual <= 1e-12


def test_scaling_fit_constant_data():
    fit = scaling_fit([(L, 5.0) for L in (2, 4, 8)])
    assert abs(fit.slope) <= 1e-12


def test_scaling_fit_validation():
    with pytest.raises(ValueError):
        scaling_fit([(1, 1.0), (2, 2.0)])
    with pytest.raises(ValueError):
        scaling_fit([(1, 1.0), (2, -2.0), (3, 1.0)])


@given(st.floats(-2.0, 2.0), st.floats(0.1, 10.0))
@settings(max_examples=50, deadline=None)
def test_scaling_fit_recovers_any_power(p, c):
    pts = [(L, c * L**p) for L in (2.0, 3.0, 5.0, 7.0)]
    fit = scaling_fit(pts)
    assert abs(fit.slope - p) <= 1e-9


# ---------------------------------------------------------------------------
# Schur certificate


def test_schur_monotone_in_R_and_h():
    k = KernelSpec(a=1.2, b=0.2, c=0.3, variant="homogeneous", n=3)
    v = schur_bound(k, 8.0, 0.2)
    assert schur_bound(k, 16.0, 0.2) >= v
    assert schur_bound(k, 8.0, 0.1) >= v


def test_schur_angular_divergence_inside_vs_outside():
    inside = KernelSpec(a=0.0, b=0.0, c=0.2, variant="homogeneous", n=3)
    v1 = schur_bound(inside, 2.0, 0.2)
    v2 = schur_bound(inside, 2.0, 0.1)
    assert abs(v2 - v1) / v1 <= 0.05
    outside = KernelSpec(a=0.0, b=0.0, c=0.6, variant="homogeneous", n=3)
    w1 = schur_bound(outside, 2.0, 0.2)
    w2 = schur_bound(outside, 2.0, 0.1)
    assert w2 >= 2.0 * w1


def test_schur_radial_closed_form_c_zero():
    # c = 0, a + b > n/2: the bound is stable in R and equals the one-brick
    # radial integral sup at |xi| = 1: sigma(S^1) * int_0^1 r^(2-2b) dr
    k = KernelSpec(a=1.2, b=0.5, c=0.0, variant="homogeneous", n=3)
    v = schur_bound(k, 8.0, 0.2)
    exact = 4.0 * math.pi / (3.0 - 2.0 * 0.5)
    assert abs(v - exact) / exact <= 1e-6
    assert abs(schur_bound(k, 16.0, 0.2) - v) / v <= 1e-9


def test_schur_minus_sign_branch_runs():
    k = KernelSpec(a=0.5, b=0.5, c=0.2, sign="minus", variant="homogeneous", n=2)
    assert schur_bound(k, 4.0, 0.2) > 0.0


def _probe_kernel_ladder(R=16.0, h=0.1, halvings=2):
    """The rungs `nflab probe-kernel` evaluates: h-halvings at R, then 2R at h."""
    return [(R, h / 2**i) for i in range(halvings + 1)] + [(2 * R, h)]


@pytest.mark.parametrize("sign", ["plus", "minus"])
@pytest.mark.parametrize("variant", ["homogeneous", "inhomogeneous"])
def test_schur_ladder_equals_bound_per_rung(sign, variant):
    k = KernelSpec(a=1.2, b=0.2, c=0.3, sign=sign, variant=variant, n=3)
    ladder = _probe_kernel_ladder()
    assert schur_ladder(k, ladder) == [schur_bound(k, R, h) for R, h in ladder]


def test_schur_ladder_any_rung_order():
    k = KernelSpec(a=0.5, b=0.4, c=0.3, variant="homogeneous", n=2)
    ladder = [(8.0, 0.05), (32.0, 0.2), (4.0, 0.025), (16.0, 0.1), (1.0, 2.0)]
    assert schur_ladder(k, ladder) == [schur_bound(k, R, h) for R, h in ladder]
    assert schur_ladder(k, []) == []


@pytest.mark.parametrize("h", [3.0, 4.0, math.pi, 100.0,
                               math.nextafter(math.pi / math.sqrt(2.0), 3.0)])
def test_schur_ladder_rejects_a_rung_with_no_angular_brick(monkeypatch, h):
    # past h = pi/sqrt(2) the cut pi (h/pi)^4 exceeds pi/4 and no brick is left:
    # the rung would be an empty sum, a certificate of 0 for any kernel
    monkeypatch.setattr(probe, "_schur_integrand", lambda *a: pytest.fail("integrated"))
    k = KernelSpec(a=1.2, b=0.2, c=0.3, variant="homogeneous", n=3)
    for ladder in ([(16.0, h)], [(16.0, 0.1), (32.0, h)]):
        shown = re.escape(f"h={h!r}") + ".*pi/sqrt.2. .about 2.221441"
        with pytest.raises(ValueError, match=shown):
            schur_ladder(k, ladder)
    assert len(probe._theta_bricks(math.pi * (2.2214 / math.pi) ** 4)) == 2


def test_schur_ladder_evaluates_each_xi_once(monkeypatch):
    # a homogeneous ladder builds one integrand, at |xi| = 1, whatever R is;
    # the inhomogeneous default ladder samples |xi| = 1..16 at R = 16 and
    # 1..32 at 2R: one integrand per |xi| at the finest cut (52 bricks up to
    # 16, 36 at 32) of 352 x 8 nodes per brick, not one per (rung, |xi|)
    calls = []
    real = probe._schur_integrand

    def counting(k, xi_mag, bricks):
        out = real(k, xi_mag, bricks)
        calls.append((xi_mag, out.size))
        return out

    monkeypatch.setattr(probe, "_schur_integrand", counting)
    for R in (16.0, 2.0**20):
        calls.clear()
        schur_ladder(KernelSpec(a=1.2, b=0.2, c=0.3, variant="homogeneous", n=3),
                     _probe_kernel_ladder(R=R))
        assert calls == [(1.0, 52 * 2816)]
    calls.clear()
    schur_ladder(KernelSpec(a=1.2, b=0.2, c=0.3, variant="inhomogeneous", n=3),
                 _probe_kernel_ladder())
    assert [m for m, _ in calls] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    assert sum(size for _, size in calls) == 296 * 2816


def test_readme_probe_kernel_ladder_values():
    k = KernelSpec(a=1.2, b=0.2, c=0.3, variant="homogeneous", n=3)
    assert [repr(v) for v in schur_ladder(k, _probe_kernel_ladder())] == [
        "13.323824234014412", "13.324301453359794", "13.324353383802144", "13.323824234014412"]


def _schur_ladder_loop(k, rungs):
    """One integrand per dyadic |xi| <= R for every variant: the reference for
    the scaled homogeneous ladder."""
    tops, cuts = [], []
    for R, h in rungs:
        tops.append(R * (1.0 + 1e-12))
        cuts.append(probe._theta_bricks(math.pi * (min(h, math.pi) / math.pi) ** 4))
    best = [0.0] * len(cuts)
    mag = 1.0
    while True:
        active = [i for i, top in enumerate(tops) if mag <= top]
        if not active:
            return best
        integrand = probe._schur_integrand(k, mag, max((cuts[i] for i in active), key=len))
        for i in active:
            cols = integrand[:, :8 * len(cuts[i])]
            best[i] = max(best[i], float(np.sum(np.ascontiguousarray(cols))))
        mag *= 2.0


def _scaling_cases():
    """(a, b, c, n) with e = n - 2(a+b+c) < 0, = 0 and > 0 for n = 2..4, exact in binary."""
    cases = [(1.2, 0.2, 0.3, 3), (0.5, 0.5, 0.5, 3), (0.3, 0.3, 0.3, 3)]
    for n in (2, 3, 4):
        cases += [(n / 2 - 0.5, 0.25, c, n) for c in (0.5, 0.25, 0.0)]
    return cases


@pytest.mark.parametrize("sign", ["plus", "minus"])
@pytest.mark.parametrize("a, b, c, n", _scaling_cases())
def test_scaled_ladder_is_the_per_xi_loop(a, b, c, n, sign):
    ladder = [(8.0, 0.05), (5.0, 0.2), (1.0, 2.0), (32.0, 0.1), (12.0, 0.025), (16.0, 0.1)]
    for variant in ("homogeneous", "inhomogeneous"):
        k = KernelSpec(a=a, b=b, c=c, sign=sign, variant=variant, n=n)
        got, want = schur_ladder(k, ladder), _schur_ladder_loop(k, ladder)
        if variant == "inhomogeneous" or n - 2 * (a + b + c) < 0:
            assert got == want
        else:
            assert all(math.isclose(g, w, rel_tol=1e-12) for g, w in zip(got, want))
        assert schur_ladder(k, []) == []


def test_scaled_ladder_far_out(monkeypatch):
    calls = []
    real = probe._schur_integrand
    monkeypatch.setattr(probe, "_schur_integrand",
                        lambda *args: calls.append(args[1]) or real(*args))
    k = KernelSpec(a=0.3, b=0.3, c=0.3, variant="homogeneous", n=3)  # e = 1.2
    e = 3 - 2 * (0.3 + 0.3 + 0.3)
    s1, far = schur_ladder(k, [(1.0, 0.1), (2.0**40 * 1.5, 0.1)])
    assert calls == [1.0]
    assert abs(far - s1 * 2.0 ** (40 * e)) <= 1e-14 * far
    # a = b = c = 0, e = 3: S_1 is about the unit ball's volume 4 pi / 3, so
    # S_1 M^3 overflows at M = 2^341 (M^3 = 2^1023 is finite) and M^3 at 2^400
    flat = KernelSpec(a=0.0, b=0.0, c=0.0, variant="homogeneous", n=3)
    s1, edge, over, pow_over = schur_bound(flat, 1.0, 0.1), *schur_ladder(
        flat, [(2.0**340, 0.1), (2.0**341, 0.1), (2.0**400, 0.1)])
    assert 4.0 < s1 < 4.2 and edge == s1 * 2.0**1020
    assert over == math.inf and pow_over == math.inf


def _schur_integrand_vectors(k, xi_mag, bricks):
    """The integrand through kernel_eval on (rows, cols, n) xi and eta vectors:
    the reference for the scalar route of _schur_integrand."""
    n = k.n
    sigma = probe._sphere_area(n - 2) if n >= 2 else 1.0
    gx, gw = leggauss(8)
    t_lo = np.array([b[0] for b in bricks])
    t_hi = np.array([b[1] for b in bricks])
    r_hi = xi_mag * 2.0 ** (-np.arange(44, dtype=float))
    r_lo = r_hi / 2.0
    rg = 0.5 * (r_hi + r_lo)[:, None] + 0.5 * (r_hi - r_lo)[:, None] * gx[None, :]
    rw = 0.5 * (r_hi - r_lo)[:, None] * gw[None, :]
    tg = 0.5 * (t_hi + t_lo)[:, None] + 0.5 * (t_hi - t_lo)[:, None] * gx[None, :]
    tw = 0.5 * (t_hi - t_lo)[:, None] * gw[None, :]
    R = rg.reshape(-1)[:, None]
    WR = rw.reshape(-1)[:, None]
    T = tg.reshape(-1)[None, :]
    WT = tw.reshape(-1)[None, :]
    xi = np.zeros((R.shape[0], T.shape[1], n))
    xi[..., 0] = xi_mag
    eta = np.zeros_like(xi)
    eta[..., 0] = R * np.cos(T)
    if n >= 2:
        eta[..., 1] = R * np.sin(T)
    K = kernel_eval(k, xi, eta)
    jac = R ** (n - 1) * (np.sin(T) ** (n - 2) if n >= 2 else 1.0) * sigma
    return K**2 * jac * WR * WT


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("sign", ["plus", "minus"])
@pytest.mark.parametrize("variant", ["homogeneous", "inhomogeneous"])
def test_schur_integrand_scalar_route_keeps_the_vector_bits(n, sign, variant):
    bricks = probe._theta_bricks(math.pi * (0.05 / math.pi) ** 4)
    # (1 + 1)^-0.3: numpy's scalar and array powers can round it differently
    for a, b, c in ((1.2, 0.2, 0.3), (0.0, 0.5, 0.6), (0.3, 0.3, 0.3)):
        k = KernelSpec(a=a, b=b, c=c, sign=sign, variant=variant, n=n)
        for xi_mag in (1.0, 2.0, 3.0, 32.0):
            assert np.array_equal(probe._schur_integrand(k, xi_mag, bricks),
                                  _schur_integrand_vectors(k, xi_mag, bricks))


@pytest.mark.parametrize("sign", ["plus", "minus"])
@pytest.mark.parametrize("variant", ["homogeneous", "inhomogeneous"])
def test_schur_needs_a_polar_angle(monkeypatch, sign, variant):
    # S^0 has no polar angle: n = 1 is rejected before any integrand is built,
    # and the empty ladder too; the lattice forms still take n = 1
    monkeypatch.setattr(probe, "_schur_integrand", lambda *a: pytest.fail("integrated"))
    k = KernelSpec(a=0.2, b=0.1, c=0.1, sign=sign, variant=variant, n=1)
    for ladder in ([(16.0, 0.1), (32.0, 0.1)], []):
        with pytest.raises(ValueError, match=r"needs n >= 2, got n=1"):
            schur_ladder(k, ladder)
    with pytest.raises(ValueError, match=r"needs n >= 2"):
        schur_bound(k, 16.0, 0.1)
    f, g, h = {(1,): 1.0, (2,): 0.5}, {(-3,): 2.0}, {(-2,): 1.0, (-1,): 1.0}
    assert trilinear_form(k, f, g, h) > 0.0
    assert discrete_schur_constant(k, f, g, h) > 0.0


@pytest.mark.parametrize("R, h", [(math.nan, 0.1), (16.0, math.nan), (math.inf, 0.1),
                                  (16.0, math.inf), (16.0, -math.inf), (16.0, 1e-300),
                                  (16.0, 0.1 / 2**1000), (16.0, 0.0)])
def test_schur_rejects_non_finite_or_vanishing_cut(R, h):
    k = KernelSpec(a=1.2, b=0.2, c=0.3, variant="homogeneous", n=3)
    with pytest.raises(ValueError):
        schur_bound(k, R, h)
    with pytest.raises(ValueError):
        schur_ladder(k, [(16.0, 0.1), (R, h)])


@pytest.mark.parametrize("n", [0, -2])
def test_kernel_spec_rejects_dimension_below_one(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        KernelSpec(a=1.2, b=0.2, c=0.3, n=n)


@pytest.mark.parametrize("name", ["a", "b", "c"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_kernel_spec_rejects_non_finite_exponents(name, value):
    exps = {"a": 1.2, "b": 0.2, "c": 0.3, name: value}
    with pytest.raises(ValueError, match=f"exponent {name} must be finite.*got {value!r}"):
        KernelSpec(**exps, variant="homogeneous")


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(a=-1.0, b=0.0, c=0.0)
    with pytest.raises(ValueError):
        KernelSpec(a=0.0, b=0.0, c=0.0, sign="sideways")
    with pytest.raises(ValueError):
        schur_bound(KernelSpec(a=0.0, b=0.0, c=0.0), 0.5, 0.1)


# ---------------------------------------------------------------------------
# trilinear form


def test_trilinear_point_masses():
    k = KernelSpec(a=0.5, b=0.5, c=0.3, variant="inhomogeneous", n=2)
    f = {(1, 0): 2.0}
    g = {(0, 1): 3.0}
    h = {(1, 1): 5.0}
    K = float(kernel_eval(k, np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))[0])
    assert abs(trilinear_form(k, f, g, h) - 30.0 * K) <= 1e-12


def test_trilinear_cauchy_schwarz_certificate():
    k = KernelSpec(a=0.3, b=0.4, c=0.3, variant="inhomogeneous", n=2)

    def rnd(seed, m=50):
        r = np.random.default_rng(seed)
        return {tuple(int(x) for x in r.integers(-6, 7, 2)): float(r.uniform(0, 1))
                for _ in range(m)}

    for t in range(20):
        f, g, h = rnd(3 * t), rnd(3 * t + 1), rnd(3 * t + 2)
        val = trilinear_form(k, f, g, h)
        C = discrete_schur_constant(k, f, g, h)
        nf = math.sqrt(sum(v * v for v in f.values()))
        ng = math.sqrt(sum(v * v for v in g.values()))
        nh = math.sqrt(sum(v * v for v in h.values()))
        assert val <= math.sqrt(C) * nf * ng * nh * (1.0 + 1e-9)


def _trilinear_loop(k, f, g, h, spacing=1.0):
    """Per-xi dict loop: the reference for the pair table of trilinear_form."""
    fi = np.array(list(f.keys()), dtype=float)
    fv = np.array(list(f.values()))
    gi = np.array(list(g.keys()), dtype=float)
    gv = np.array(list(g.values()))
    n = fi.shape[1]
    total = 0.0
    for row, fval in zip(fi, fv):
        xi = np.broadcast_to(row, gi.shape) * spacing
        K = kernel_eval(k, xi, gi * spacing)
        sums = row + gi
        hv = np.array([h.get(tuple(int(round(x)) for x in s), 0.0) for s in sums])
        total += float(np.sum(K * fval * gv * hv))
    return total * spacing ** (2 * n)


def _schur_constant_loop(k, f, g, h, spacing=1.0):
    """Per-xi dict loop: the reference for discrete_schur_constant."""
    gi = np.array(list(g.keys()), dtype=float)
    best = 0.0
    for row in f.keys():
        xi = np.broadcast_to(np.array(row, dtype=float), gi.shape) * spacing
        K = kernel_eval(k, xi, gi * spacing)
        mask = np.array([tuple(int(a + b) for a, b in zip(row, e)) in h for e in gi])
        best = max(best, float(np.sum((K[mask]) ** 2)) * spacing ** k.n)
    return best


def _sparse_spectrum(rng, n, m, lo, hi):
    return {tuple(int(x) for x in rng.integers(lo, hi, n)): float(rng.uniform(0.0, 1.0))
            for _ in range(m)}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("spacing", [1.0, 0.5])
@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_pair_table_equals_dict_loops(n, spacing, sign, monkeypatch):
    # negative indices; h's box is smaller than the range of xi + eta, so
    # sums fall outside it on every side; blocks of about 1000 pairs split
    # f into many blocks of rows and a partial last one
    monkeypatch.setattr(probe, "_PAIR_BLOCK", 1000)
    k = KernelSpec(a=0.7, b=0.4, c=0.3, sign=sign, variant="inhomogeneous", n=n)
    rng = np.random.default_rng([n, int(4 * spacing)])
    f = _sparse_spectrum(rng, n, 150, -9, 10)
    g = _sparse_spectrum(rng, n, 150, -6, 12)
    h = _sparse_spectrum(rng, n, 100, -5, 6)
    assert len(f) % (1000 // len(g)) != 0
    assert trilinear_form(k, f, g, h, spacing) == _trilinear_loop(k, f, g, h, spacing)
    assert (discrete_schur_constant(k, f, g, h, spacing)
            == _schur_constant_loop(k, f, g, h, spacing))


def test_trilinear_and_schur_constant_of_empty_spectra_are_zero():
    k = KernelSpec(a=0.5, b=0.5, c=0.3, variant="inhomogeneous", n=2)
    full = {(0, 0): 1.0, (1, -1): 2.0}
    for empty in range(3):
        spectra = [full, full, full]
        spectra[empty] = {}
        assert trilinear_form(k, *spectra) == 0.0
        assert discrete_schur_constant(k, *spectra) == 0.0


@pytest.mark.parametrize("func", [trilinear_form, discrete_schur_constant])
def test_trilinear_and_schur_constant_reject_wrong_dimension(func):
    k = KernelSpec(a=0.5, b=0.5, c=0.3, variant="inhomogeneous", n=2)
    flat = {(0, 1): 1.0, (1, 0): 1.0}
    cube = {(0, 1, 0): 1.0, (1, 0, 0): 1.0, (1, 1, 0): 1.0}
    with pytest.raises(ValueError, match="length n = 2"):
        func(k, cube, cube, cube)
    with pytest.raises(ValueError, match="length n = 2"):
        func(k, {(0, 1, 0): 1.0}, flat, flat)
    with pytest.raises(ValueError, match="length n = 2"):
        func(k, flat, flat, {(1, 1, 0): 1.0})
    with pytest.raises(ValueError, match="length n = 2"):
        func(k, flat, {(0, 1): 1.0, (1, 0, 0): 1.0}, flat)


def test_trilinear_rejects_negative_weights():
    k = KernelSpec(a=0.0, b=0.0, c=0.0)
    with pytest.raises(ValueError):
        trilinear_form(k, {(0, 0, 0): -1.0}, {(0, 0, 0): 1.0}, {(0, 0, 0): 1.0})


def test_trilinear_refinement_stability_inside_region():
    # a+b+c > n/2 and c < (n-1)/4 (n = 2): the continuum ratio is stable as
    # the lattice refines under a fixed well-resolved Gaussian profile
    k = KernelSpec(a=0.8, b=0.6, c=0.2, variant="inhomogeneous", n=2)

    def ratio(spacing):
        rad = 8.0
        m = int(rad / spacing)
        pts = {}
        for idx in np.ndindex(*(2 * m + 1,) * 2):
            v = tuple(i - m for i in idx)
            x = np.array(v) * spacing
            w = math.exp(-float(x @ x) / 4.0)
            if w > 1e-8:
                pts[v] = w
        nrm = math.sqrt(sum(v * v for v in pts.values()) * spacing**2)
        val = trilinear_form(k, pts, pts, pts, spacing=spacing)
        return val / nrm**3

    r1 = ratio(1.0)
    r2 = ratio(0.5)
    assert abs(r2 - r1) / r1 <= 0.1


# ---------------------------------------------------------------------------
# counterexample family


def test_counterexample_measures_scale_like_Ln():
    recs = [counterexample_norms(CounterexampleParams(L=L, s=0.4, theta=0.6, n=3))
            for L in (8, 16, 32, 64)]
    fit = scaling_fit([(r.L, r.measure_A) for r in recs])
    assert abs(fit.slope - 3.0) <= 0.05


def test_counterexample_norm_slopes():
    s, th = 0.4, 0.6
    recs = [counterexample_norms(CounterexampleParams(L=L, s=s, theta=th, n=3))
            for L in (8, 16, 32, 64)]
    fu = scaling_fit([(r.L, r.norm_u) for r in recs])
    fv = scaling_fit([(r.L, r.norm_v) for r in recs])
    assert abs(fu.slope - (s + th + 1.5)) <= 0.1
    assert abs(fv.slope - (2 * s + 2.0)) <= 0.1


def test_readme_counterexample_golden():
    # `nflab counterexample --n 3 --s 0.4 --theta 0.6 --L 8,16,32,64`: every
    # record field and the three slopes, by repr
    recs = [counterexample_norms(CounterexampleParams(L=L, s=0.4, theta=0.6, n=3))
            for L in (8.0, 16.0, 32.0, 64.0)]
    assert [tuple(map(repr, dataclasses.astuple(r))) for r in recs] == [
        ("8.0", "182.3201529213828", "40882.79857140817", "1609133.5722289742",
         "0.21588218363976042", "1206.3715789784803", "25735.927018207574"),
        ("16.0", "1033.7660848469718", "284177.01651559677", "92363151.77385391",
         "0.31440360263177336", "9650.972631827843", "411774.8322913212"),
        ("32.0", "5851.378156893396", "1978367.8506159724", "5220904333.783793",
         "0.45100413461395755", "77207.78105462274", "6588397.316661139"),
        ("64.0", "33105.39754201728", "13776925.43307886", "292959481148.7307",
         "0.6423273915492435", "617662.2484369819", "105414357.06657822")]
    slopes = [repr(scaling_fit([(r.L, getattr(r, f)) for r in recs]).slope)
              for f in ("norm_u", "norm_v", "ratio")]
    assert slopes == ["2.501421249563959", "2.798908178228924", "0.5239716815741464"]


def _counterexample_norms_loops(p):
    """The family norms with the B and C shell integrals written out as two
    separate offset loops: the reference for the shared shell quadrature."""
    gauss = probe._gauss_nodes
    L, s, th, n = p.L, p.s, p.theta, p.n
    sigma = probe._sphere_area(n - 2)
    e1, we1 = gauss(L / 2.0, L)
    rho, wrho = gauss(L / 2.0, L)
    lam_off, wlam = gauss(-1.0, 1.0)
    E1, RHO, OFF = np.meshgrid(e1, rho, lam_off, indexing="ij")
    WA = we1[:, None, None] * wrho[None, :, None] * wlam[None, None, :]
    LAM = E1 + OFF
    abs_eta = np.sqrt(E1**2 + RHO**2)
    euclid = np.sqrt(LAM**2 + abs_eta**2)
    surf = sigma * RHO ** (n - 2)
    w_u = probe._cal_weight(LAM, abs_eta, euclid, s, th)
    norm_u = math.sqrt(float(np.sum(w_u**2 * surf * WA)))
    measure_A = float(np.sum(surf * WA))

    x1, wx1 = gauss(L * L / 2.0, 4.0 * L * L)
    rp, wrp = gauss(0.0, 2.0 * L)
    X1, RP = np.meshgrid(x1, rp, indexing="ij")
    WXR = np.outer(wx1, wrp)
    abs_xi = np.sqrt(X1**2 + RP**2)
    surf_x = sigma * RP ** (n - 2)
    val_v = 0.0
    for offs, wts in (gauss(-8.0, 0.0), gauss(0.0, 8.0)):
        for o, w in zip(offs, wts):
            tau = abs_xi + o
            f = probe._cal_weight(tau, abs_xi, np.sqrt(tau**2 + abs_xi**2), s, th)
            val_v += float(np.sum(f**2 * surf_x * WXR)) * w

    eta_center = np.zeros(n)
    eta_center[0] = eta_center[1] = 0.75 * L
    ec_norm = float(np.linalg.norm(eta_center))
    x1, wx1 = gauss(L * L, 2.0 * L * L)
    rp, wrp = gauss(0.0, L)
    X1, RP = np.meshgrid(x1, rp, indexing="ij")
    WXR = np.outer(wx1, wrp)
    abs_xi = np.sqrt(X1**2 + RP**2)
    surf_x = sigma * RP ** (n - 2)
    qsym = np.maximum((0.75 * L * X1 - 0.75 * L * RP) / ec_norm, 0.0)
    val_c = measure_C = 0.0
    for offs, wts in (gauss(-1.0, 0.0), gauss(0.0, 1.0)):
        for o, w in zip(offs, wts):
            f = weight("d", s - 1.0, None, abs_xi) * abs(o) ** (th - 1.0) * qsym * measure_A
            val_c += float(np.sum(f**2 * surf_x * WXR)) * w
            measure_C += float(np.sum(surf_x * WXR)) * w
    lhs_lower, norm_v = math.sqrt(val_c), math.sqrt(val_v)
    return probe.CounterexampleRecord(L=L, norm_u=norm_u, norm_v=norm_v, lhs_lower=lhs_lower,
                                      ratio=lhs_lower / (norm_u * norm_v),
                                      measure_A=measure_A, measure_C=float(measure_C))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("L", [4.0, 6.5, 12.5, 33.3])
@pytest.mark.parametrize("s, theta", [(0.4, 0.6), (-0.3, 0.25), (0.95, 0.05), (1.5, 1.25)])
def test_shell_quadrature_is_the_offset_loops_bit_for_bit(n, L, s, theta):
    # s - 1 < 0 and theta - 1 < 0 (|o|^(theta-1) singular at the panel split) and
    # both >= 0
    p = CounterexampleParams(L=L, s=s, theta=theta, n=n)
    assert dataclasses.astuple(counterexample_norms(p)) == dataclasses.astuple(
        _counterexample_norms_loops(p))


def test_counterexample_membership_chain():
    p = CounterexampleParams(L=8, s=0.4, theta=0.6, n=3)
    assert membership_check(p, membership_draw(200000, 3, 3)) == 0


@pytest.mark.parametrize("d", range(1, 8))
def test_shell_draw_is_the_row_norm_route_bit_for_bit(d):
    # the membership directions, scaled by their radii, and their left-to-right row sums
    # against numpy's (m, d) row reductions, kept here as the reference: same stream, same
    # bits, for d = n - 1 < 8
    lo, hi, m = 2.5, 7.0, 5000
    rng = np.random.default_rng(d)
    r = rng.uniform(lo, hi, m)
    x = probe._directions(rng, m, d) * r
    rng = np.random.default_rng(d)
    want_r = rng.uniform(lo, hi, m)
    dirs = rng.standard_normal((m, d))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
    want = want_r[:, None] * dirs
    assert np.array_equal(r, want_r) and np.array_equal(x.T, want)
    assert np.array_equal(probe._dot(want, want), np.sum(want**2, axis=1))


def _membership_samples_per_scale(p, m, seed):
    """Theta = (lam, eta_1, eta') and Xi = (tau, xi_1, xi') of one scale, drawn for that scale
    alone: a fresh default_rng(seed), rng.uniform, rng.standard_normal and row-norm
    directions, in this order.  The reference for the shared membership draw."""
    rng = np.random.default_rng(seed)
    L, d = p.L, p.n - 1

    def shell(lo, hi):
        r = rng.uniform(lo, hi, m)
        dirs = rng.standard_normal((m, d))
        dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
        return r, r[:, None] * dirs

    eta1 = rng.uniform(L / 2.0, L, m)
    lam = eta1 + rng.uniform(-1.0, 1.0, m)
    _, eta_prim = shell(L / 2.0, L)
    xi1 = rng.uniform(L * L, 2.0 * L * L, m)
    rhop, xi_prim = shell(0.0, L)
    tau = np.sqrt(xi1**2 + rhop**2) + rng.uniform(-1.0, 1.0, m)
    return (lam, eta1, eta_prim), (tau, xi1, xi_prim)


def _membership_samples_of_draw(p, draw):
    """The same samples from a membership draw: uniform k as rng.uniform(lo, hi) maps it."""
    (u_eta1, u_lam, u_eta, u_xi1, u_xi, u_tau), (eta_dir, xi_dir) = draw
    L = p.L

    def uniform(u, lo, hi):
        return lo + (hi - lo) * u

    eta1 = uniform(u_eta1, L / 2.0, L)
    lam = eta1 + uniform(u_lam, -1.0, 1.0)
    eta_prim = (eta_dir * uniform(u_eta, L / 2.0, L)).T
    xi1 = uniform(u_xi1, L * L, 2.0 * L * L)
    rhop = uniform(u_xi, 0.0, L)
    xi_prim = (xi_dir * rhop).T
    tau = np.sqrt(xi1**2 + rhop**2) + uniform(u_tau, -1.0, 1.0)
    return (lam, eta1, eta_prim), (tau, xi1, xi_prim)


def _membership_failures(p, samples):
    """The checks of (Theta in A, Xi in C) => Xi - Theta in B on given samples, written out."""
    (lam, eta1, eta_prim), (tau, xi1, xi_prim) = samples
    L = p.L
    d1, dprim = xi1 - eta1, xi_prim - eta_prim
    rho = np.linalg.norm(dprim, axis=1)
    ok = np.abs(tau - lam - np.sqrt(d1**2 + rho**2)) <= 8.0 + 1e-9
    ok &= (d1 >= L * L / 2.0 - 1e-9) & (d1 <= 4.0 * L * L + 1e-9) & (rho <= 2.0 * L + 1e-9)
    return int(np.sum(~ok))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_membership_draw_rebuilds_every_scale_bit_for_bit(n, seed, monkeypatch):
    m = 3001
    draw = membership_draw(m, n, seed)
    assert not any(x.flags.writeable for part in draw for x in part)
    seen = {"_dot": [], "abs": []}
    dot = probe._dot
    monkeypatch.setattr(probe, "_dot", lambda a, b: seen["_dot"].append(a.copy()) or dot(a, b))
    spy_np = types.SimpleNamespace(**{**vars(np),
                                      "abs": lambda a: seen["abs"].append(a) or np.abs(a)})
    for L in (4.0, 6.5, 8.0, 33.3, 64.0):
        p = CounterexampleParams(L=L, s=0.4, theta=0.6, n=n)
        want = _membership_samples_per_scale(p, m, seed)
        got = _membership_samples_of_draw(p, draw)
        for w, g in zip((x for pair in want for x in pair), (x for pair in got for x in pair)):
            assert np.array_equal(w, g)
        # the check itself sees these samples: its Xi' - Theta' rows and its
        # tau - lam - |Xi - Theta|, bit for bit
        (lam, eta1, eta_prim), (tau, xi1, xi_prim) = want
        d1, dprim = xi1 - eta1, xi_prim - eta_prim
        for spied in seen.values():
            spied.clear()
        with monkeypatch.context() as patch:
            patch.setattr(probe, "np", spy_np)
            assert membership_check(p, draw) == _membership_failures(p, want) == 0
        assert len(seen["_dot"]) == 1 and np.array_equal(seen["_dot"][0], dprim)
        assert len(seen["abs"]) == 1 and np.array_equal(
            seen["abs"][0], tau - lam - np.sqrt(d1**2 + np.sum(dprim**2, axis=1)))


@pytest.mark.parametrize("n", [2, 3])
def test_membership_count_is_the_same_on_a_row_split_of_the_draw(n, monkeypatch):
    # a draw moved off the family's sets, so that each of the three checks fails on some rows
    m, L = 40000, 8.0
    p = CounterexampleParams(L=L, s=0.4, theta=0.6, n=n)
    u, dirs = ([x.copy() for x in part] for part in membership_draw(m, n, 5))
    u[3][::7] = -0.75  # xi_1 = L^2 / 4: Xi_1 - Theta_1 below L^2 / 2
    u[5][1::11] = 30.0  # tau far off the cone: |tau - lam - |xi - eta|| > 8
    dirs[1][:, 2::13] *= 5.0  # |xi'| up to 5 L: |Xi' - Theta'| above 2 L
    want = _membership_failures(p, _membership_samples_of_draw(p, (u, dirs)))
    assert want > m // 5
    counts = []
    for rows in (7, 999, 1 << 15, m):
        monkeypatch.setattr(probe, "_DRAW_ROWS", rows)
        counts.append(membership_check(p, (u, dirs)))
    assert counts == [want] * 4


def test_membership_check_rejects_a_draw_of_another_shape_before_any_work(monkeypatch):
    draws = [membership_draw(1000, n, 0) for n in (2, 4)]
    monkeypatch.setattr(probe, "_dot", lambda *a: pytest.fail("checked rows"))
    p = CounterexampleParams(L=8.0, s=0.4, theta=0.6, n=3)
    for draw in draws:
        with pytest.raises(ValueError, match="membership_draw"):
            membership_check(p, draw)


def test_counterexample_rejects_small_dimension_and_scale():
    with pytest.raises(ValueError):
        CounterexampleParams(L=8, s=0.4, theta=0.6, n=1)
    with pytest.raises(ValueError):
        CounterexampleParams(L=2, s=0.4, theta=0.6, n=2)


@pytest.mark.parametrize("n, N_t, N_x, modes", [
    (2, 8, 8, [(0, 0, 0), (3, 3, 0), (-2, 1, -3), (1, -2, 2)]),
    (2, 16, 8, [(0, 0, 0), (3, 3, 0), (-5, -3, -4), (2, -1, 3), (-4, 0, -2)]),
    (3, 8, 8, [(0, 0, 0, 0), (-2, 0, 2, 0), (3, 1, -2, 2), (-1, -4, 3, 0)]),
])
def test_sparse_ws_norm_equals_lattice_ws_norm(n, N_t, N_x, modes):
    # integer modes with the origin, cone points and negative indices; on a
    # 2*pi-periodic grid the lattice frequencies are the same integers
    grid = make_grid(n, N_t, N_x, TWO_PI, TWO_PI)
    c = np.zeros(grid.spacetime_shape, dtype=complex)
    for m in modes:
        c[(m[0] % N_t,) + tuple(k % N_x for k in m[1:])] = 1.0
    field = SpectralField(grid=grid, kind=SPACETIME, coeffs=c)
    for idx in (SpaceIndex(1.2, 0.6), SpaceIndex(-0.5, 1.5), SpaceIndex(0.3, -0.7)):
        sparse = _sparse_ws_norm(np.array(modes), idx)
        assert sparse == pytest.approx(ws_norm(field, idx), rel=1e-14, abs=0.0)


def _is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


@given(st.integers(1, 200_000))
@settings(max_examples=200, deadline=None)
def test_smooth_length_is_the_next_5_smooth_integer(n):
    m = _smooth_length(n)
    assert m >= n and _is_5_smooth(m)
    assert not any(_is_5_smooth(j) for j in range(n, m))


@pytest.mark.parametrize("n, L", [(2, 4), (2, 6), (2, 8), (2, 12), (3, 4), (3, 6)])
def test_counterexample_lattice_ratio_matches_unpadded_fft(n, L, monkeypatch):
    spec = EmbeddingSpec(left=SpaceIndex(0.5, 0.1), right=SpaceIndex(-0.5, 0.6),
                         target=SpaceIndex(-0.5, -0.4), n=n)
    padded = counterexample_lattice_ratio(spec, L)
    monkeypatch.setattr(probe, "_smooth_length", lambda m: m)
    unpadded = counterexample_lattice_ratio(spec, L)
    assert padded == pytest.approx(unpadded, rel=1e-12, abs=0.0)


def _family_spec(n):
    """crit 9's failing product estimate; distinct SpaceIndex objects per role."""
    return EmbeddingSpec(left=SpaceIndex(0.5, 0.1), right=SpaceIndex(-0.5, 0.6),
                         target=SpaceIndex(-0.5, -0.4), n=n)


def _loop_lattice_set_A(L, n):
    """The per-(eta_1, lam) loop that enumerated A before the light-cone route."""
    eta1 = np.arange(math.ceil(L / 2.0), math.floor(L) + 1)
    prim_rng = np.arange(-math.floor(L), math.floor(L) + 1)
    grids = np.meshgrid(*([prim_rng] * (n - 1)), indexing="ij")
    prim = np.stack([g.ravel() for g in grids], axis=-1)
    pn = np.linalg.norm(prim, axis=-1)
    prim = prim[(pn >= L / 2.0) & (pn <= L)]
    rows = []
    for e1 in eta1:
        for lam in (e1 - 1, e1, e1 + 1):
            rows.append(np.concatenate([np.full((len(prim), 1), lam),
                                        np.full((len(prim), 1), e1), prim], axis=1))
    return np.concatenate(rows, axis=0).astype(int)


def _loop_lattice_set_B(L, n):
    """The per-(xi_1, offset) loop that enumerated B before the light-cone route."""
    xi1 = np.arange(math.ceil(L * L / 2.0), math.floor(4 * L * L) + 1)
    prim_rng = np.arange(-math.floor(2 * L), math.floor(2 * L) + 1)
    grids = np.meshgrid(*([prim_rng] * (n - 1)), indexing="ij")
    prim = np.stack([g.ravel() for g in grids], axis=-1)
    pn = np.linalg.norm(prim, axis=-1)
    prim = prim[pn <= 2 * L]
    rows = []
    for x1 in xi1:
        r = np.sqrt(x1**2 + np.sum(prim**2, axis=-1))
        for off in range(-8, 9):
            tau = np.rint(r).astype(int) + off
            keep = np.abs(tau - r) <= 8
            if not np.any(keep):
                continue
            rows.append(np.concatenate([tau[keep, None],
                                        np.full((int(keep.sum()), 1), x1),
                                        prim[keep]], axis=1))
    return np.concatenate(rows, axis=0).astype(int)


def _full_box_ratio(spec, L):
    """The full-box FFT route: (ratio, occupied modes, convolution values there)."""
    A = probe._lattice_set_A(L, spec.n)
    B = probe._lattice_set_B(L, spec.n)
    lo = A.min(axis=0) + B.min(axis=0)
    shape_A = A.max(axis=0) - A.min(axis=0) + 1
    shape_B = B.max(axis=0) - B.min(axis=0) + 1
    full = tuple(int(a + b - 1) for a, b in zip(shape_A, shape_B))
    boxA = np.zeros(tuple(shape_A), dtype=float)
    boxA[tuple((A - A.min(axis=0)).T)] = 1.0
    boxB = np.zeros(tuple(shape_B), dtype=float)
    boxB[tuple((B - B.min(axis=0)).T)] = 1.0
    axes = tuple(range(len(full)))
    fft_shape = tuple(_smooth_length(m) for m in full)
    spectrum = np.fft.rfftn(boxA, fft_shape, axes=axes)
    spectrum *= np.fft.rfftn(boxB, fft_shape, axes=axes)
    conv = np.fft.irfftn(spectrum, fft_shape, axes=axes)[tuple(slice(0, m) for m in full)]
    conv[conv < 1e-9] = 0.0
    occ = np.argwhere(conv > 0)
    values = conv[tuple(occ.T)]
    num = _sparse_ws_norm(occ + lo, spec.target, values)
    ratio = num / (_sparse_ws_norm(A, spec.left) * _sparse_ws_norm(B, spec.right))
    return ratio, occ + lo, values


def _sorted_rows(points, values):
    order = np.lexsort(points.T[::-1])
    return points[order], values[order]


@pytest.mark.parametrize("n, L", [(2, 4), (2, 5.5), (2, 6), (2, 8), (2, 12), (3, 4), (3, 6)])
def test_light_cone_route_equals_full_box_fft(n, L, monkeypatch):
    spec = _family_spec(n)
    want, want_pts, want_vals = _full_box_ratio(spec, L)
    seen = []
    sparse = probe._sparse_ws_norm

    def spy(points, idx, values=1.0):
        if idx is spec.target:
            seen.append((points.copy(), np.broadcast_to(values, len(points)).copy()))
        return sparse(points, idx, values)

    monkeypatch.setattr(probe, "_sparse_ws_norm", spy)
    got = counterexample_lattice_ratio(spec, L)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    # the same occupied modes, in unsheared coordinates, with the same counts
    pts, vals = _sorted_rows(np.concatenate([p for p, _ in seen]),
                             np.concatenate([v for _, v in seen]))
    want_pts, want_vals = _sorted_rows(want_pts, want_vals)
    assert np.array_equal(pts, want_pts)
    np.testing.assert_allclose(vals, want_vals, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("L", [1, 1.5, 4, 5.5, 6, 7.3, 8])
def test_sheared_set_A_is_a_product_set(n, L):
    A = probe._lattice_set_A(L, n)
    SA = A.copy()
    SA[:, 0] -= A[:, 1]
    eta1 = range(math.ceil(L / 2), math.floor(L) + 1)
    ann = [p for p in np.ndindex(*([2 * math.floor(L) + 1] * (n - 1)))
           if L / 2 <= math.dist(p, [math.floor(L)] * (n - 1)) <= L]
    want = {(d, e, *(np.array(p) - math.floor(L)))
            for d in (-1, 0, 1) for e in eta1 for p in ann}
    assert len(SA) == len(want) and {tuple(row) for row in SA.tolist()} == want


@pytest.mark.parametrize("n, L", [(2, 1), (2, 4), (2, 5.5), (2, 7.3), (2, 12), (3, 2), (3, 4),
                                  (3, 5.5)])
def test_vectorized_sets_equal_the_loops_row_for_row(n, L):
    assert np.array_equal(probe._lattice_set_A(L, n), _loop_lattice_set_A(L, n))
    assert np.array_equal(probe._lattice_set_B(L, n), _loop_lattice_set_B(L, n))


@pytest.mark.parametrize("n, L", [(2, 6), (3, 4)])
def test_light_cone_route_transforms_only_transverse_axes(n, L, monkeypatch):
    calls = []

    def spying(fft):
        def spy(a, s=None, axes=None, **kw):
            calls.append((fft.__name__, np.ndim(a), len(s), axes))
            return fft(a, s, axes, **kw)
        return spy

    monkeypatch.setattr(np.fft, "rfftn", spying(np.fft.rfftn))
    monkeypatch.setattr(np.fft, "irfftn", spying(np.fft.irfftn))
    spec = _family_spec(n)
    counterexample_lattice_ratio(spec, L)
    assert calls
    for _, ndim, lengths, axes in calls:
        assert lengths == n - 1
        # a sheared slab (xi_1 and the transverse axes) or the annulus alone
        assert (ndim, axes) in ((n, tuple(range(1, n))), (n - 1, tuple(range(n - 1))))


@pytest.mark.parametrize("scales", [[4, 6, math.inf], [4, 6, math.nan], [-4, 6, 8],
                                    [0.5, 1, 2], [4, 6, 0.0]])
def test_family_rejects_non_finite_or_small_scales_before_any_is_computed(scales,
                                                                         monkeypatch):
    monkeypatch.setattr(probe, "counterexample_lattice_ratio",
                        lambda *a: pytest.fail("a scale was computed"))
    spec = _family_spec(2)
    bad = next(L for L in scales if not (math.isfinite(L) and L >= 1))
    with pytest.raises(ValueError, match=f"got {bad!r}"):
        probe_embedding(spec, "counterexample-family", 1, None, scales=scales)


@pytest.mark.parametrize("change, name", [
    ({"form": BilinearFormSpec("q0")}, "form"), ({"unary": True}, "unary"),
    ({"target_mixed": (4.0, 4.0)}, "target_q/target_r")])
def test_family_rejects_options_it_would_ignore(change, name, monkeypatch):
    monkeypatch.setattr(probe, "counterexample_lattice_ratio",
                        lambda *a: pytest.fail("a scale was computed"))
    spec = dataclasses.replace(_family_spec(2), **change)
    with pytest.raises(ValueError, match=f"takes no {name}$"):
        probe_embedding(spec, "counterexample-family", 1, None, scales=[4, 6, 8])


def test_family_takes_the_product_form_spec_as_the_plain_product():
    plain = probe_embedding(_family_spec(2), "counterexample-family", 1, None, scales=[4, 6, 8])
    spec = dataclasses.replace(_family_spec(2), form=BilinearFormSpec("product"))
    assert probe_embedding(spec, "counterexample-family", 1, None,
                           scales=[4, 6, 8]).values == plain.values


def test_lattice_ensembles_reject_scales(grid2d):
    spec = EmbeddingSpec(left=SpaceIndex(1.2, 0.6), right=SpaceIndex(1.2, 0.6),
                         target=SpaceIndex(1.2, 0.6), n=2)
    for ensemble in ("random-gaussian", "cone-concentrated"):
        with pytest.raises(ValueError, match="counterexample-family"):
            probe_embedding(spec, ensemble, 1, grid2d, scales=[4, 6, 8])


@pytest.mark.parametrize("L", [math.inf, math.nan, -math.inf])
def test_counterexample_params_reject_non_finite_scale(L):
    with pytest.raises(ValueError, match="finite"):
        CounterexampleParams(L=L, s=0.4, theta=0.6, n=3)


def test_counterexample_lattice_ratio_grows_in_failing_region():
    s, th = 0.0, 0.6  # s < n/2 - theta at n = 2
    spec = EmbeddingSpec(left=SpaceIndex(s + 0.5, th - 0.5),
                         right=SpaceIndex(s - 0.5, th),
                         target=SpaceIndex(s - 0.5, th - 1.0), n=2)
    vals = [counterexample_lattice_ratio(spec, L) for L in (4, 6, 8)]
    assert vals[0] < vals[1] < vals[2]


# ---------------------------------------------------------------------------
# embedding probes


def test_embedding_ratio_homogeneity_degree_zero(grid2d):
    spec = EmbeddingSpec(left=SpaceIndex(1.2, 0.6), right=SpaceIndex(1.2, 0.6),
                         target=SpaceIndex(1.2, 0.6), n=2)
    u = random_field(grid2d, SPACETIME, 0, max_freq=3, real=False)
    v = random_field(grid2d, SPACETIME, 1, max_freq=3, real=False)
    r0 = embedding_ratio(spec, u, v)
    r1 = embedding_ratio(spec, u.copy_with(7.5 * u.coeffs), v)
    r2 = embedding_ratio(spec, u, v.copy_with(0.03 * v.coeffs))
    assert abs(r1 - r0) <= 1e-12 * r0
    assert abs(r2 - r0) <= 1e-12 * r0


def test_embedding_zero_field_guard(grid2d):
    spec = EmbeddingSpec(left=SpaceIndex(1.0, 0.6), right=SpaceIndex(1.0, 0.6),
                         target=SpaceIndex(1.0, 0.6), n=2)
    u = random_field(grid2d, SPACETIME, 2, max_freq=3, real=False)
    z = u.copy_with(np.zeros_like(u.coeffs))
    assert embedding_ratio(spec, z, u) is None


def test_probe_embedding_algebra_region_bounded():
    g = make_grid(2, 16, 16, TWO_PI, TWO_PI)
    spec = EmbeddingSpec(left=SpaceIndex(1.2, 0.6), right=SpaceIndex(1.2, 0.6),
                         target=SpaceIndex(1.2, 0.6), n=2)
    rep = probe_embedding(spec, "cone-concentrated", 25, g, seed=4)
    assert rep.verdict == "bounded-consistent"
    assert rep.refinement_drift <= 0.20


def test_probe_embedding_counterexample_family_growth():
    s, th = 0.0, 0.6
    spec = EmbeddingSpec(left=SpaceIndex(s + 0.5, th - 0.5),
                         right=SpaceIndex(s - 0.5, th),
                         target=SpaceIndex(s - 0.5, th - 1.0), n=2)
    rep = probe_embedding(spec, "counterexample-family", 1, None, scales=[4, 6, 8, 12])
    assert rep.verdict == "growth-detected"
    assert rep.slope > 0.1 and rep.residual < 0.05


def test_counterexample_family_default_scales_are_4_6_8_12(monkeypatch):
    monkeypatch.setattr(probe, "counterexample_lattice_ratio", lambda spec, L: 1.0 + L**0.5)
    spec = EmbeddingSpec(left=SpaceIndex(0.5, 0.1), right=SpaceIndex(-0.5, 0.6),
                         target=SpaceIndex(-0.5, -0.4), n=2)
    rep = probe_embedding(spec, "counterexample-family", 1, None)
    assert rep.scales == [4, 6, 8, 12]
    assert rep == probe_embedding(spec, "counterexample-family", 1, None, scales=[4, 6, 8, 12])


def test_probe_embedding_unary_mode(grid2d):
    spec = EmbeddingSpec(left=SpaceIndex(0.0, 0.6), right=SpaceIndex(0.0, 0.0),
                         target=SpaceIndex(0.0, 0.0), n=2, unary=True,
                         target_mixed=(math.inf, 2))
    u = random_field(grid2d, SPACETIME, 5, max_freq=3, real=False)
    r = embedding_ratio(spec, u, None)
    assert r is not None and r > 0.0


# ---------------------------------------------------------------------------
# first-iterate kernels


def test_first_iterate_kernel_example2_parallel_cancellation():
    e1 = np.array([1.0, 0.0])
    assert first_iterate_kernel("example2", 1.0, "plus", e1, 2 * e1, general=True) == 0.0


def test_first_iterate_kernel_example1_display():
    xi = np.array([1.0, 0.0])
    eta = np.array([0.0, 1.0])
    s = 2.5
    dplus = 2.0 - math.sqrt(2.0)
    manual = ((1 + math.sqrt(2.0)) ** (s - 1)
              / (2.0 ** (s - 1) * 2.0 ** (s - 1) * (1.0 + dplus)))
    got = first_iterate_kernel("example1", s, "plus", xi, eta)
    assert abs(got - manual) <= 1e-12


def test_first_iterate_kernel_example3_hand_oracle():
    xi = np.array([2.0, 1.0])
    eta = np.array([-1.0, 3.0])
    s = 1.4
    nx, ne = np.linalg.norm(xi), np.linalg.norm(eta)
    ns = np.linalg.norm(xi + eta)
    dminus = ns - abs(nx - ne)
    manual = ((1 + nx) ** (-s + 0.5) + (1 + ne) ** (-s + 0.5)) / math.sqrt(1 + dminus)
    got = first_iterate_kernel("example3", s, "minus", xi, eta)
    assert abs(got - manual) <= 1e-12


def _displayed_first_iterate_kernel(preset, s, sign, xi, eta, general):
    """The kernels of first_iterate_kernel's docstring at the exact values of float inputs:
    |xi|^2, |eta|^2, |xi+eta|^2, xi.eta and |xi ^ eta|^2 in Fraction, the rest (roots, powers
    and the gaps Delta_pm and |xi||eta| -+ xi.eta, subtracted as displayed) in 60 digits."""
    xi, eta = [Fraction(x) for x in xi], [Fraction(x) for x in eta]
    n = len(xi)
    wedge_sq = sum((xi[i] * eta[j] - xi[j] * eta[i]) ** 2
                   for i in range(n) for j in range(i + 1, n))
    with decimal.localcontext(prec=60):
        def dec(q):
            return decimal.Decimal(q.numerator) / q.denominator

        def norm(v):
            return dec(sum(x * x for x in v)).sqrt()

        nx, ne, ns = norm(xi), norm(eta), norm([a + b for a, b in zip(xi, eta)])
        dot = dec(sum(a * b for a, b in zip(xi, eta)))
        delta = nx + ne - ns if sign == "plus" else ns - abs(nx - ne)
        s, one, half = decimal.Decimal(s), decimal.Decimal(1), decimal.Decimal("0.5")
        if general:
            signed = nx * ne if sign == "plus" else -nx * ne
            k = {"example1": nx * ne, "example2": abs(signed - dot),
                 "example3": dec(wedge_sq).sqrt()}[preset]
            shrink = min(one, one / (ns * (1 + delta))) if ns > 0 else one
            value = (1 + ns) ** s * k / ((1 + nx) ** s * (1 + ne) ** s) * shrink
        elif preset == "example1":
            value = (1 + ns) ** (s - 1) / ((1 + nx) ** (s - 1) * (1 + ne) ** (s - 1) * (1 + delta))
        elif preset == "example2":
            value = (1 + nx) ** -s + (1 + ne) ** -s
        else:
            value = ((1 + nx) ** (half - s) + (1 + ne) ** (half - s)) / (1 + delta).sqrt()
        return float(value)


_FIRST_ITERATE_BRANCHES = [(preset, sign, general)
                           for preset in ("example1", "example2", "example3")
                           for sign in ("plus", "minus") for general in (False, True)]


@pytest.mark.parametrize("preset, sign, general", _FIRST_ITERATE_BRANCHES)
@pytest.mark.parametrize("xi, eta", [((2.0, 1.0), (-1.0, 3.0)),
                                     ((0.5, -1.5, 2.0), (3.0, 1.0, -0.25))])
def test_first_iterate_kernel_branches_match_the_display(preset, sign, general, xi, eta):
    got = first_iterate_kernel(preset, 1.4, sign, np.array(xi), np.array(eta), general=general)
    want = _displayed_first_iterate_kernel(preset, 1.4, sign, xi, eta, general)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("preset, sign, general", _FIRST_ITERATE_BRANCHES)
@pytest.mark.parametrize("xi, eta", [((1.0, 0.0), (t * 2.0, t * eps)) for t in (1.0, -1.0)
                                     for eps in (1e-3, 1e-6, 1e-9, 1e-12)]
                         + [((1.0, 0.5), (2.0, 1.0 + 1e-9)), ((1.0, 0.0, 0.0), (-2.0, 1e-9, 1e-9))])
def test_first_iterate_kernel_near_parallel_pairs_keep_their_digits(preset, sign, general, xi, eta):
    # |xi ^ eta| is about eps |xi||eta|: a k_pm built as |xi||eta| - xi.eta or from
    # |xi|^2 |eta|^2 - (xi.eta)^2 cancels to 0 there, where at xi = (1, 0), eta = (2, 1e-9)
    # the general example2 and example3 kernels are 5.6e-20 and 2.2e-10
    got = first_iterate_kernel(preset, 1.0, sign, np.array(xi), np.array(eta), general=general)
    want = _displayed_first_iterate_kernel(preset, 1.0, sign, xi, eta, general)
    assert want > 0.0
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_first_iterate_example1_threshold_region():
    # Schur-style analysis of the first-iterate kernel dominant part
    # 1/(<eta>^(s-1) (1+Delta)): with the angular power just below (n-1)/4,
    # the certificate is R-stable iff (s-1) + (n-1)/4 > n/2, i.e. s > 2 at n=3
    c0 = 0.49
    stable = KernelSpec(a=0.0, b=2.2 - 1.0, c=c0, variant="homogeneous", n=3)
    v1 = schur_bound(stable, 8.0, 0.2)
    v2 = schur_bound(stable, 32.0, 0.2)
    assert abs(v2 - v1) / v1 <= 0.05
    failing = KernelSpec(a=0.0, b=1.7 - 1.0, c=c0, variant="homogeneous", n=3)
    w1 = schur_bound(failing, 8.0, 0.2)
    w2 = schur_bound(failing, 32.0, 0.2)
    assert w2 >= 1.5 * w1


def test_first_iterate_kernel_unknown_preset():
    with pytest.raises(ValueError):
        first_iterate_kernel("example9", 1.0, "plus", np.ones(2), np.ones(2))


# ---------------------------------------------------------------------------
# ensemble draws


def _cone_concentrated_loop(grid, seed, modes=40):
    """Reference cone draw with np.linalg.norm, np.rint and np.clip per mode."""
    rng = np.random.default_rng(seed)
    c = np.zeros(grid.spacetime_shape, dtype=complex)
    kt_max = grid.N_t // 2 - 1
    kx_max = grid.N_x // 2 - 1
    dtau = TWO_PI / grid.T_per
    for _ in range(modes):
        u = rng.uniform()
        radius = min(kx_max, max(1.0, (1.0 - u) ** (-0.75)))
        direction = rng.standard_normal(grid.n)
        direction /= max(np.linalg.norm(direction), 1e-12)
        k_xi = np.rint(radius * direction).astype(int)
        k_xi = np.clip(k_xi, -kx_max, kx_max)
        xi = k_xi * (TWO_PI / grid.L_per)
        sgn = rng.choice([-1.0, 1.0])
        tau_target = sgn * np.linalg.norm(xi) + rng.uniform(-1.0, 1.0)
        k_t = int(np.clip(np.rint(tau_target / dtau), -kt_max, kt_max))
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        pos = (k_t % grid.N_t,) + tuple(k % grid.N_x for k in k_xi)
        c[pos] += amp
    return c


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("N", [8, 16, 32])
@pytest.mark.parametrize("T_per, L_per", [(TWO_PI, TWO_PI), (8 * math.pi, 3.7), (1.3, 20.0)])
def test_cone_draw_equals_the_per_mode_loop_bit_for_bit(n, N, T_per, L_per):
    g = make_grid(n, N, N, T_per, L_per)
    for seed in range(12 if N ** n < 2**12 else 3):
        got = probe._cone_field(g, probe._cone_modes(n, 1000 * seed + 7)).coeffs
        want = _cone_concentrated_loop(g, 1000 * seed + 7)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("seed, report", [
    (0, (0.03998891896696112, 2, "cone-concentrated", 0.009078689471811357,
         "bounded-consistent", None, None, [], [], 0)),
    (5, (0.039176901861900794, 1, "cone-concentrated", 0.010100861608938933,
         "bounded-consistent", None, None, [], [], 0)),
])
def test_ralpha_cone_probe_is_golden(seed, report):
    # R^alpha (alpha = 0.7) from H^{1.2,0.6} x H^{1.2,0.6} into H^{0.8,0.6} on the
    # (2, 16, 16) lattice, 10 cone-concentrated trials: every ProbeReport field
    g = make_grid(2, 16, 16, TWO_PI, TWO_PI)
    spec = EmbeddingSpec(left=SpaceIndex(1.2, 0.6), right=SpaceIndex(1.2, 0.6),
                         target=SpaceIndex(0.8, 0.6), n=2,
                         form=BilinearFormSpec("ralpha", alpha=0.7))
    got = dataclasses.astuple(probe_embedding(spec, "cone-concentrated", 10, g, seed=seed))
    assert [repr(x) for x in got] == [repr(x) for x in report]


def test_probe_counts_exclusions_and_witness_on_the_first_lattice(monkeypatch):
    # the refined lattice only sets the drift: a 0/0 trial there is not excluded
    # and its larger ratio is no witness
    g = make_grid(2, 8, 8, TWO_PI, TWO_PI)
    trial_of = {probe._cone_field(grid, probe._cone_modes(2, 1 + 1000 * k)).coeffs.tobytes(): k
                for k in range(3) for grid in (g, g.refined())}
    table = {(8, 0): None, (8, 1): 2.0, (8, 2): 3.0, (16, 0): 5.0, (16, 1): None, (16, 2): 4.0}
    monkeypatch.setattr(probe, "embedding_ratio", lambda spec, u, v: table[
        u.grid.N_x, trial_of[u.coeffs.tobytes()]])
    spec = EmbeddingSpec(left=SpaceIndex(0.0, 0.6), right=SpaceIndex(0.0, 0.6),
                         target=SpaceIndex(0.0, 0.6), n=2, unary=True)
    rep = probe_embedding(spec, "cone-concentrated", 3, g, seed=1)
    assert (rep.sup_ratio, rep.witness, rep.excluded) == (3.0, 2, 1)
    assert rep.refinement_drift == abs(5.0 - 3.0) / 3.0


def test_scalar_rounding_is_numpy_rint_on_ties():
    for x in np.arange(-6.5, 7.0, 0.5):
        assert round(x) == int(np.rint(x))


@pytest.mark.parametrize("ensemble, drawer, seed_arg, per_field", [
    ("cone-concentrated", "_cone_modes", 1, 1),  # one grid-free draw serves g and g.refined()
    ("random-gaussian", "random_field", 2, 2)])  # one draw per grid
def test_unary_probe_draws_only_u(ensemble, drawer, seed_arg, per_field, monkeypatch):
    g = make_grid(2, 8, 8, TWO_PI, TWO_PI)
    seeds = []
    real = getattr(probe, drawer)
    monkeypatch.setattr(probe, drawer, lambda *a, **k: seeds.append(a[seed_arg]) or real(*a, **k))
    spec = EmbeddingSpec(left=SpaceIndex(0.0, 0.6), right=SpaceIndex(0.0, 0.6),
                         target=SpaceIndex(0.0, 0.6), n=2, target_mixed=(math.inf, 2),
                         unary=True)
    trials = 3
    probe_embedding(spec, ensemble, trials, g, seed=5)  # trials on g and on g.refined()
    assert len(seeds) == per_field * trials
    assert set(seeds) == {5 + 1000 * k for k in range(trials)}  # no v seed
    seeds.clear()
    probe_embedding(dataclasses.replace(spec, unary=False), ensemble, trials, g, seed=5)
    assert len(seeds) == 2 * per_field * trials


def test_gauss_rule_is_cached_read_only_with_the_bits_of_leggauss():
    for m in (8, 32):
        x, w = probe._legendre(m)
        again = probe._legendre(m)
        assert again[0] is x and again[1] is w and not (x.flags.writeable or w.flags.writeable)
        want_x, want_w = leggauss(m)
        assert np.array_equal(x, want_x) and np.array_equal(w, want_w)
        nodes, weights = probe._gauss_nodes(1.5, 4.0, m)
        assert np.array_equal(nodes, 2.75 + 1.25 * want_x)
        assert np.array_equal(weights, 1.25 * want_w)
