"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is the one stated in the criterion; runtime budgets are
asserted on the measured wall time of the criterion body.
"""

import math
import time

import numpy as np
import pytest

import nflab as nl
from nflab.iterate import SystemSpec, iterate_samples, picard_run, q0_closed_form
from nflab.lattice import (SPACETIME, SPATIAL, SpectralField, dealiased_product,
                           from_time_spatial_rep, inverse_transform, make_grid,
                           mixed_norm, modified_mixed_norm_detailed,
                           plane_wave_coeffs, random_field, transform)
from nflab.multiplier import (MultiplierSpec, SpaceIndex, apply, check_thmB,
                              check_thmC, is_wave_admissible, strichartz_s,
                              ws_norm)
from nflab.nullform import (INEQUALITY_REGISTRY, BilinearFormSpec, apply_form,
                            check_symbol_inequality, frequency_pairs)
from nflab.probe import (CounterexampleParams, EmbeddingSpec, KernelSpec,
                         counterexample_norms, membership_check, membership_draw,
                         probe_embedding, scaling_fit, schur_bound)
from nflab.propagate import (CauchyData, duhamel, duhamel_mixed, half_wave,
                             homogeneous, homogeneous_velocity, pm_decompose,
                             signed_times)

from conftest import axis_mode_field, banded_spacetime_field

TWO_PI = 2.0 * math.pi


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({self.elapsed:.1f}s / budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert self.elapsed < self.seconds, f"{self.name} exceeded its runtime budget"
        return False


def test_criterion_1_exact_identity_suite():
    with Budget("1 exact-identity suite", 5.0):
        g = make_grid(2, 16, 16, TWO_PI, TWO_PI)
        # part (a): integer-radius data so half waves are lattice-periodic
        f = axis_mode_field(g, 4, 1)
        h = axis_mode_field(g, 3, 2)
        alpha = 0.7
        for sgn, form in ((1, "splus"), (-1, "sminus")):
            a_u = np.empty((g.N_t,) + g.spatial_shape, dtype=complex)
            a_v = np.empty_like(a_u)
            for j, t in enumerate(g.times()):
                a_u[j] = plane_wave_coeffs(half_wave(1, t, f))
                a_v[j] = plane_wave_coeffs(half_wave(sgn, t, h))
            U = from_time_spatial_rep(g, a_u)
            V = from_time_spatial_rep(g, a_v)
            route1 = apply(MultiplierSpec("d_minus", alpha), dealiased_product(U, V))
            route2 = apply_form(BilinearFormSpec(form, alpha=alpha), U, V)
            top = np.max(np.abs(route2.coeffs))
            assert np.max(np.abs(route1.coeffs - route2.coeffs)) <= 1e-8 * top
        # part (b): four-term splitting of the two-branch kernel
        u = banded_spacetime_field(g, 3, 3, 11)
        v = banded_spacetime_field(g, 3, 3, 12)
        direct = apply_form(BilinearFormSpec("ralpha", alpha=alpha), u, v).coeffs
        up, um = pm_decompose(u)
        vp, vm = pm_decompose(v)
        sp = BilinearFormSpec("splus", alpha=alpha)
        sm = BilinearFormSpec("sminus", alpha=alpha)
        four = (apply_form(sp, up, vp).coeffs + apply_form(sm, up, vm).coeffs
                + apply_form(sm, um, vp).coeffs + apply_form(sp, um, vm).coeffs)
        assert np.max(np.abs(direct - four)) <= 1e-8 * np.max(np.abs(direct))


def test_criterion_2_closed_form_picard_oracle():
    with Budget("2 closed-form Picard oracle", 30.0):
        g = make_grid(2, 32, 32, 1.0, TWO_PI)
        X = np.arange(32) * g.dx
        XX, YY = np.meshgrid(X, X, indexing="ij")
        f = transform(g, 0.05 * np.cos(XX) * np.cos(YY), SPATIAL)
        zero = transform(g, np.zeros(g.spatial_shape), SPATIAL)
        data = CauchyData(f, zero)
        width = 0.5
        final = iterate_samples(SystemSpec("scalarQ0"), [data], 8, width)[0]
        ts = signed_times(g)
        window = np.nonzero(np.abs(ts) <= width / 2.0 + 1e-12)[0]
        err = 0.0
        for j in window:
            exact = inverse_transform(q0_closed_form(data, ts[j]))
            got = np.fft.ifftn(final[j] * g.N_x**g.n).real
            err = max(err, float(np.max(np.abs(got - exact))))
        assert err <= 1e-6, f"sup error {err:.3e}"
        trace = picard_run(SystemSpec("scalarQ0"), [data], 8, SpaceIndex(1.2, 0.6), width)
        floor = 1e-13 * max(trace.sup_hs[0], 1.0)
        checked = 0
        for j in range(2, len(trace.d)):
            if trace.d[j] > floor:
                assert trace.d[j] / trace.d[j - 1] < 0.5
                checked += 1
        assert checked >= 2


def test_criterion_3_symbol_inequality_fuzzing():
    with Budget("3 symbol-inequality fuzzing", 60.0):
        names = sorted(INEQUALITY_REGISTRY)
        assert len(names) == 10
        pairs = frequency_pairs(10**6, 2026)  # one draw, shared by every inequality
        for name in names:
            rep = check_symbol_inequality(name, pairs)
            assert rep.samples >= 10**6
            assert rep.violations == 0, f"{name}: {rep.violations} violations"
            assert rep.worst_margin <= 1e-9


def test_criterion_4_counterexample_scaling():
    with Budget("4 counterexample scaling", 300.0):
        scales = (8, 16, 32, 64)
        for s, theta, want_positive in ((0.4, 0.6, True), (1.0, 0.6, False)):
            recs = [counterexample_norms(CounterexampleParams(L=L, s=s, theta=theta, n=3))
                    for L in scales]
            fu = scaling_fit([(r.L, r.norm_u) for r in recs])
            fv = scaling_fit([(r.L, r.norm_v) for r in recs])
            fr = scaling_fit([(r.L, r.ratio) for r in recs])
            assert abs(fu.slope - (s + theta + 1.5)) <= 0.1
            assert abs(fv.slope - (2.0 * s + 2.0)) <= 0.1
            assert abs(fr.slope - (1.5 - s - theta)) <= 0.15
            assert (fr.slope > 0) == want_positive
        failures = membership_check(CounterexampleParams(L=8, s=0.4, theta=0.6, n=3),
                                    membership_draw(10**6, 3, 0))
        assert failures == 0


def test_criterion_5_integral_estimate_region():
    with Budget("5 integral-estimate region", 60.0):
        inside = KernelSpec(a=1.2, b=0.2, c=0.3, sign="plus",
                            variant="homogeneous", n=3)
        v1 = schur_bound(inside, 16.0, 0.1)
        v_h = schur_bound(inside, 16.0, 0.05)
        v_R = schur_bound(inside, 32.0, 0.1)
        assert abs(v_h - v1) / v1 < 0.05
        assert abs(v_R - v1) / v1 < 0.05
        outside = KernelSpec(a=1.2, b=0.2, c=0.6, sign="plus",
                             variant="homogeneous", n=3)
        w1 = schur_bound(outside, 16.0, 0.1)
        w2 = schur_bound(outside, 16.0, 0.05)
        w3 = schur_bound(outside, 16.0, 0.025)
        assert w2 >= 2.0 * w1 and w3 >= 2.0 * w2


def test_criterion_6_strichartz_bookkeeping():
    with Budget("6 Strichartz bookkeeping", 1.0):
        assert is_wave_admissible(4, 4, 3)
        assert abs(strichartz_s(4, 4, 3) - 0.5) <= 1e-15
        assert not is_wave_admissible(2, math.inf, 2)
        import json
        from pathlib import Path
        fixture = json.loads((Path(__file__).parent / "data"
                              / "bilinear_checker_fixture.json").read_text())
        rows = fixture["thmB"] + fixture["thmC"]
        assert len(rows) == 12
        inside = sum(1 for c in rows if c["expect"])
        assert inside == 6
        for case in fixture["thmB"]:
            r = math.inf if case["r"] == "inf" else case["r"]
            assert check_thmB(case["q"], r, case["n"], case["sigma"],
                              case["s1"], case["s2"]) == case["expect"], case["note"]
        for case in fixture["thmC"]:
            assert check_thmC(case["n"], case["gamma"], case["gamma_plus"],
                              case["gamma_minus"], case["s1"],
                              case["s2"]) == case["expect"], case["note"]


def test_criterion_7_linear_solver_oracles():
    with Budget("7 linear-solver oracles", 10.0):
        g = make_grid(1, 32, 8, 1.0, TWO_PI)
        F = transform(g, np.ones(g.spacetime_shape), SPACETIME)
        P = inverse_transform(duhamel(F))
        ts = signed_times(g)
        assert np.max(np.abs(P - (-ts[:, None] ** 2 / 2.0))) <= 1e-12
        # measured convergence order of the Duhamel quadrature (resonant mode)
        errs = []
        for Nt in (64, 128, 256):
            gk = make_grid(1, Nt, 8, 1.0, TWO_PI)
            w = 2.0
            tk = signed_times(gk)
            a_F = np.zeros((Nt, 8), dtype=complex)
            a_F[:, 2] = np.sin(w * tk)
            a_u = duhamel_mixed(gk, a_F)
            exact = -(np.sin(w * tk) - w * tk * np.cos(w * tk)) / (2.0 * w * w)
            errs.append(float(np.max(np.abs(a_u[:, 2] - exact))))
        order = math.log2(errs[0] / errs[1])
        assert abs(order - 2.0) <= 0.2
        # per-mode energy conservation of the homogeneous solution
        g2 = make_grid(2, 16, 16, TWO_PI, TWO_PI)
        d = CauchyData(random_field(g2, SPATIAL, 1, max_freq=4),
                       random_field(g2, SPATIAL, 2, max_freq=4))
        ax = g2.abs_xi(SPATIAL)
        e0 = None
        for t in np.linspace(0.0, 2.5, 6):
            u = homogeneous(d, t)
            v = homogeneous_velocity(d, t)
            e = ax**2 * np.abs(u.coeffs) ** 2 + np.abs(v.coeffs) ** 2
            if e0 is None:
                e0 = e
            assert np.max(np.abs(e - e0)) / max(np.max(e0), 1e-300) <= 1e-10


def test_criterion_8_norm_machinery():
    with Budget("8 norm machinery", 30.0):
        g = make_grid(2, 8, 8, TWO_PI, TWO_PI)
        rng = np.random.default_rng(0)
        fields = [random_field(g, SPACETIME, seed, max_freq=3, real=False)
                  for seed in range(100)]
        for u in fields:
            s2 = float(np.sum(np.abs(u.coeffs) ** 2))
            assert abs(mixed_norm(u, 2, 2) ** 2 - s2) / s2 <= 1e-10
        for u in fields:
            # X^{2,2} = L^2 exactly, and the ordering chain on two exponent pairs
            lo, asc, up, _ = modified_mixed_norm_detailed(u, 2, 2)
            l2 = u.l2()
            assert abs(lo - l2) <= 1e-10 * l2 and abs(up - l2) <= 1e-10 * l2
            for q, r in ((1, 2), (4, 4)):
                lo, asc, up, _ = modified_mixed_norm_detailed(u, q, r)
                assert lo <= asc <= up * (1 + 1e-12)
        for u in fields[:50]:
            # phase invariance and spectrum-order monotonicity
            phases = np.exp(1j * rng.uniform(0, TWO_PI, u.coeffs.shape))
            v = u.copy_with(np.abs(u.coeffs) * phases, real_flag=False)
            a = modified_mixed_norm_detailed(u, 1, 2)[:3]
            b = modified_mixed_norm_detailed(v, 1, 2)[:3]
            for x, y in zip(a, b):
                assert abs(x - y) <= 1e-12 * max(1.0, x)
            extra = np.abs(rng.standard_normal(u.coeffs.shape))
            w = SpectralField(grid=g, kind=SPACETIME,
                              coeffs=np.abs(u.coeffs) + extra)
            for q, r in ((2, 2), (4, 4)):
                au = modified_mixed_norm_detailed(u, q, r)[:3]
                aw = modified_mixed_norm_detailed(w, q, r)[:3]
                for x, y in zip(au, aw):
                    assert x <= y * (1 + 1e-12)


def test_criterion_9_embedding_probes():
    with Budget("9 embedding probes", 300.0):
        g = make_grid(2, 16, 16, TWO_PI, TWO_PI)
        algebra = EmbeddingSpec(left=SpaceIndex(1.2, 0.6), right=SpaceIndex(1.2, 0.6),
                                target=SpaceIndex(1.2, 0.6), n=2)
        rep = probe_embedding(algebra, "cone-concentrated", 40, g, seed=4)
        assert rep.verdict == "bounded-consistent"
        assert rep.refinement_drift <= 0.20
        s, th = 0.0, 0.6  # s < n/2 - theta: the failing product estimate
        failing = EmbeddingSpec(left=SpaceIndex(s + 0.5, th - 0.5),
                                right=SpaceIndex(s - 0.5, th),
                                target=SpaceIndex(s - 0.5, th - 1.0), n=2)
        rep2 = probe_embedding(failing, "counterexample-family", 1, None,
                               scales=[4, 6, 8, 12])
        assert rep2.verdict == "growth-detected"
